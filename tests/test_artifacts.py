"""The artifact diff tool (tools/artifacts.py) on a few tiny cases."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from elflow.snapshots import read_snapshot, write_snapshot

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("artifacts", ROOT / "tools" / "artifacts.py")
artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifacts)

TINY = {"grid": {"dim": 2, "n": 8}, "dt": 2e-3, "t_end": 4e-3, "cadence": 1,
        "m_list": [2]}
CASES = {
    "el": {"command": "run", "doc": {**TINY, "mode": "el"}},
    "compare-cotangent": {"command": "compare",
                          "doc": {**TINY, "compare_kind": "cotangent"}},
    "bad-config": {"command": "run", "doc": {"nu": -1.0}},
}


def test_records_of_one_tree_agree_and_a_perturbed_value_shows(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        artifacts.record(ROOT, out, CASES)
    assert artifacts.diff(a, b)["cases"] == {}
    assert artifacts.table(artifacts.diff(a, b)) == "no differences over 3 cases"

    path = b / "runs" / "el" / "snapshots" / "final_v.bin"
    field, header = read_snapshot(path)
    field.data.flat[np.argmax(np.abs(field.data))] *= 1 + 1e-6
    write_snapshot(path, field, time=header["time"], name=header["name"])
    report = artifacts.diff(a, b)
    assert list(report["cases"]) == ["el"]
    assert list(report["cases"]["el"]["changed"]) == ["snapshots/final_v.bin"]
    values = report["cases"]["el"]["changed"]["snapshots/final_v.bin"]["values"]
    assert values["max_rel"] == pytest.approx(1e-6, rel=1e-5)
    assert values["max_abs"] == pytest.approx(1e-6 * np.abs(field.data).max(), rel=1e-5)
    assert "snapshots/final_v.bin" in artifacts.table(report)
