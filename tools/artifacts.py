"""Record elflow's output over a fixed case list, and diff two records.

Usage (from the repository root):

    python tools/artifacts.py record SRC OUT
    python tools/artifacts.py diff A B [--json PATH]

``record`` runs every case of ``CASES`` with the ``elflow`` package of the
checkout ``SRC`` (the directory that holds ``src/elflow``), one fresh
process per case, and keeps in ``OUT``:

* ``record.json``: each case's command and exit code;
* ``configs/CASE.json``: the configuration document the case ran;
* ``runs/CASE/``: the case's output directory (absent when the command
  exits 1 before making it).

The four benchmark workloads take their documents from
``perfbench/workloads.py`` of this checkout, built with the presets of
``SRC``. ``diff`` compares two records made on one host and lists, per
case, changed exit codes, files added or removed, and for each changed file
the max absolute and max relative difference: per key path for JSON
leaves, per column for ``timeseries.csv``, per field for snapshots. The
relative difference of two numbers is ``|a - b| / max(|a|, |b|)``; values
that differ but are not both numbers (strings, hashes, ``2`` against
``2.0``) are listed as a pair. It prints a table, writes the full diff as
JSON with ``--json``, and exits 1 when the records differ.

Records hold hashes that depend on the host and the library versions;
keep them out of the repository.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

_TINY = {"grid": {"dim": 2, "n": 16}, "nu": 0.02, "dt": 2e-3, "t_end": 0.02,
         "cadence": 2, "m_list": [2], "mc": {"samples": 2000, "seed": 3}}
_TINY_3D = {**_TINY, "grid": {"dim": 3, "n": 16}}
_UNBROKEN = {"nu": 0.05, "dt": 5e-3, "t_end": 0.05, "mode": "el",
             "initial": {"kind": "taylor_green", "amplitude": 0.2},
             "reset": {"enabled": False}}
_SINGLE_MODE = {"kind": "single_mode", "amplitude": 0.05, "mode": 2}


def _case(command: str, base: dict, **overrides) -> dict:
    return {"command": command, "doc": {**base, **overrides}}


def _workload(name: str, seed: int = 1, **overrides) -> dict:
    """A benchmark workload's command and document at ``seed``; the
    overrides are merged into the document's sections."""
    return {"workload": name, "seed": seed, "doc": overrides}


# Every solver and command, bounds reports on a flow at rest and at nu = 0,
# a grid whose Nyquist index a float fftfreq rounds (n = 98), a force above
# the 2/3 band (exit 1), CFL and mid-run solver failures (exit 2), both ways
# to fix dt, and the benchmark workloads at seed 1.
CASES = {
    "el": _case("run", _TINY, mode="el"),
    "classical": _case("run", _TINY, mode="classical"),
    "cotangent": _case("run", _TINY, mode="cotangent"),
    "compare-classical": _case("compare", _TINY, compare_kind="classical"),
    "compare-gauge": _case("compare", _TINY, compare_kind="gauge"),
    "compare-cotangent": _case("compare", _TINY, compare_kind="cotangent"),
    "compare-cotangent-every-step": _case("compare", _TINY, compare_kind="cotangent",
                                          cadence=1),
    "dynamic-2d-single-mode": _case("run", _TINY, mode="el", potential_mode="dynamic",
                                    forcing=_SINGLE_MODE),
    "dynamic-3d-multi-mode": _case(
        "run", _TINY_3D, mode="el", potential_mode="dynamic",
        forcing={"kind": "multi_mode", "amplitude": 0.05, "modes": [1, 2]}),
    "resets": _case("run", _TINY, mode="el", nu=0.01, dt=5e-3, t_end=0.5, cadence=10),
    "forced-3d-el": _case("run", _TINY_3D, mode="el", forcing=_SINGLE_MODE),
    "compare-classical-3d": _case("compare", _TINY_3D, compare_kind="classical"),
    "compare-gauge-3d": _case("compare", _TINY_3D, compare_kind="gauge"),
    "bounds-report-3d": _case("bounds-report", {**_TINY_3D, **_UNBROKEN},
                              forcing=_SINGLE_MODE),
    "bounds-report-2d": _case("bounds-report", {**_TINY, **_UNBROKEN}),
    "bounds-report-at-rest": _case("bounds-report", {**_TINY, **_UNBROKEN},
                                   initial={"kind": "taylor_green", "amplitude": 0.0}),
    "bounds-report-euler": _case(
        "bounds-report", {"grid": {"dim": 3, "n": 16}, "nu": 0.0, "dt": 5e-3,
                          "t_end": 0.05, "cadence": 2, "mode": "el",
                          "reset": {"enabled": False},
                          "initial": {"kind": "taylor_green", "amplitude": 0.2},
                          "mc": {"samples": 2000}}),
    "el-n98": _case("run", _TINY, mode="el", grid={"dim": 2, "n": 98}),
    # a force above the 2/3 band (n // 3 = 5): a config error
    "forcing-beyond-band": _case("bounds-report", {**_TINY, **_UNBROKEN},
                                 forcing={"kind": "single_mode", "amplitude": 0.5,
                                          "mode": 6}),
    "pair-dispersion": _case("pair-dispersion", _TINY, mode="el",
                             reset={"enabled": False}),
    "verify-identities-2d": _case("verify-identities", _TINY,
                                  grid={"dim": 2, "n": 64}, identity_dts=[8e-3, 4e-3]),
    "cfl-failure-run": _case("run", _TINY, mode="el", dt=5.0, t_end=10.0),
    "cfl-failure-compare": _case("compare", _TINY, dt=5.0, t_end=10.0),
    "cfl-dt": _case("run", _TINY, mode="el", dt=None),
    "compare-classical-cfl-dt": _case("compare", _TINY, compare_kind="classical",
                                      dt=None),
    # resets off, this flow's Jacobian nears singular at t = 0.56
    "el-failure-mid-run": {**_workload("euler-cotangent-2d", seed=3, mode="el",
                                       reset={"enabled": False}, t_end=0.6),
                           "command": "run"},
    # the same failure with the cotangent oracle beside EL
    "compare-el-fails-mid-run": _workload("euler-cotangent-2d", seed=3,
                                          compare_kind="cotangent",
                                          reset={"enabled": False}, t_end=0.6),
    **{name: _workload(name) for name in
       ("bounds-3d", "compare-3d", "euler-cotangent-2d", "identities-3d")},
}

# Fills in the workload cases, with elflow on the path (argv: PERFBENCH; the
# cases as JSON on stdin, the resolved cases on stdout).
_RESOLVE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import workloads
cases = json.load(sys.stdin)
for case in cases.values():
    if "workload" in case:
        workload = workloads.WORKLOADS[case.pop("workload")]
        doc = workload.config(case.pop("seed"))
        for key, value in case["doc"].items():
            doc[key] = {**doc[key], **value} if isinstance(value, dict) else value
        case["doc"] = doc
        case.setdefault("command", workload.command)
json.dump(cases, sys.stdout)
"""


def record(src, out, cases: dict = CASES) -> dict:
    """Run ``cases`` against the checkout ``src`` into the new directory
    ``out``, each through the ``elflow`` CLI in a fresh process."""
    src, out = Path(src).resolve(), Path(out)
    if not (src / "src" / "elflow").is_dir():
        raise SystemExit(f"{src} holds no src/elflow")
    if out.exists() and any(out.iterdir()):
        raise SystemExit(f"{out} is not empty")
    (out / "configs").mkdir(parents=True)
    (out / "runs").mkdir()
    env = {**os.environ, "PYTHONPATH": str(src / "src")}
    cases = json.loads(subprocess.run(
        [sys.executable, "-c", _RESOLVE, str(PERFBENCH)],
        input=json.dumps(cases), env=env, capture_output=True, text=True,
        check=True).stdout)
    results = {}
    for name, case in cases.items():
        config = out / "configs" / f"{name}.json"
        config.write_text(json.dumps(case["doc"], indent=1) + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "elflow.cli", case["command"], "--config",
             str(config), "--out", str(out / "runs" / name)],
            env=env, capture_output=True, text=True, timeout=900)
        if proc.returncode not in (0, 1, 2, 3) or "Traceback" in proc.stderr:
            raise SystemExit(f"case {name} crashed:\n{proc.stderr}")
        results[name] = {"command": case["command"], "exit": proc.returncode}
    summary = {"src": str(src), "cases": results}
    (out / "record.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary


# -- diff -------------------------------------------------------------------------

def _same(a, b) -> bool:
    return json.dumps(a) == json.dumps(b)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numeric(a, b) -> dict:
    """Max absolute and relative difference of two equal-shape arrays."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        gap = np.abs(a - b)
        rel = gap / np.maximum(np.abs(a), np.abs(b))
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    gap = np.where(same, 0.0, np.where(np.isnan(gap), np.inf, gap))
    rel = np.where(same, 0.0, np.where(np.isnan(rel), np.inf, rel))
    return {"max_abs": float(gap.max(initial=0.0)), "max_rel": float(rel.max(initial=0.0))}


def _merge(entries: dict, key: str, a, b) -> None:
    """Fold one differing pair of values into ``entries[key]``."""
    if _is_number(a) and _is_number(b) and type(a) is type(b):
        new = _numeric(a, b)
        old = entries.setdefault(key, {"max_abs": 0.0, "max_rel": 0.0})
        if "max_abs" in old:
            old.update({k: max(old[k], new[k]) for k in new})
    else:
        entries[key] = {"a": a, "b": b}


def _leaves(obj, path: str = ""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else str(key))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


def _json_diff(pa: Path, pb: Path) -> dict:
    a = dict(_leaves(json.loads(pa.read_text())))
    b = dict(_leaves(json.loads(pb.read_text())))
    entries: dict = {}
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b or not _same(a[key], b[key]):
            _merge(entries, key, a.get(key), b.get(key))
    return entries


def _csv_diff(pa: Path, pb: Path) -> dict:
    (head_a, *rows_a), (head_b, *rows_b) = (
        list(csv.reader(p.read_text().splitlines())) for p in (pa, pb))
    entries: dict = {}
    if head_a != head_b or len(rows_a) != len(rows_b):
        return {"shape": {"a": [head_a, len(rows_a)], "b": [head_b, len(rows_b)]}}
    for row_a, row_b in zip(rows_a, rows_b):
        for column, ca, cb in zip(head_a, row_a, row_b):
            if ca != cb:
                try:
                    _merge(entries, column, float(ca), float(cb))
                except ValueError:
                    entries[column] = {"a": ca, "b": cb}
    return entries


def _snapshot_diff(pa: Path, pb: Path) -> dict:
    from elflow.snapshots import read_snapshot
    (fa, ha), (fb, hb) = read_snapshot(pa), read_snapshot(pb)
    entries: dict = {}
    for key in sorted(set(ha) | set(hb)):
        if not _same(ha.get(key), hb.get(key)):
            _merge(entries, "header." + key, ha.get(key), hb.get(key))
    if fa.data.shape != fb.data.shape:
        entries["values"] = {"a": list(fa.data.shape), "b": list(fb.data.shape)}
    elif fa.data.tobytes() != fb.data.tobytes():
        entries["values"] = _numeric(fa.data, fb.data)
    return entries


def _file_diff(pa: Path, pb: Path) -> dict:
    if pa.suffix == ".json":
        entries = _json_diff(pa, pb)
    elif pa.suffix == ".csv":
        entries = _csv_diff(pa, pb)
    elif pa.suffix == ".bin":
        entries = _snapshot_diff(pa, pb)
    else:
        entries = {}
    # bytes differ even where no value does (say, a change of layout)
    return entries or {"bytes": {"a": pa.stat().st_size, "b": pb.stat().st_size}}


def _files(run: Path) -> set[str]:
    return {str(p.relative_to(run)) for p in run.rglob("*") if p.is_file()}


def diff(a, b) -> dict:
    """The differences between the records ``a`` and ``b``, by case."""
    a, b = Path(a), Path(b)
    cases_a, cases_b = (json.loads((r / "record.json").read_text())["cases"] for r in (a, b))
    cases = {}
    for name in sorted(set(cases_a) | set(cases_b)):
        if name not in cases_a or name not in cases_b:
            cases[name] = {"recorded": {"a": name in cases_a, "b": name in cases_b}}
            continue
        entry: dict = {}
        if cases_a[name]["exit"] != cases_b[name]["exit"]:
            entry["exit"] = {"a": cases_a[name]["exit"], "b": cases_b[name]["exit"]}
        run_a, run_b = a / "runs" / name, b / "runs" / name
        files_a, files_b = _files(run_a), _files(run_b)
        if files_b - files_a:
            entry["added"] = sorted(files_b - files_a)
        if files_a - files_b:
            entry["removed"] = sorted(files_a - files_b)
        changed = {rel: _file_diff(run_a / rel, run_b / rel)
                   for rel in sorted(files_a & files_b)
                   if (run_a / rel).read_bytes() != (run_b / rel).read_bytes()}
        if changed:
            entry["changed"] = changed
        if entry:
            cases[name] = entry
    return {"a": str(a), "b": str(b), "compared": len(set(cases_a) | set(cases_b)),
            "cases": cases}


def _fmt(value) -> str:
    return f"{value:.3g}" if isinstance(value, float) else str(value)


def table(report: dict) -> str:
    """A Markdown table of ``diff``'s report: one row per changed file, with
    its worst entry."""
    if not report["cases"]:
        return f"no differences over {report['compared']} cases"
    rows = ["| case | file | entries | worst entry | max abs | max rel |",
            "|---|---|---|---|---|---|"]
    for name, entry in report["cases"].items():
        for key in ("recorded", "exit"):
            if key in entry:
                rows.append(f"| {name} | ({key}) | | a: {entry[key]['a']}, "
                            f"b: {entry[key]['b']} | | |")
        for key in ("added", "removed"):
            for rel in entry.get(key, ()):
                rows.append(f"| {name} | {rel} | {key} | | | |")
        for rel, entries in entry.get("changed", {}).items():
            worst = max(entries, key=lambda k: entries[k].get("max_rel", math.inf))
            values = entries[worst]
            cells = ((_fmt(values["max_abs"]), _fmt(values["max_rel"]))
                     if "max_rel" in values else ("", ""))
            rows.append(f"| {name} | {rel} | {len(entries)} | {worst} | "
                        f"{cells[0]} | {cells[1]} |")
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run the case list against a checkout")
    rec.add_argument("src", help="checkout whose src/elflow runs the cases")
    rec.add_argument("out", help="new directory for the record")
    dif = sub.add_parser("diff", help="compare two records")
    dif.add_argument("a")
    dif.add_argument("b")
    dif.add_argument("--json", help="write the full diff here")
    args = parser.parse_args(argv)
    if args.command == "record":
        summary = record(args.src, args.out)
        for name, result in summary["cases"].items():
            print(f"{name:28s} {result['command']:18s} exit {result['exit']}")
        return 0
    sys.path.insert(0, str(ROOT / "src"))   # read_snapshot, for the snapshots
    report = diff(args.a, args.b)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(table(report))
    return 1 if report["cases"] else 0


if __name__ == "__main__":
    sys.exit(main())
