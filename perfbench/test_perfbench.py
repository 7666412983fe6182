"""Tests of the benchmark itself: pinned FFT counts and the metric contract.

FFT counts are exact, so they are pinned here.  Each workload runs in this
process on a coarse grid for two steps with the span tracer installed;
scalar transforms per step and per sample do not depend on the grid size,
so the pins equal the counts of the full-size benchmark runs.  A change
that moves a count updates its pin on purpose and records it in CHANGES.md.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads as wl

COUNTS = ("spectral.ffts_per_el_step", "spectral.ffts_per_ns_step",
          "spectral.ffts_per_cotangent_step", "spectral.ffts_per_sample",
          "identities.ffts")

PINNED = {
    "bounds-3d": (262, 0, 0, 88, 0),
    "compare-3d": (250, 66, 0, 88, 0),
    "euler-cotangent-2d": (110, 0, 60, 42, 0),
    "identities-3d": (0, 0, 0, 0, 5387),
}


def traced_counts(workload: wl.Workload, tmp_path: Path) -> dict:
    from elflow import runner
    from elflow.cli import main

    cfg = workload.config(seed=1, n=16, steps=2)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    t = tracer.Tracer()
    t.install()
    try:
        rc = t.wrap(tracer.ROOT, main)(
            [workload.command, "--config", str(path), "--out", str(tmp_path / "out")])
    finally:
        t.uninstall()
    assert not hasattr(runner.el_step, "__wrapped__")
    # At n=16 the identity corpus is under-resolved (exit 3), but the suite
    # runs to the end, so its transform count is that of the n=48 run.
    assert rc == (3 if workload.name == "identities-3d" else 0)
    metrics = tracer.layer_metrics(t.spans)
    return {k: metrics[k] for k in COUNTS}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_fft_counts_are_pinned(name, tmp_path):
    assert traced_counts(wl.WORKLOADS[name], tmp_path) == dict(zip(COUNTS, PINNED[name]))


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compare-3d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
