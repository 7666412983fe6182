"""elflow benchmark: end-to-end and per-layer cost of four CLI workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each rep is one fresh ``python child.py`` process running one ``elflow``
command on a configuration generated here from a shipped preset and the
seed; reps run one at a time (a closed loop with one client).  A run makes
``reps_for(workload, S)`` reps on the seeds ``seed, seed + 1000, ...``.

``--trace 0`` reports the end-to-end metrics (medians over reps, set-up
over the reps plus set-up-only probes).  ``--trace 1`` runs each rep twice,
untraced and traced, and reports the per-layer metrics from the spans the
traced rep kept in memory, plus the tracing overhead.  Both print tables
first and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status 2 means the program
sources (``src/elflow``) are missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracer
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0   # every child is killed by then; the run must end in 180 s
SETUP_PROBES = 5

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
    "oracle_rel_l2": "-log10", "identity_worst_ratio": "-log10",
    "bound_min_margin": "1",
}
PER_LAYER = {
    "spectral.ffts_per_el_step": "count", "spectral.ffts_per_ns_step": "count",
    "spectral.ffts_per_cotangent_step": "count", "spectral.ffts_per_sample": "count",
    "spectral.fft_ms_per_el_step": "ms", "spectral.fft_share": "1",
    "spectral.fft_mb_per_el_step": "MB",
    "el.step_ms_p50": "ms", "el.step_ms_p90": "ms", "el.step_self_ms": "ms",
    "el.static_n_ms_per_step": "ms", "el.reset_monitor_ms_per_step": "ms",
    "el.resets": "count", "el.reset_ms": "ms", "el.cotangent_step_ms": "ms",
    "classical.step_ms": "ms", "el.step_over_ns_step": "1",
    "diagnostics.sample_ms": "ms", "diagnostics.record_classical_ms": "ms",
    "diagnostics.bounds_s": "s", "diagnostics.pair_dispersion_s": "s",
    "identities.suite_s": "s", "identities.orders_s": "s", "identities.ffts": "count",
    "runner.emit_s": "s", "snapshots.mb_written": "MB",
    "setup.make_initial_ms": "ms", "trace.overhead_frac": "1",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_child(work: Path, tag: str, command: str, config: Path, trace: bool,
              deadline: float) -> dict:
    """Run one rep in a fresh process and wait for it; never raises on failure."""
    out, res, log = work / f"out_{tag}", work / f"result_{tag}.json", work / f"log_{tag}.txt"
    argv = [sys.executable, str(HERE / "child.py"), str(wl.SRC), str(res),
            "1" if trace else "0", command, str(config), str(out)]
    with open(log, "w") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            proc.wait(timeout=max(1.0, deadline - t0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        wall = time.monotonic() - t0
    info = {"tag": tag, "wall": wall, "exit": proc.returncode, "out": out,
            "log": log, "rc": None}
    if proc.returncode == 0 and res.is_file():
        data = json.loads(res.read_text())
        info.update(rc=data["rc"], setup=data["setup_done"] - t0,
                    rss_mb=data["maxrss_kb"] / 1024.0, cpu=data["cpu_s"], spans=data.get("spans"))
    return info


def judge(workload: wl.Workload, child: dict) -> tuple[bool, dict, str]:
    """A rep fails on a non-zero exit, a missing report or a failed check."""
    if child["exit"] != 0 or child["rc"] is None:
        return False, {}, f"process exit {child['exit']} (see {child['log']})"
    ok, figures, reason = wl.check_outputs(workload, child["out"])
    if child["rc"] != 0:
        return False, figures, f"elflow exit code {child['rc']}"
    return ok, figures, reason


def _manifest(outdir: Path):
    try:
        return json.loads((outdir / "manifest.json").read_text())
    except (OSError, ValueError):
        return None


def host_info() -> dict:
    import numpy
    import scipy
    from elflow import spectral

    def read(path, key=None):
        try:
            text = Path(path).read_text()
        except OSError:
            return "unknown"
        if key is None:
            return text.strip()
        for line in text.splitlines():
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
        return "unknown"

    cache = "/sys/devices/system/cpu/cpu0/cache"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": read("/proc/cpuinfo", "model name"),
        "l2_per_core": read(f"{cache}/index2/size"),
        "l3": read(f"{cache}/index3/size"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "spectral._WORKERS": spectral._WORKERS,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _print_table(title: str, rows) -> None:
    print(f"-- {title}")
    for name, value, unit, note in rows:
        print(f"  {name:34s} {value:14.6g} {unit:8s} {note}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (wl.SRC / "elflow" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {wl.SRC / 'elflow'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.SRC))
    workload = wl.WORKLOADS[args.workload]
    start = time.monotonic()
    deadline = start + DEADLINE_S
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    reps = wl.reps_for(workload, args.seconds)
    seeds = wl.subseeds(args.seed, reps)
    configs = []
    for i, seed in enumerate(seeds):
        path = work / f"config_{i}.json"
        path.write_text(json.dumps(workload.config(seed), indent=1))
        configs.append(path)
    cfg0 = json.loads(configs[0].read_text())
    grid = cfg0["grid"]

    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} reps={reps} seeds={seeds}")
    print("host " + json.dumps(host_info()))
    print("workload " + json.dumps({
        "command": workload.command, "preset": workload.preset, "dim": grid["dim"],
        "n": grid["n"], "steps": workload.steps,
        "bytes_per_scalar_field": 8 * grid["n"] ** grid["dim"],
        "oracle_limit": workload.oracle_limit}))

    # Compiles bytecode and fills the file cache; not measured.
    run_child(work, "warmup", "setup", configs[0], False, deadline)

    untraced, traced, setups, figures = [], [], [], []
    if args.trace:
        for i in range(reps):
            if i and time.monotonic() - start > args.seconds:
                break
            pair = [run_child(work, f"rep{i}", workload.command, configs[i], False, deadline),
                    run_child(work, f"rep{i}_traced", workload.command, configs[i], True,
                              deadline)]
            same = _manifest(pair[0]["out"]) == _manifest(pair[1]["out"])
            for child in pair:
                ok, figs, reason = judge(workload, child)
                if ok and not same:
                    ok, reason = False, "traced and untraced artifacts differ"
                child.update(ok=ok, reason=reason)
                figures.append(figs)
            untraced.append(pair[0])
            traced.append(pair[1])
    else:
        for k in range(max(0, SETUP_PROBES - reps)):
            probe = run_child(work, f"probe{k}", "setup", configs[0], False, deadline)
            if "setup" in probe:
                setups.append(probe["setup"])
        for i in range(reps):
            child = run_child(work, f"rep{i}", workload.command, configs[i], False, deadline)
            ok, figs, reason = judge(workload, child)
            child.update(ok=ok, reason=reason)
            figures.append(figs)
            untraced.append(child)

    children = untraced + traced
    attempted = len(children)
    failed = sum(not c["ok"] for c in children)
    print("-- reps")
    for c in children:
        print(f"  {c['tag']:12s} exit={c['exit']} rc={c['rc']} wall_s={c['wall']:.3f} "
              f"setup_s={c.get('setup', float('nan')):.3f} "
              f"peak_rss_mb={c.get('rss_mb', float('nan')):.1f} cpu_s={c.get('cpu', float('nan')):.3f} "
              f"{'ok' if c['ok'] else 'FAILED: ' + c['reason']}")
        if not c["ok"]:
            print(f"perfbench: {workload.name} {c['tag']} failed: {c['reason']}",
                  file=sys.stderr)

    setups += [c["setup"] for c in untraced if "setup" in c]
    accuracy, raw = wl.accuracy_metrics(figures)
    e2e = {
        "wall_s": _median([c["wall"] for c in untraced]),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([c["rss_mb"] for c in untraced if "rss_mb" in c]),
        **accuracy,
    }
    notes = {k: f"raw median {v:.4g}" for k, v in raw.items()}
    for key in ("oracle_rel_l2", "identity_worst_ratio", "bound_min_margin"):
        notes.setdefault(key, "n/a on this workload (placeholder)")
    notes["wall_s"] = f"median of {len(untraced)} reps"
    notes["setup_s"] = f"median of {len(setups)}"
    notes["peak_rss_mb"] = f"{8 * grid['n'] ** grid['dim']} bytes per scalar field"
    _print_table("end-to-end (untraced reps)",
                 [(k, v, END_TO_END[k], notes.get(k, "")) for k, v in e2e.items()])

    if args.trace:
        spans = [c["spans"] for c in traced if c.get("spans")]
        joined = tracer.concat(spans)
        layer = tracer.layer_metrics(joined)
        layer["snapshots.mb_written"] = _median(
            [sum(f.stat().st_size for f in (c["out"] / "snapshots").glob("*")) / 1e6
             for c in traced if (c["out"] / "snapshots").is_dir()])
        layer["trace.overhead_frac"] = (
            _median([c["wall"] for c in traced]) / _median([c["wall"] for c in untraced]) - 1.0)
        counts = Counter(span[0] for span in joined)
        el_steps = counts["el.el_step"]
        lnotes = {
            "el.step_ms_p50": f"{el_steps} steps",
            "el.step_ms_p90": f"reported at p{100 * tracer.high_percentile(el_steps):.0f} "
                              f"({el_steps} steps)",
            "classical.step_ms": f"median of {counts['classical.ns_step']} steps",
            "el.cotangent_step_ms": f"median of {counts['el.cotangent_step']} steps",
            "el.step_over_ns_step": f"base classical.step_ms = {layer['classical.step_ms']:.4g} ms",
            "spectral.fft_mb_per_el_step": "computed from array sizes",
        }
        _print_table(f"per-layer (traced reps: {len(traced)})",
                     [(k, layer[k], PER_LAYER[k], lnotes.get(k, "")) for k in PER_LAYER])
        selfs = tracer.module_self_times(joined)
        total = sum(selfs.values()) or 1.0
        print("-- self time per module (s per command, share of traced wall)")
        for module, secs in sorted(selfs.items(), key=lambda kv: -kv[1]):
            print(f"  {module:12s} {secs / max(1, len(spans)):10.4f} {secs / total:8.1%}")
        files = [str(work / f"result_{c['tag']}.json") for c in traced]
        print("spans: " + ", ".join(files))
        metrics = {k: {"value": layer[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
    else:
        metrics = {k: {"value": e2e[k], "unit": END_TO_END[k]} for k in END_TO_END}

    for c in children:
        shutil.rmtree(c["out"], ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
