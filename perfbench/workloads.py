"""Workload definitions: one CLI command on one shipped preset, plus checks.

Each workload turns a preset into a run configuration for a given seed,
names the report the command writes, and says how to read the accuracy
figure and the pass/fail checks out of that report.
"""
from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Each run's reps use the seeds seed, seed + SUBSEED_STRIDE, ... so that a
# run's median covers several inputs and the first rep runs the seed itself.
SUBSEED_STRIDE = 1000

# Stand-in for an accuracy metric on a workload that has no such check
# (every end-to-end metric is reported on every workload).
NOT_APPLICABLE = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    preset: str
    steps: int | None        # EL steps; None for the identity suite
    nominal_s: float         # cost of one rep on the reference host
    report: str
    oracle_limit: float | None = None

    def config(self, seed: int, *, n: int | None = None,
               steps: int | None = None) -> dict:
        """The run configuration for ``seed`` (``n``/``steps`` shrink it for tests)."""
        from elflow.config import preset
        cfg = preset(self.preset).to_dict()
        steps = self.steps if steps is None else steps
        if self.name == "bounds-3d":
            cfg["mc"]["seed"] = seed
        elif self.name == "compare-3d":
            cfg["initial"].update(kind="random_bandlimited", seed=seed)
        elif self.name == "euler-cotangent-2d":
            cfg.update(mode="compare", compare_kind="cotangent",
                       potential_mode="dynamic")
            cfg["reset"]["enabled"] = True
            cfg["initial"].update(kind="random_bandlimited", seed=seed)
        elif self.name == "identities-3d":
            cfg["grid"]["n"] = 48
            cfg["identity_seed"] = seed
        if steps is not None:
            cfg["t_end"] = steps * cfg["dt"]
        if n is not None:
            cfg["grid"]["n"] = n
        return cfg


WORKLOADS = {w.name: w for w in (
    # Viscous commutator source and Q.f in every RK stage, no reset monitor,
    # ends in the bound suite and 1e5-pair dispersion: el algebra and
    # diagnostics carry the most work here.
    Workload("bounds-3d", "bounds-report", "bounds-3d", steps=20,
             nominal_s=7.5, report="report_bounds.json"),
    # Classical oracle beside EL on the same grid (the EL/classical step
    # ratio), reset monitor after every EL step.  The limit is the 3D
    # EL-vs-classical acceptance tolerance.
    Workload("compare-3d", "compare", "desk-3d", steps=20, nominal_s=8.5,
             report="report_compare.json", oracle_limit=1e-4),
    # Control: nu = 0 and no forcing switch off the commutator source and
    # Q.f; dynamic potential, cotangent oracle, frequent resets, 2D fields
    # that fit in L2.  The flow evolves and is cut at the 2/3 rule, so EL and
    # cotangent differ at the 1e-3 level (seeds 1-12: 2.8e-4 .. 3.0e-3, not
    # reduced by halving dt); the limit separates that from a broken solver.
    Workload("euler-cotangent-2d", "compare", "euler-2d", steps=80,
             nominal_s=7.5, report="report_compare.json", oracle_limit=2e-2),
    # No time stepping: field-level spectral operators and the Q/det/C
    # algebra on the identity corpus at the acceptance grid, largest
    # working set.
    Workload("identities-3d", "verify-identities", "desk-3d", steps=None,
             nominal_s=24.0, report="report_identities.json"),
)}


def reps_for(workload: Workload, seconds: float) -> int:
    """Reps per run: ``seconds`` in nominal-cost reps, rounded, at least one."""
    return max(1, round(seconds / workload.nominal_s))


def subseeds(seed: int, reps: int) -> list[int]:
    return [seed + SUBSEED_STRIDE * i for i in range(reps)]


def manifest_ok(outdir: Path) -> bool:
    """Every file listed in manifest.json is present with its recorded hash."""
    try:
        files = json.loads((outdir / "manifest.json").read_text())["files"]
    except (OSError, ValueError, KeyError):
        return False
    for rel, digest in files.items():
        path = outdir / rel
        if not path.is_file() or hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            return False
    return True


def check_outputs(workload: Workload, outdir: Path) -> tuple[bool, dict, str]:
    """Read the run's report; returns (passed, accuracy figures, reason)."""
    path = outdir / workload.report
    if not path.is_file():
        return False, {}, f"{workload.report} missing"
    if not manifest_ok(outdir):
        return False, {}, "manifest does not match the artifacts"
    report = json.loads(path.read_text())
    if workload.command == "bounds-report":
        checks = list(report["k_bounds"]["checks"]) + list(report["displacement"])
        for vg in report["v_growth"]:
            checks += vg["checks"]
        asserted = [c for c in checks if c["asserted"]]
        margin = min(c["margin"] for c in asserted)
        ok = all(c["pass"] for c in asserted) and report["dispersion"]["pass"]
        return ok, {"bound_min_margin": margin}, "" if ok else "asserted bound failed"
    if workload.command == "compare":
        rel = report["max_rel_l2"]
        ok = rel < workload.oracle_limit
        reason = "" if ok else f"max_rel_l2 {rel:.3e} >= {workload.oracle_limit:.0e}"
        return ok, {"oracle_rel_l2": rel}, reason
    ratios = [r["residual"] / r["tolerance"] for r in report["reports"]]
    ok = all(r["pass"] for r in report["reports"]) and report["orders_pass"]
    return ok, {"identity_worst_ratio": max(ratios)}, "" if ok else "identity check failed"


def accuracy_metrics(figures: list[dict]) -> tuple[dict, dict]:
    """End-to-end accuracy metrics from the reps' figures: (metrics, raw medians).

    ``oracle_rel_l2`` and ``identity_worst_ratio`` are reported as -log10 of
    the median over reps (digits of agreement, higher is better): their raw
    values scatter across seeds by up to a factor of 10, their logarithms
    by about 0.1 digit.  ``bound_min_margin`` (rhs/lhs, seed-independent) stays raw.
    """
    metrics, raw = {}, {}
    for key in ("oracle_rel_l2", "identity_worst_ratio", "bound_min_margin"):
        values = [f[key] for f in figures if key in f]
        if not values:
            metrics[key] = NOT_APPLICABLE
            continue
        mid = statistics.median(values)
        raw[key] = mid
        metrics[key] = mid if key == "bound_min_margin" else -math.log10(mid)
    return metrics, raw
