"""Experiment drivers and artifact emission.

A run is deterministic given its configuration: fixed seeds, fixed stepping,
stable serialization. Artifacts per output directory:

* ``config.json``      the exact configuration,
* ``timeseries.csv``   one diagnostics row per cadence step,
* ``snapshots/``       binary field snapshots (initial and final state),
* ``report_*.json``    comparison / bound / identity / dispersion reports,
* ``failure.json``     present only if a solver aborted mid-run,
* ``manifest.json``    config hash plus a content hash of every file above.

Every solver, an oracle or a gauge twin too, is started by ``_start`` and
runs the one step loop ``_drive``; only a run whose artifacts are written
is sampled (``_run``), and its snapshots are written as they are taken. A
compare reads its oracle's states for ``u`` and ``w`` alone.
"""
from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .classical import NSState, ns_step
from .config import RunConfig
from .diagnostics import (
    DispersionReport, asserted_pass, displacement_bounds, epsilon_bound,
    k_bounds, pair_dispersion, record_classical, record_el, v_growth,
    write_timeseries_csv,
)
from .el import (
    ELState, WState, cotangent_step, derive, el_step, grad_ell_sup,
    initial_state, reconstruct_u, reset_labels,
)
from .errors import ConfigError, ElflowError, BlowUpError
from .fields import Field, l2_norm, sup_norm
from .identities import run_identity_suite, check_gamma_commutation, \
    check_C_evolution, make_test_state
from .initial import make_initial, random_scalar
from .snapshots import write_snapshot
from .spectral import gradient, leray_project

__all__ = [
    "COMMANDS", "RunResult", "CompareReport", "Lockstep", "initial_velocity",
    "run_classical", "run_el", "el_sample", "run_cotangent", "compare_runs",
    "execute", "bounds_suite",
    "identity_suite_with_orders",
]

COMMANDS = ("run", "compare", "verify-identities", "bounds-report",
            "pair-dispersion")
RMS_BLOWUP_FACTOR = 1e6
# Label reset when sup|grad ell| crosses this (with reset.enabled).
RESET_THRESHOLD = 0.25
# Seed of the gradient added to u0 for the gauge twin run.
GAUGE_SEED = 42


@dataclass
class RunResult:
    config: RunConfig
    kind: str
    # one diagnostics record per sample; none for a compare's oracle
    records: list = field(default_factory=list)
    resets: list = field(default_factory=list)
    final_state: object = None
    failure: dict | None = None


def _plan(cfg: RunConfig, u0: Field) -> tuple[int, float, float]:
    """The step count, the step and the RMS reference of a run from u0: all
    that a run reads of u0 besides its initial state."""
    rms = float(np.sqrt(np.mean(u0.data**2)))
    if cfg.dt is not None:
        steps = max(1, round(cfg.t_end / cfg.dt))
        if abs(steps * cfg.dt - cfg.t_end) > 1e-9 * cfg.t_end:
            steps = math.ceil(cfg.t_end / cfg.dt)
        return steps, cfg.t_end / steps, rms
    peak = max(sup_norm(u0), 1e-12)
    dt = cfg.cfl_target * u0.grid.spacing / peak
    if not (dt > 0 and math.isfinite(cfg.t_end / dt)):
        raise ConfigError("t_end / dt, the step count from cfl_target, is not finite")
    steps = max(1, math.ceil(cfg.t_end / dt))
    return steps, cfg.t_end / steps, rms


def _guard_rms(u: Field, initial_rms: float, t: float) -> None:
    """A flow that starts from rest has no reference RMS and is not guarded."""
    rms = float(np.sqrt(np.mean(u.data**2)))
    if initial_rms > 0 and rms > RMS_BLOWUP_FACTOR * initial_rms:
        raise BlowUpError(
            f"velocity RMS grew {rms / initial_rms:.3g}x past the initial value", t=t)


def initial_velocity(cfg: RunConfig) -> Field:
    """The configured u0; ``execute`` builds it once per command."""
    return make_initial(cfg.initial.kind, cfg.grid.build(), cfg.initial.seed,
                        amplitude=cfg.initial.amplitude, band=cfg.initial.band,
                        mode=cfg.initial.mode)


def _failure(exc: ElflowError, solver: str, t: float | None) -> dict:
    return {"error": type(exc).__name__, "message": str(exc), "t": t, "solver": solver}


def _drive(result: RunResult, state, plan: tuple[int, float, float],
           step) -> Iterator[tuple[object, bool]]:
    """The step loop every solver runs, from ``state``, as a generator of
    its sampled states, each with a flag that marks the last: at t = 0,
    every ``cadence`` steps and after the last step.

    ``step(state, dt)`` returns the next state and the field the RMS guard
    watches. The step count, the step and the RMS reference come from
    ``plan`` (``_plan``). A solver error ends the states and is kept in
    ``result.failure`` with the name of the solver. Nothing is stepped past
    the last state taken; ``result.final_state``, the last state reached,
    is set once the states have run out.
    """
    cfg = result.config
    steps, dt, initial_rms = plan
    yield state, False
    try:
        for i in range(1, steps + 1):
            state, watched = step(state, dt)
            _guard_rms(watched, initial_rms, state.t)
            if i == steps or i % cfg.cadence == 0:
                yield state, i == steps
    except ElflowError as exc:
        result.failure = _failure(exc, result.kind, state.t)
    result.final_state = state


def _write_snapshots(snapdir: Path | None, tag: str, t: float, fields: dict) -> None:
    if snapdir is not None:
        for name, f in fields.items():
            write_snapshot(snapdir / f"{tag}_{name}.bin", f, time=t, name=name)


def _run(result: RunResult, states, sample, snapdir: Path | None = None,
         each_sample=None) -> RunResult:
    """Sample each of a run's ``states``: the one place records and
    snapshots are made. ``sample(state)`` returns a diagnostics record, kept
    in ``result.records``, and the named fields of the state's snapshots.
    Those of the first and the last state are written to ``snapdir`` (if
    any) as ``initial_<name>.bin`` and ``final_<name>.bin`` when they are
    taken. Each sample is passed to ``each_sample(t, fields)`` (if any) and
    dropped, with its state, before the next state is made. After a failure
    the last state reached is sampled again, without a record, for the
    final snapshots in ``snapdir``.
    """
    for state, last in states:
        record, fields = sample(state)
        result.records.append(record)
        if len(result.records) == 1:
            _write_snapshots(snapdir, "initial", state.t, fields)
        if last:
            _write_snapshots(snapdir, "final", state.t, fields)
        if each_sample is not None:
            each_sample(state.t, fields)
        del fields, state
    if result.failure is not None and snapdir is not None:
        state = result.final_state
        _write_snapshots(snapdir, "final", state.t, sample(state)[1])
    return result


def _start(cfg: RunConfig, kind: str, u0: Field):
    """An unstarted run of ``kind`` (``classical``, ``cotangent``, ``el``, or
    ``gauge``: EL from ``gauge_twin_initial(u0)``): its result and the
    generator of its sampled states, which fills that result as it runs.

    The step reads the solver functions from this module's globals when it
    is called, where a tracer or a test may wrap them. A run holds u0 only
    in its initial state (EL states start from a copy); callers hand u0 over
    with ``box.pop()``, as CPython moves call arguments into the callee."""
    result = RunResult(cfg, "el" if kind == "gauge" else kind)
    if kind == "classical":
        state = NSState(0.0, u0)
    elif kind == "cotangent":
        state = WState(0.0, u0)
    else:
        state = initial_state(gauge_twin_initial(u0) if kind == "gauge" else u0,
                              potential_mode=cfg.potential_mode)

    def step(state, dt):
        if kind == "classical":
            state = ns_step(state, cfg.forcing, dt, nu=cfg.nu)
            return state, state.u
        if kind == "cotangent":
            state = cotangent_step(state, cfg.forcing, dt, nu=cfg.nu)
            return state, state.w
        state = el_step(state, cfg.forcing, dt, nu=cfg.nu)
        if cfg.reset.enabled and grad_ell_sup(state.ell) > RESET_THRESHOLD:
            state = reset_labels(state)
            result.resets.append(state.t)
        return state, state.v

    return result, _drive(result, state, _plan(cfg, u0), step)


def _oracle_fields(state) -> dict:
    """What a compare reads of an oracle state, and the snapshots of a
    classical or cotangent run: ``u``, and ``w`` of a cotangent state."""
    if isinstance(state, NSState):
        return {"u": state.u}
    if isinstance(state, WState):
        return {"w": state.w, "u": leray_project(state.w)}
    return {"u": reconstruct_u(state.ell, state.v)[0]}


def _velocity_sample(state, nu: float):
    """A sample of a classical or cotangent run: ``record_classical`` of u."""
    fields = _oracle_fields(state)
    return record_classical(NSState(state.t, fields["u"]), nu), fields


def run_classical(cfg: RunConfig, u0: Field, snapdir: Path | None = None) -> RunResult:
    run = _start(cfg, "classical", u0)
    del u0   # held by the initial state alone
    return _run(*run, lambda state: _velocity_sample(state, cfg.nu), snapdir)


def run_cotangent(cfg: RunConfig, u0: Field, snapdir: Path | None = None) -> RunResult:
    run = _start(cfg, "cotangent", u0)
    del u0   # held by the initial state alone
    return _run(*run, lambda state: _velocity_sample(state, cfg.nu), snapdir)


def run_el(cfg: RunConfig, u0: Field, each_sample=None,
           snapdir: Path | None = None) -> RunResult:
    """EL run from u0; ``each_sample(t, fields)`` sees every sample as it
    is made, and the snapshots go to ``snapdir`` (if any) as they are
    taken."""
    def sample(state):
        return el_sample(state, cfg.nu, m_list=cfg.m_list, forcing=cfg.forcing)

    run = _start(cfg, "el", u0)
    del u0   # the initial state holds a copy
    return _run(*run, sample, snapdir, each_sample)


def el_sample(state: ELState, nu: float, *, m_list=(2, 3), forcing=None):
    """One sample of ``run_el``: the diagnostics record of ``state`` and the
    named fields of its snapshots. The state is derived once, and the record
    reads ``u``, ``w``, ``Q``, ``det`` and ``|C|`` of that one derivation."""
    d = derive(state)
    record = record_el(state, d, nu, m_list=m_list, forcing=forcing)
    return record, {
        "ell": state.ell, "v": state.v, "u": d.u, "n": d.n, "w": d.w,
        "det_grad_A": d.det, "C_magnitude": d.C_magnitude}


def gauge_twin_initial(u0: Field) -> Field:
    """u0 plus the gradient of a random scalar with matched L2 gradient norm.

    The scalar is kept well inside the dealias cutoff (band n/8, fast
    spectral decay): the twin-run check certifies gauge invariance of the
    formulation, which at finite resolution only holds up to truncation of
    the gauge field itself.
    """
    grid = u0.grid
    phi = random_scalar(grid, GAUGE_SEED, band=max(2, grid.n // 8), width=2.0)
    dphi = gradient(phi)
    norm = l2_norm(dphi)
    if norm > 0:
        dphi.data *= l2_norm(u0) / norm
    return Field(grid, u0.data + dphi.data)


@dataclass
class CompareReport:
    kind: str
    times: list = field(default_factory=list)
    rel_l2: list = field(default_factory=list)
    rel_linf: list = field(default_factory=list)
    max_rel_l2: float | None = None
    max_rel_linf: float | None = None
    w_rel_l2: list | None = None
    max_w_rel_l2: float | None = None


def _rel(a: Field, b: Field, norm) -> float:
    return norm(Field(a.grid, a.data - b.data)) / max(norm(b), 1e-300)


class Lockstep:
    """An oracle run of ``kind`` (``classical``, ``cotangent`` or ``gauge``,
    the EL twin from ``gauge_twin_initial``) stepped beside a driving run,
    one sampled state at a time.

    Each call with a sample ``(t, fields)`` of the driving run takes the
    oracle's next state, which must be of the same grid and time
    (``ConfigError`` otherwise), reads from it only the fields compared,
    and folds the relative L2 and sup-norm differences of the velocities
    into ``report``, and for a cotangent comparison the relative L2
    difference of the cotangent fields (gauge twins legitimately differ by
    a gradient there). The oracle's ``result`` keeps no records and no
    snapshots. Once the oracle has failed, a call does nothing; the failure
    is in ``result.failure``.
    """

    def __init__(self, cfg: RunConfig, u0: Field, kind: str):
        self.result, self._states = _start(cfg, kind, u0)
        self.report = CompareReport(kind, w_rel_l2=[] if kind == "cotangent" else None)

    def __call__(self, t: float, fields: dict) -> None:
        state, _ = next(self._states, (None, None))
        if state is None:
            if self.result.failure is None:
                raise ConfigError("compare_runs: mismatched sample times")
            return
        oracle = _oracle_fields(state)
        if fields["u"].grid != oracle["u"].grid:
            raise ConfigError("compare_runs: mismatched grids")
        if abs(t - state.t) > 1e-12:
            raise ConfigError("compare_runs: mismatched sample times")
        report = self.report
        report.times.append(t)
        report.rel_l2.append(_rel(fields["u"], oracle["u"], l2_norm))
        report.rel_linf.append(_rel(fields["u"], oracle["u"], sup_norm))
        if report.w_rel_l2 is not None:
            report.w_rel_l2.append(_rel(fields["w"], oracle["w"], l2_norm))

    def finish(self) -> CompareReport:
        """The report of an unbroken pair of runs, whose samples end together."""
        if next(self._states, None) is not None:
            raise ConfigError("compare_runs: mismatched sample times")
        report = self.report
        report.max_rel_l2, report.max_rel_linf = max(report.rel_l2), max(report.rel_linf)
        if report.w_rel_l2 is not None:
            report.max_w_rel_l2 = max(report.w_rel_l2)
        return report


def compare_runs(cfg: RunConfig, u0: Field, kinds: tuple[str, ...] | None = None,
                 snapdir: Path | None = None) -> tuple[RunResult, dict]:
    """EL beside one oracle run per comparison kind (default
    ``cfg.compare_kind``), in lockstep.

    Each EL sample advances every oracle to the same time and is folded
    into that oracle's ``CompareReport`` at once (``Lockstep``), so no run
    keeps a series of fields. A failing oracle stops while EL runs on to
    ``t_end``; a failing EL run stops the oracles. Returns the EL run, whose
    ``failure`` is its own or else the first oracle's, and the reports by
    kind, none if a run failed. The EL run's snapshots go to ``snapdir``
    (if any) as they are taken.
    """
    oracles = {kind: Lockstep(cfg, u0, kind) for kind in kinds or (cfg.compare_kind,)}

    def each_sample(t, fields):
        for oracle in oracles.values():
            oracle(t, fields)

    u0 = [u0]   # handed over: run_el holds the only reference
    result = run_el(cfg, u0.pop(), each_sample=each_sample, snapdir=snapdir)
    for oracle in oracles.values():
        result.failure = result.failure or oracle.result.failure
    if result.failure is not None:
        return result, {}
    return result, {kind: oracle.finish() for kind, oracle in oracles.items()}


# -- bound and identity suites ------------------------------------------------------

def _require_unbroken(cfg: RunConfig) -> None:
    if cfg.reset.enabled:
        raise ConfigError(
            "bound-assertion suites require reset.enabled = false "
            "(the inequalities assume an unbroken run from t0 = 0)")


def _pair_dispersion(cfg: RunConfig, result: RunResult) -> DispersionReport:
    """Pair dispersion of the final displacement of an EL run, with label
    radius delta0 = L/8."""
    grid = cfg.grid.build()
    state: ELState = result.final_state
    return pair_dispersion(state.ell, grid.length / 8.0, cfg.mc.samples,
                           cfg.mc.seed, t=state.t, E0=result.records[0].energy,
                           eps_B=cfg.forcing.eps_bound(cfg.nu, grid.length))


def bounds_suite(cfg: RunConfig, result: RunResult) -> dict:
    """Full bound report on an (unbroken) EL run; returns reports keyed by name."""
    _require_unbroken(cfg)
    grid = cfg.grid.build()
    reports: dict = {}
    reports["k_bounds"] = k_bounds(result.records, cfg.forcing, cfg.nu, grid)
    reports["displacement"] = displacement_bounds(result.records, cfg.forcing,
                                                  cfg.nu, grid)
    reports["epsilon"] = epsilon_bound(result.records, cfg.nu, grid, cfg.forcing)
    reports["v_growth"] = [
        v_growth(result.records, nu=cfg.nu, grid=grid, m=m)
        for m in cfg.m_list
    ]
    reports["dispersion"] = _pair_dispersion(cfg, result)
    return reports


def _observed_order(residuals, dts) -> float:
    logs = np.log(np.asarray(residuals))
    return float(np.polyfit(np.log(np.asarray(dts)), logs, 1)[0])


def identity_suite_with_orders(cfg: RunConfig) -> dict:
    """Identity suite on the configured grid plus dt-convergence orders."""
    grid = cfg.grid.build()
    nu = max(cfg.nu, 0.05)
    reports = run_identity_suite(grid, seed=cfg.identity_seed, nu=nu)
    state = make_test_state(grid, cfg.identity_seed, 0.05)
    gsc = random_scalar(grid, cfg.identity_seed + 2)
    gamma_res, cevo_res = [], []
    for dt in cfg.identity_dts:
        gamma_res.append(check_gamma_commutation(state, gsc, dt, nu=nu).residual)
        cevo_res.append(check_C_evolution(state, dt, nu=nu).residual)
    orders = {
        "gamma_commutation": {"nominal": 2.0,
                              "observed": _observed_order(gamma_res, cfg.identity_dts),
                              "residuals": gamma_res},
        "c_evolution": {"nominal": 1.0,
                        "observed": _observed_order(cevo_res, cfg.identity_dts),
                        "residuals": cevo_res},
    }
    orders_pass = all(abs(o["observed"] - o["nominal"]) <= 0.3 for o in orders.values())
    return {"reports": reports, "orders": orders, "orders_pass": orders_pass}


# -- artifact emission ----------------------------------------------------------------

def _report_dict(report) -> dict:
    """A report dataclass as JSON: its fields, with ``passed`` written ``pass``."""
    return asdict(report, dict_factory=lambda items: {
        ("pass" if key == "passed" else key): value for key, value in items})


def _write_json(path: Path, payload) -> None:
    """Reports anywhere in ``payload`` are serialized by ``_report_dict``."""
    path.write_text(json.dumps(payload, sort_keys=True, indent=2,
                               allow_nan=True, default=_report_dict) + "\n")


def _manifest(outdir: Path, cfg: RunConfig) -> None:
    import hashlib   # loads OpenSSL, which no step needs: imported at the end

    files = {}
    for path in sorted(outdir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            files[str(path.relative_to(outdir))] = digest
    _write_json(outdir / "manifest.json",
                {"config_hash": cfg.config_hash(), "files": files})


def execute(cfg: RunConfig, outdir, command: str = "run") -> int:
    """Run one of ``COMMANDS``; returns the process exit code.

    0 success, 2 solver failure, in a run or in the identity suite's steps
    (partial artifacts emitted), 3 assertion failure in a bound/identity
    suite. An unknown command and configuration errors raise
    ``ConfigError`` for the CLI to map to exit code 1, before any step or
    output directory. ``outdir`` must not exist or be empty, so that the
    manifest lists this command's files alone: else ``FileExistsError``
    (exit code 1) is raised before any step. Every command that runs writes
    ``config.json`` first and ``manifest.json`` last.
    """
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose from {COMMANDS}")
    if command in ("bounds-report", "pair-dispersion"):
        _require_unbroken(cfg)
    if command != "verify-identities":
        u0 = [initial_velocity(cfg)]   # handed over to _solve
        _plan(cfg, u0[0])   # a step count from cfl_target needs u0
    outdir = Path(outdir)
    if outdir.is_dir() and any(outdir.iterdir()):
        raise FileExistsError(f"output directory {outdir} is not empty")
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "config.json", cfg.to_dict())
    if command == "verify-identities":
        code = _verify_identities(cfg, outdir)
    else:
        code = _solve(cfg, outdir, u0, command)
    _manifest(outdir, cfg)
    return code


def _verify_identities(cfg: RunConfig, outdir: Path) -> int:
    try:
        payload = identity_suite_with_orders(cfg)
    except ElflowError as exc:
        _write_json(outdir / "failure.json", _failure(exc, "identities", None))
        return 2
    _write_json(outdir / "report_identities.json", payload)
    ok = all(r.passed for r in payload["reports"]) and payload["orders_pass"]
    return 0 if ok else 3


def _solve(cfg: RunConfig, outdir: Path, u0: list, command: str) -> int:
    """The commands that step a solver: ``run`` steps ``cfg.mode``, the
    others EL (``compare`` beside its oracle), from the u0 handed over in
    the list ``u0``. The snapshots are written while the solver runs, the
    other artifacts after it."""
    mode = {"run": cfg.mode, "compare": "compare"}.get(command, "el")
    snapdir = outdir / "snapshots"
    snapdir.mkdir(exist_ok=True)
    if mode == "compare":
        result, reports = compare_runs(cfg, u0.pop(), snapdir=snapdir)
        if reports:
            _write_json(outdir / "report_compare.json", reports[cfg.compare_kind])
    elif mode == "classical":
        result = run_classical(cfg, u0.pop(), snapdir)
    elif mode == "cotangent":
        result = run_cotangent(cfg, u0.pop(), snapdir)
    else:
        result = run_el(cfg, u0.pop(), snapdir=snapdir)
    write_timeseries_csv(result.records, outdir / "timeseries.csv",
                         m_list=cfg.m_list)
    if result.resets:
        _write_json(outdir / "resets.json", {"times": result.resets})
    if result.failure is not None:
        _write_json(outdir / "failure.json", result.failure)
        return 2
    if command == "bounds-report":
        reports = bounds_suite(cfg, result)
        _write_json(outdir / "report_bounds.json", reports)
        return 0 if (
            asserted_pass(reports["k_bounds"].checks)
            and asserted_pass(reports["displacement"])
            and all(asserted_pass(v.checks) for v in reports["v_growth"])
            and reports["dispersion"].passed
        ) else 3
    if command == "pair-dispersion":
        report = _pair_dispersion(cfg, result)
        _write_json(outdir / "report_dispersion.json", report)
        return 0 if report.passed else 3
    return 0
