"""Span tracer for elflow, installed from outside the program.

``Tracer.install`` wraps the public functions listed in ``TRACED`` in every
``elflow`` module namespace that holds them: ``from .spectral import
to_spectral`` binds a copy of the reference, so patching the defining module
alone would miss most calls.  Each call records one span ``[name, start,
end, parent, scalars, bytes]``; ``scalars`` and ``bytes`` are filled for
FFTs only.  Spans stay in memory until the traced command ends.

``layer_metrics`` and ``module_self_times`` turn a list of spans into the
per-layer metrics and the per-module self-time table.
"""
from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

TRACED = {
    "spectral": ("to_spectral", "to_physical"),
    "el": ("el_step", "cotangent_step", "derive", "reconstruct_u",
           "grad_ell_sup", "reset_labels"),
    "classical": ("ns_step",),
    "diagnostics": ("record_el", "record_classical", "k_bounds",
                    "displacement_bounds", "epsilon_bound", "v_growth",
                    "pair_dispersion", "write_timeseries_csv"),
    "identities": ("run_identity_suite", "check_gamma_commutation",
                   "check_C_evolution"),
    "initial": ("make_initial",),
    "snapshots": ("write_snapshot",),
    "runner": ("execute", "run_el", "run_classical", "run_cotangent",
               "compare_runs", "bounds_suite", "identity_suite_with_orders"),
}
FFT = frozenset({"spectral.to_spectral", "spectral.to_physical"})
ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._patched: list[tuple] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        fft = name in FFT

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], 0, 0]
            if fft:
                rec[4], rec[5] = _fft_size(*args)
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every loaded ``elflow`` module; ``uninstall`` undoes it."""
        wrappers = {}
        for short, names in TRACED.items():
            module = sys.modules[f"elflow.{short}"]
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self.wrap(f"{short}.{fname}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "elflow" and not modname.startswith("elflow."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()


def _fft_size(grid, array, *_args, **_kwargs) -> tuple[int, int]:
    """Scalar transforms in one call and the bytes they read and write.

    The count is the product of the leading (component) axes; bytes are
    computed from array sizes (real n^dim doubles in, n^(dim-1)(n/2+1)
    complex doubles out, or the reverse), not measured.
    """
    lead = math.prod(array.shape[:array.ndim - grid.dim])
    real = grid.n ** grid.dim
    half = grid.n ** (grid.dim - 1) * (grid.n // 2 + 1)
    return lead, lead * (8 * real + 16 * half)


# -- analysis -----------------------------------------------------------------

class _Spans:
    def __init__(self, spans):
        self.name = [s[0] for s in spans]
        self.parent = [s[3] for s in spans]
        self.dur = [s[2] - s[1] for s in spans]
        self.scalars = [s[4] for s in spans]
        self.nbytes = [s[5] for s in spans]
        self.by_name = defaultdict(list)
        for i, nm in enumerate(self.name):
            self.by_name[nm].append(i)
        self.fft = [i for i, nm in enumerate(self.name) if nm in FFT]

    def nearest(self, i: int, targets) -> int:
        """Index of the closest enclosing span named in ``targets``, or -1."""
        p = self.parent[i]
        while p >= 0 and self.name[p] not in targets:
            p = self.parent[p]
        return p

    def parent_is(self, i: int, name: str) -> bool:
        p = self.parent[i]
        return p >= 0 and self.name[p] == name

    def total(self, idx) -> float:
        return sum(self.dur[i] for i in idx)


def concat(span_lists) -> list[list]:
    """Join the spans of several commands, re-pointing parent indices."""
    out: list[list] = []
    for spans in span_lists:
        base = len(out)
        out.extend([s[0], s[1], s[2], s[3] + base if s[3] >= 0 else -1, s[4], s[5]]
                   for s in spans)
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    values = sorted(values)
    if not values:
        return 0.0
    pos = q * (len(values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def high_percentile(count: int, wanted: float = 0.9) -> float:
    """``wanted``, or the highest percentile that leaves >= 10 samples beyond it
    (never below the median)."""
    if count <= 0:
        return wanted
    return max(0.5, min(wanted, 1.0 - 10.0 / count))


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one or more traced commands (see perfbench/README.md)."""
    s = _Spans(spans)
    commands = max(1, len(s.by_name[ROOT]))
    ms = 1e3

    el_steps = s.by_name["el.el_step"]
    ns_steps = s.by_name["classical.ns_step"]
    cot_steps = s.by_name["el.cotangent_step"]
    sample_ops = {"el.derive", "diagnostics.record_el"}
    sample_spans = [i for nm in sample_ops for i in s.by_name[nm]
                    if s.parent_is(i, "runner.run_el")]
    samples = sum(1 for i in s.by_name["diagnostics.record_el"]
                  if s.parent_is(i, "runner.run_el"))

    def fft_under(name):
        return [i for i in s.fft if s.nearest(i, {name}) >= 0]

    el_ffts = fft_under("el.el_step")
    sample_ffts = [i for i in s.fft
                   if (o := s.nearest(i, sample_ops)) >= 0 and s.parent_is(o, "runner.run_el")]
    identity_ffts = fft_under("runner.identity_suite_with_orders")

    def per(total, count):
        return total / count if count else 0.0

    # el_step self time: exclude the topmost FFT and reconstruct_u spans below it.
    excluded = 0.0
    for i in s.fft + s.by_name["el.reconstruct_u"]:
        owner = s.nearest(i, {"el.el_step", "el.reconstruct_u"})
        if owner >= 0 and s.name[owner] == "el.el_step":
            excluded += s.dur[i]
    static_n = [i for i in s.by_name["el.reconstruct_u"]
                if s.nearest(i, {"el.el_step"}) >= 0]
    monitor = [i for i in s.by_name["el.grad_ell_sup"] if s.parent_is(i, "runner.run_el")]
    resets = [i for i in s.by_name["el.reset_labels"] if s.parent_is(i, "runner.run_el")]

    el_durs = [s.dur[i] for i in el_steps]
    el_p50 = percentile(el_durs, 0.5)
    ns_p50 = percentile([s.dur[i] for i in ns_steps], 0.5)

    suites = {"runner.run_el", "runner.run_classical", "runner.run_cotangent",
              "runner.compare_runs", "runner.bounds_suite",
              "runner.identity_suite_with_orders"}
    emit = s.total(s.by_name["runner.execute"])
    for nm in suites:
        emit -= s.total(i for i in s.by_name[nm] if s.parent_is(i, "runner.execute"))

    root_time = s.total(s.by_name[ROOT])
    orders = [i for nm in ("identities.check_gamma_commutation", "identities.check_C_evolution")
              for i in s.by_name[nm] if s.nearest(i, {"identities.run_identity_suite"}) < 0]

    return {
        "spectral.ffts_per_el_step": per(sum(s.scalars[i] for i in el_ffts), len(el_steps)),
        "spectral.ffts_per_ns_step": per(sum(s.scalars[i] for i in fft_under("classical.ns_step")),
                                         len(ns_steps)),
        "spectral.ffts_per_cotangent_step": per(
            sum(s.scalars[i] for i in fft_under("el.cotangent_step")), len(cot_steps)),
        "spectral.ffts_per_sample": per(sum(s.scalars[i] for i in sample_ffts), samples),
        "spectral.fft_ms_per_el_step": per(s.total(el_ffts) * ms, len(el_steps)),
        "spectral.fft_share": per(s.total(s.fft), root_time),
        "spectral.fft_mb_per_el_step": per(sum(s.nbytes[i] for i in el_ffts) / 1e6,
                                           len(el_steps)),
        "el.step_ms_p50": el_p50 * ms,
        "el.step_ms_p90": percentile(el_durs, high_percentile(len(el_durs))) * ms,
        "el.step_self_ms": per((s.total(el_steps) - excluded) * ms, len(el_steps)),
        "el.static_n_ms_per_step": per(s.total(static_n) * ms, len(el_steps)),
        "el.reset_monitor_ms_per_step": per(s.total(monitor) * ms, len(el_steps)),
        "el.resets": len(resets) / commands,
        "el.reset_ms": s.total(resets) * ms / commands,
        "el.cotangent_step_ms": percentile([s.dur[i] for i in cot_steps], 0.5) * ms,
        "classical.step_ms": ns_p50 * ms,
        "el.step_over_ns_step": el_p50 / ns_p50 if el_steps and ns_steps else 0.0,
        "diagnostics.sample_ms": per(s.total(sample_spans) * ms, samples),
        "diagnostics.record_classical_ms": per(
            s.total(s.by_name["diagnostics.record_classical"]) * ms,
            len(s.by_name["diagnostics.record_classical"])),
        "diagnostics.bounds_s": sum(
            s.total(s.by_name[f"diagnostics.{nm}"])
            for nm in ("k_bounds", "displacement_bounds", "epsilon_bound", "v_growth")
        ) / commands,
        "diagnostics.pair_dispersion_s": s.total(s.by_name["diagnostics.pair_dispersion"]) / commands,
        "identities.suite_s": s.total(
            i for i in s.by_name["identities.run_identity_suite"]
            if s.parent_is(i, "runner.identity_suite_with_orders")) / commands,
        "identities.orders_s": s.total(orders) / commands,
        "identities.ffts": sum(s.scalars[i] for i in identity_ffts) / commands,
        "runner.emit_s": emit / commands,
        "setup.make_initial_ms": s.total(s.by_name["initial.make_initial"]) * ms / commands,
    }


def module_self_times(spans) -> dict[str, float]:
    """Self time per elflow module, summed over spans, in seconds.

    A span's self time is its duration minus that of its direct children;
    code that is not traced counts toward the closest traced caller.
    """
    s = _Spans(spans)
    child = [0.0] * len(s.dur)
    for i, p in enumerate(s.parent):
        if p >= 0:
            child[p] += s.dur[i]
    out: dict[str, float] = defaultdict(float)
    for i, nm in enumerate(s.name):
        out[nm.split(".", 1)[0]] += s.dur[i] - child[i]
    return dict(out)
