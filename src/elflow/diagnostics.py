"""Run diagnostics: energy budget, kinetic-energy bounds, displacement-norm
bounds, pair dispersion and virtual-velocity growth.

Every *asserted* inequality here is a theorem for exact solutions; at desk
resolution a violation beyond discretization/Monte-Carlo tolerance is a
genuine failure. Inequalities whose statements contain generic (unspecified)
constants are monitored as ratios with the constants set to 1 and never
asserted. In 2D only the energy-balance class and the dimension-free sup/L2
displacement bounds are asserted; the remaining inequalities rely on 3D
embeddings and are reported only.

Quadratures are spectral (box means times volume, exact for trigonometric
polynomials); time averages use the trapezoid rule on the recorded cadence.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .classical import NSState
from .el import ELDerived, ELState
from .errors import FieldCompatibilityError
from .fields import Field, _label, inner, l2_norm, lp_norm, sup_norm
from .forcing import ForcingSpec
from .grid import Grid
from .spectral import curl, gradient, laplacian

__all__ = [
    "TimeSeriesRecord", "BoundCheck", "KBoundsReport", "DispersionReport",
    "VGrowthReport", "EpsilonBoundReport", "asserted_pass",
    "record_classical", "record_el", "write_timeseries_csv",
    "k_bounds", "k_infty", "displacement_bounds", "epsilon_bound",
    "pair_dispersion", "v_growth", "helicity",
]

# Relative slack granted to asserted inequalities for floating-point and
# cadence-discretization noise; bound margins are orders of magnitude larger.
ASSERT_SLACK = 1e-9

# Generic constants of the bounds, set to 1: C_K multiplies the sup-norm
# time-integral bound K_inf, C0 is the embedding constant of the v-growth
# smallness condition. Reports record the value used.
C_K = 1.0
C0 = 1.0

# Pairs per block of the pair-dispersion estimate. Only the drawn indices and
# one value per pair span every sample; the separations are formed one
# block at a time, so the estimate holds 24 bytes per pair plus one block.
PAIR_BLOCK = 1 << 13


@dataclass
class TimeSeriesRecord:
    """One diagnostics row; EL-specific entries are None for classical runs.

    Volume averages use V = L^dim. ``ell_l2`` etc. are V^-1 int |.|^2 dx;
    ``c_l3`` is the unnormalized int |C|^3 dx; ``v_norms[m]`` holds the
    L^{2m} norm of v and ``g_norms[m]`` that of the transformed force.
    """

    t: float
    energy: float
    dissipation: float
    u_inf: float
    v_inf: float | None = None
    ell_inf: float | None = None
    ell_l2: float | None = None
    grad_ell_l2: float | None = None
    lap_ell_l2: float | None = None
    grad_lap_ell_l2: float | None = None
    grad_ell_inf: float | None = None
    c_l3: float | None = None
    helicity: float | None = None
    det_min: float | None = None
    det_max: float | None = None
    reset_count: int = 0
    v_norms: dict[int, float] | None = None
    g_norms: dict[int, float] | None = None


def record_classical(state: NSState, nu: float) -> TimeSeriesRecord:
    u = state.u
    volume = u.grid.volume
    grad_u = gradient(u)
    return TimeSeriesRecord(
        t=state.t,
        energy=0.5 * l2_norm(u) ** 2 / volume,
        dissipation=nu * l2_norm(grad_u) ** 2 / volume,
        u_inf=sup_norm(u),
    )


def record_el(state: ELState, derived: ELDerived, nu: float, *, m_list=(2, 3),
              forcing: ForcingSpec | None = None) -> TimeSeriesRecord:
    """One time-series row of an EL state and its ``derive``: ``c_l3`` is
    taken from ``derived.C_magnitude``. Each derivative field is released as
    soon as its norms are taken."""
    grid = state.ell.grid
    volume = grid.volume
    dissipation = nu * l2_norm(gradient(derived.u)) ** 2 / volume
    grad_ell = gradient(state.ell)
    grad_ell_l2 = l2_norm(grad_ell) ** 2 / volume
    grad_ell_inf = sup_norm(grad_ell)
    del grad_ell
    lap_ell = laplacian(state.ell)
    lap_ell_l2 = l2_norm(lap_ell) ** 2 / volume
    grad_lap_ell_l2 = l2_norm(gradient(lap_ell)) ** 2 / volume
    del lap_ell
    v_norms = {m: lp_norm(state.v, 2 * m) for m in m_list}
    g_norms = None
    if forcing is not None and not forcing.is_zero:
        f = forcing.field(grid)
        g = Field(grid, _label(derived.Q.data, f.data))
        g_norms = {m: lp_norm(g, 2 * m) for m in m_list}
    return TimeSeriesRecord(
        t=state.t,
        energy=0.5 * l2_norm(derived.u) ** 2 / volume,
        dissipation=dissipation,
        u_inf=sup_norm(derived.u),
        v_inf=sup_norm(state.v),
        ell_inf=sup_norm(state.ell),
        ell_l2=l2_norm(state.ell) ** 2 / volume,
        grad_ell_l2=grad_ell_l2,
        lap_ell_l2=lap_ell_l2,
        grad_lap_ell_l2=grad_lap_ell_l2,
        grad_ell_inf=grad_ell_inf,
        c_l3=float(np.mean(derived.C_magnitude.data**3) * volume),
        v_norms=v_norms,
        g_norms=g_norms,
        helicity=helicity(derived.w, derived.u),
        det_min=float(np.min(derived.det.data)),
        det_max=float(np.max(derived.det.data)),
        reset_count=state.reset_count,
    )


# One column per record field; the norm dictionaries (the last two fields)
# expand to v_l{2m}/g_l{2m} columns instead.
CSV_COLUMNS = [f.name for f in fields(TimeSeriesRecord)
               if f.name not in ("v_norms", "g_norms")]


def write_timeseries_csv(records, path, m_list=()) -> None:
    """One row per record; norm dictionaries expand to v_l{2m}/g_l{2m} columns."""
    columns = list(CSV_COLUMNS)
    for m in m_list:
        columns.append(f"v_l{2*m}")
    for m in m_list:
        columns.append(f"g_l{2*m}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for rec in records:
            row = []
            for col in CSV_COLUMNS:
                val = getattr(rec, col)
                row.append("" if val is None else repr(val))
            for m in m_list:
                row.append("" if rec.v_norms is None else repr(rec.v_norms[m]))
            for m in m_list:
                row.append("" if rec.g_norms is None else repr(rec.g_norms[m]))
            writer.writerow(row)


# -- bound bookkeeping ----------------------------------------------------------

@dataclass
class BoundCheck:
    name: str
    lhs: float
    rhs: float
    margin: float           # rhs/lhs (inf when lhs == 0)
    asserted: bool
    passed: bool | None     # None when not asserted
    note: str = ""


def _check(name, lhs, rhs, asserted, note="") -> BoundCheck:
    lhs, rhs = float(lhs), float(rhs)
    margin = math.inf if lhs <= 0 else rhs / lhs
    passed = None
    if asserted:
        passed = lhs <= rhs * (1.0 + ASSERT_SLACK) + 1e-14
    return BoundCheck(name, lhs, rhs, margin, asserted, passed, note)


def _worst(checks) -> BoundCheck:
    """The check of least margin (the first one on ties)."""
    return min(checks, key=lambda c: c.margin)


def asserted_pass(checks) -> bool:
    """True when every asserted check holds (reported-only checks are ignored)."""
    return all(c.passed for c in checks if c.asserted)


def _times(records) -> np.ndarray:
    return np.array([r.t for r in records])


def _cumtrapz(values, times) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    out = np.zeros_like(values)
    if len(values) > 1:
        seg = 0.5 * (values[1:] + values[:-1]) * np.diff(times)
        out[1:] = np.cumsum(seg)
    return out


# -- kinetic-energy bounds --------------------------------------------------------

@dataclass
class KBoundsReport:
    t0: float
    t: float
    k0: float
    k1: float
    K0: float
    F2: float
    G2: float
    Lf2: float
    eps_B: float
    B: float
    r: tuple
    K_inf: float
    C_K: float
    checks: list[BoundCheck] = field(default_factory=list)


def _k0_k1(u0_sq, span, F2, G2, volume, nu):
    """k0 doubles the initial energy integral plus a time-squared force term;
    k1 trades the force for its inverse-half-laplacian norm over nu."""
    k0 = 2.0 * u0_sq + 3.0 * span * (F2 * volume * span)
    k1 = u0_sq + (G2 * volume * span) / nu if nu > 0 else math.inf
    return k0, k1


def k_bounds(records, forcing: ForcingSpec, nu: float, grid: Grid) -> KBoundsReport:
    """Energy-balance bounds over the recorded interval [t0, t].

    The balance asserts energy-plus-dissipation stays below K0 = min(k0, k1)
    (see ``_k0_k1``), and the volume-averaged forms below
    B = 4 E(t0) + (t - t0) eps_B.
    """
    if len(records) < 2:
        raise FieldCompatibilityError("k_bounds needs at least two records")
    times = _times(records)
    t0, t = float(times[0]), float(times[-1])
    volume = grid.volume
    F2 = forcing.mean_square()
    G2 = forcing.g_square(grid.length)
    Lf2 = forcing.length_scale_sq(grid.length)
    eps_B = forcing.eps_bound(nu, grid.length)

    e0 = records[0].energy
    u0_sq = 2.0 * e0 * volume                      # int |u(t0)|^2 dx
    span = t - t0
    k0_val, k1_val = _k0_k1(u0_sq, span, F2, G2, volume, nu)
    K0 = min(k0_val, k1_val)
    B = 4.0 * e0 + span * eps_B

    eps = [r.dissipation for r in records]
    eps_int = _cumtrapz(eps, times)                # int_t0^t eps ds
    checks = []

    # energy balance: int|u(t)|^2 + nu int int |grad u|^2 <= K0
    lhs_en = 2.0 * records[-1].energy * volume + eps_int[-1] * volume
    checks.append(_check("energy_balance(en)", lhs_en, K0, True))

    # per-record volume-averaged forms
    epsb, energyb = [], []
    for idx in range(1, len(records)):
        span_i = times[idx] - t0
        mean_eps = eps_int[idx] / span_i if span_i > 0 else 0.0
        lhs = 2.0 * records[idx].energy + span_i * mean_eps
        rhs = 4.0 * e0 + span_i * min(
            G2 / nu if nu > 0 else math.inf, 3.0 * span_i * F2)
        epsb.append(_check("dissipation_budget(epsbound)", lhs, rhs, True,
                           note=f"t={times[idx]:.6g}"))
        lhs_b = records[idx].energy + span_i * mean_eps
        rhs_b = 4.0 * e0 + span_i * eps_B
        energyb.append(_check("energy_budget(energyb)", lhs_b, rhs_b, True,
                              note=f"t={times[idx]:.6g}"))
    checks.extend([_worst(epsb), _worst(energyb)])

    r, K_inf = k_infty(K0, nu, t0, t, forcing, grid)
    return KBoundsReport(t0=t0, t=t, k0=k0_val, k1=k1_val, K0=K0, F2=F2, G2=G2,
                         Lf2=Lf2, eps_B=eps_B, B=B, r=r, K_inf=K_inf, C_K=C_K,
                         checks=checks)


def k_infty(K0: float, nu: float, t0: float, t: float, forcing: ForcingSpec,
            grid: Grid):
    """Six length scales and the sup-norm time-integral bound K_inf.

    The free scale gamma is fixed by gamma^4 = nu^3/(t - t0), which makes
    r1 = r2 = r3 = r5; K_inf = C_K (r0 + r4 + r5) with C_K reported, not
    asserted.
    """
    if t <= t0:
        raise FieldCompatibilityError("k_infty requires t > t0")
    span = t - t0
    f_l2_int = forcing.mean_square() * grid.volume * span  # int ||f||_L2^2 ds
    r0 = K0 / nu**2 if nu > 0 else math.inf
    gamma = (nu**3 / span) ** 0.25
    r1 = nu**2 / gamma**2 if gamma > 0 else math.inf
    r2 = span * gamma**2 / nu if nu > 0 else math.inf
    r3 = (gamma * span) ** (2.0 / 3.0)
    r4 = span / nu**2 * f_l2_int if nu > 0 else (0.0 if f_l2_int == 0 else math.inf)
    r5 = math.sqrt(nu * span)
    return (r0, r1, r2, r3, r4, r5), C_K * (r0 + r4 + r5)


# -- displacement bounds -----------------------------------------------------------

def _el_preconditions(records) -> str | None:
    if any(r.ell_inf is None for r in records):
        return "history lacks displacement diagnostics"
    if abs(records[0].t) > 1e-12:
        return f"history starts at t={records[0].t:g}, bounds need t0 = 0"
    if any(r.reset_count > 0 for r in records):
        return "a label reset occurred; bounds assume an unbroken run"
    return None


def displacement_bounds(records, forcing: ForcingSpec, nu: float,
                        grid: Grid) -> list[BoundCheck]:
    """Displacement-norm inequalities along an unbroken run from t0 = 0.

    Explicit-constant bounds (sup, L2, time-integrated gradient) are
    asserted; the mixed gradient/laplacian bound carries a generic constant
    and is only monitored, with the constant set to 1. If a reset occurred
    the function refuses to assert and reports only.
    """
    problem = _el_preconditions(records)
    assertable = problem is None
    dim3 = grid.dim == 3
    times = _times(records)
    volume = grid.volume
    e0 = records[0].energy
    eps_B = forcing.eps_bound(nu, grid.length)
    F2 = forcing.mean_square()
    G2 = forcing.g_square(grid.length)
    u0_sq = 2.0 * e0 * volume

    u_inf_int = _cumtrapz([r.u_inf for r in records], times)
    grad_int = _cumtrapz([r.grad_ell_l2 for r in records], times)
    lap_int = _cumtrapz([r.lap_ell_l2 for r in records], times)

    series = {}

    def track(name, lhs, rhs, asserted, t_at):
        series.setdefault(name, []).append(
            _check(name, lhs, rhs, asserted and assertable, note=f"t={t_at:.6g}"))

    for idx in range(1, len(records)):
        tt = times[idx]
        rec = records[idx]
        bt = 4.0 * e0 + tt * eps_B
        K0_t = min(_k0_k1(u0_sq, tt, F2, G2, volume, nu))
        track("sup_displacement(maxdel)", rec.ell_inf, u_inf_int[idx], True, tt)
        track("l2_displacement(elltwo)",
              math.sqrt(rec.ell_l2 * volume), tt * math.sqrt(K0_t), True, tt)
        track("l2_displacement_volavg(ltwo)", rec.ell_l2, bt * tt**2, dim3, tt)
        if nu > 0:
            track("gradient_time_integral(nablaeltwo)",
                  grad_int[idx] / tt, bt * tt / (2.0 * nu), dim3, tt)
            r, k_inf = k_infty(K0_t, nu, 0.0, tt, forcing, grid)
            lhs = rec.grad_ell_l2 + nu * lap_int[idx]
            rhs = bt * tt / nu + k_inf**2 * bt / nu**2
            track("grad_and_laplacian(deltaltwo)", lhs, rhs, False, tt)

    checks = [_worst(cs) for cs in series.values()]
    if problem is not None:
        for c in checks:
            c.note = (c.note + "; " if c.note else "") + f"not asserted: {problem}"
    return checks


@dataclass
class EpsilonBoundReport:
    """Conditional second-derivative bound, generic constants set to 1."""

    exponent: float                  # (L^6/nu^5) int eps^2 ds at final time
    series: list[dict] = field(default_factory=list)
    grad_lap_time_integral: float = 0.0
    note: str = ""


def epsilon_bound(records, nu: float, grid: Grid,
                  forcing: ForcingSpec) -> EpsilonBoundReport:
    """Ratio of V^-1 int |lap ell|^2 to (B/nu^2) exp((L^6/nu^5) int eps^2 ds)."""
    problem = _el_preconditions(records)
    times = _times(records)
    e0 = records[0].energy
    eps_B = forcing.eps_bound(nu, grid.length)
    eps_sq_int = _cumtrapz([r.dissipation**2 for r in records], times)
    grad_lap_int = _cumtrapz([r.grad_lap_ell_l2 for r in records], times)
    coeff = grid.length**6 / nu**5 if nu > 0 else math.inf
    series = []
    for idx in range(1, len(records)):
        tt = times[idx]
        if nu > 0:
            bt = 4.0 * e0 + tt * eps_B
            exponent = coeff * eps_sq_int[idx]
            # The exponential is typically astronomically lax; track the
            # ratio in log space so resolution comparisons stay meaningful.
            # B(t) = 0 only for a flow at rest without forcing
            log_b = math.log(bt / nu**2) if bt > 0 else -math.inf
            log_rhs = log_b + exponent
            rhs = math.exp(min(log_rhs, 700.0))
        else:   # vacuous at nu = 0: the exponent and the right side are infinite
            exponent = log_rhs = rhs = math.inf
        lhs = records[idx].lap_ell_l2
        log_ratio = math.log(lhs) - log_rhs if lhs > 0 else -math.inf
        ratio = 0.0 if lhs == 0 else lhs / rhs if rhs > 0 else math.inf
        series.append({"t": tt, "lhs": lhs, "rhs": rhs, "ratio": ratio,
                       "log_ratio": log_ratio,
                       "exponent": exponent})
    note = problem or "generic constants set to 1; reported, never asserted"
    return EpsilonBoundReport(
        exponent=coeff * eps_sq_int[-1] if nu > 0 else math.inf,
        series=series,
        grad_lap_time_integral=nu * grad_lap_int[-1],
        note=note if nu > 0 else f"vacuous: the bound needs nu > 0; {note}",
    )


# -- pair dispersion ----------------------------------------------------------------

@dataclass
class DispersionReport:
    delta0: float
    samples: int
    mean_square_separation: float
    standard_error: float
    bound: float
    passed: bool
    t: float
    note: str = ""


def pair_dispersion(ell: Field, delta0: float, samples: int, seed: int, *,
                    t: float, E0: float, eps_B: float) -> DispersionReport:
    """Monte-Carlo estimate of the restricted mean-square pair separation.

    Uniform point pairs; both the label distance |A(x) - A(y)| and the
    current separation |x - y| use periodic minimal images. The bound
    3 delta0^2 + 24 E0 t^2 + 6 eps_B t^3 is asserted within three standard
    errors. (The displayed t-coefficient of the source theorem is treated as
    a typo; the implemented bound is re-derived from the displacement L2
    bound and the triangle inequality.)
    """
    grid = ell.grid
    rng = np.random.default_rng(seed)
    length = grid.length
    flat_ell = ell.data.reshape(grid.dim, -1)
    n_points = flat_ell.shape[1]
    ix = rng.integers(0, n_points, size=samples)
    iy = rng.integers(0, n_points, size=samples)
    x = grid.axis_points()

    values = np.empty(samples)
    for start in range(0, samples, PAIR_BLOCK):
        bx = ix[start:start + PAIR_BLOCK]
        by = iy[start:start + PAIR_BLOCK]
        dx = (x[np.stack(np.unravel_index(bx, grid.shape))]
              - x[np.stack(np.unravel_index(by, grid.shape))])
        dx -= length * np.round(dx / length)
        da = dx + flat_ell[:, bx] - flat_ell[:, by]
        da -= length * np.round(da / length)
        sep_sq = np.sum(dx**2, axis=0)
        inside = np.sum(da**2, axis=0) <= delta0**2
        values[start:start + PAIR_BLOCK] = sep_sq * inside
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(samples))
    bound = 3.0 * delta0**2 + 24.0 * E0 * t**2 + 6.0 * eps_B * t**3
    note = "t^3 coefficient re-derived (displayed form treated as typo)"
    if samples < 10_000:
        note += "; WARNING: fewer than 1e4 samples, high variance"
    return DispersionReport(
        delta0=delta0, samples=samples, mean_square_separation=mean,
        standard_error=se, bound=bound,
        passed=mean <= bound + 3.0 * se, t=t, note=note,
    )


# -- virtual-velocity growth ----------------------------------------------------------

@dataclass
class VGrowthReport:
    m: int
    C0: float
    threshold: float
    condition_holds_until: float
    checks: list[BoundCheck] = field(default_factory=list)
    note: str = ""


def v_growth(records, *, nu: float, grid: Grid, m: int) -> VGrowthReport:
    """Exponential-plus-force bound on the L^{2m} norm of v under C-smallness.

    While (int |C|^3)^{1/3} stays below sqrt(2(m-1)/(C0 m^2)), asserts
    ||v(t)||_{2m} <= ||v0||_{2m} exp(nu (m-1) t / (2 m^2 L^2)) +
    int_0^t ||g||_{2m} ds, with the generic embedding constant ``C0``.
    """
    if m < 2:
        raise FieldCompatibilityError("v_growth requires integer m >= 2")
    if any(r.v_norms is None or m not in r.v_norms for r in records):
        raise FieldCompatibilityError(f"history lacks ||v||_{2*m} records")
    threshold = math.sqrt(2.0 * (m - 1) / (C0 * m * m))
    times = _times(records)
    tau = times[-1]
    for rec in records:
        if rec.c_l3 ** (1.0 / 3.0) > threshold:
            tau = rec.t
            break
    dim3 = grid.dim == 3
    v0 = records[0].v_norms[m]
    g_series = [0.0 if r.g_norms is None else r.g_norms[m] for r in records]
    g_int = _cumtrapz(g_series, times)
    length = grid.length
    series = []
    for idx in range(1, len(records)):
        tt = times[idx]
        if tt > tau:
            break
        rhs = v0 * math.exp(nu * (m - 1) * tt / (2.0 * m * m * length**2)) + g_int[idx]
        series.append(_check(f"v_growth(vbound,m={m})", records[idx].v_norms[m], rhs,
                             dim3, note=f"t={tt:.6g}"))
    checks = [_worst(series)] if series else []
    return VGrowthReport(m=m, C0=C0, threshold=threshold,
                         condition_holds_until=float(tau), checks=checks,
                         note="asserted only in 3D" if not dim3 else "")


def helicity(w: Field, u: Field):
    """int w . curl(u) dx in 3D; None in 2D (no vector vorticity)."""
    if u.grid.dim != 3:
        return None
    return inner(w, curl(u))
