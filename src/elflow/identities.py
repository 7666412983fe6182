"""Numerical certification of the operator identities behind the formulation.

Each check evaluates both sides of one identity on arbitrary smooth periodic
fields and reports a normalized maximum pointwise residual. Purely algebraic
identities are exact at collocation points up to spectral truncation of
derivative evaluations; identities involving the advection-diffusion
operator G are certified semi-discretely, with the time derivative realized
by integrator steps (centered differencing where second order is needed).

The test-field corpus is seeded and band limited to n//4 with a decaying
spectrum; displacement amplitudes are scaled to prescribed sup |grad ell|
values so the deformation stays well inside the invertibility region while
still exercising the nonlinearity.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .el import (
    ELState, compute_C, compute_Q, el_step_with_passive, grad_ell_sup,
    DEFAULT_DET_FLOOR, initial_state, reconstruct_u, _chain, _commutator,
    _deformation, _project,
)
from .fields import Field, _advection, _label, l2_norm, sup_norm, integral
from .forcing import ForcingSpec
from .grid import Grid
from .initial import random_bandlimited, random_scalar
from .spectral import (
    deriv_hat, gradient, hessian, lap_hat, laplacian,
    second_derivs, to_physical, to_spectral,
)

__all__ = [
    "IdentityReport", "TOLERANCES", "random_displacement", "make_test_state",
    "check_el_derivative_roundtrip", "check_commutator", "check_product_rule",
    "check_braces", "check_adjoint", "check_gamma_commutation",
    "check_C_evolution", "run_identity_suite",
]

TOLERANCES = {
    "el_derivative_roundtrip": 1e-9,
    "commutator": 1e-8,
    "product_rule": 1e-9,
    "braces": 1e-10,
    "adjoint": 1e-9,
}

# Residuals of the time-differenced identities scale with the differencing
# error; these prefactors multiply dt**order to give the tolerance.
GAMMA_COMMUTATION_COEFF = 50.0   # O(dt^2), centered differencing
C_EVOLUTION_COEFF = 20.0         # O(dt), forward differencing

_TINY = 1e-300

# Determinant floor of the identity checks, looser than the solver's default.
CORPUS_DET_FLOOR = 0.05

# The G-identities are certified on unforced steps.
_NO_FORCING = ForcingSpec()


@dataclass
class IdentityReport:
    identity: str
    residual: float
    tolerance: float
    passed: bool
    scales: dict = field(default_factory=dict)
    note: str = ""


def _report(name, residual, tolerance, scales, note="") -> IdentityReport:
    residual = float(residual)
    return IdentityReport(name, residual, float(tolerance),
                          residual < tolerance, scales, note)


# -- corpus --------------------------------------------------------------------

CORPUS_SPECTRAL_WIDTH = 2.0  # fast decay keeps Q's spectrum inside the band


def random_displacement(grid: Grid, seed: int, grad_inf: float,
                        band: int | None = None) -> Field:
    """Band-limited displacement scaled to sup-Frobenius |grad ell| = grad_inf."""
    rng_seeds = np.random.default_rng(seed).integers(0, 2**31, size=grid.dim)
    comps = np.stack([
        random_scalar(grid, int(s), band=band, width=CORPUS_SPECTRAL_WIDTH).data
        for s in rng_seeds
    ])
    ell = Field(grid, comps)
    peak = grad_ell_sup(ell)
    if peak > 0:
        ell.data *= grad_inf / peak
    return ell


def make_test_state(grid: Grid, seed: int, grad_inf: float) -> ELState:
    """A valid state with corpus displacement and a random virtual velocity."""
    ell = random_displacement(grid, seed, grad_inf)
    v = random_bandlimited(grid, seed + 1000, amplitude=1.0)
    state = initial_state(v)
    state.ell = ell
    _, state.n_pot = reconstruct_u(ell, v)
    return state


def _to_grad_A(gl: np.ndarray) -> np.ndarray:
    """grad A = I + grad ell, made in place of ``gl`` with the additions of
    ``_deformation``'s diagonal."""
    for i in range(len(gl)):
        gl[i, i] += 1.0
    return gl


def _commutator_of(state: ELState):
    """(C, u, grad ell) of ``state``, by ``derive``'s ``_chain`` but with C
    whole: the bits of ``derive``'s fields and of ``compute_C``, from
    ``derive``'s transforms."""
    lhat, gl, q, det, w = _chain(state)
    del det
    c = _commutator(state.ell.grid, q, lhat)
    del q, lhat
    return c, _project(w)[0], gl


# -- algebraic identities --------------------------------------------------------

def check_el_derivative_roundtrip(g: Field, ell: Field) -> IdentityReport:
    """Eulerian derivatives recombine from label derivatives:
    d_i g = (d_i A_m)(label grad g)_m."""
    gl = gradient(ell).data
    q = _deformation(gl, CORPUS_DET_FLOOR)[0]
    gA = _to_grad_A(gl)
    grad_g = gradient(g).data
    lag = _label(q, grad_g)
    rhs = _label(gA, lag)
    scale = max(float(np.max(np.abs(grad_g))), _TINY)
    residual = np.max(np.abs(grad_g - rhs)) / scale
    return _report("el_derivative_roundtrip", residual,
                   TOLERANCES["el_derivative_roundtrip"], {"grad_g_inf": scale})


def check_commutator(g: Field, ell: Field) -> IdentityReport:
    """[label_i, d_k] g = C[m, k; i] (label grad g)_m, for all (i, k)."""
    grid = g.grid
    Q = compute_Q(ell, det_floor=CORPUS_DET_FLOOR)
    q = Q.data
    C = compute_C(ell, Q).data
    grad_g = gradient(g).data
    hess = hessian(g).data          # hess[j, k] = d_j d_k g
    lag = _label(q, grad_g)
    lag_hat = to_spectral(grid, lag)
    worst = 0.0
    for k in range(grid.dim):
        # label_i(d_k g) is pointwise algebra on the exact Hessian;
        # d_k(label_i g) a spectral derivative of a non-band-limited product
        comm = (_label(q, hess[:, k])
                - to_physical(grid, deriv_hat(grid, lag_hat, k)))
        rhs = _advection(lag, C[:, k])
        worst = max(worst, float(np.max(np.abs(comm - rhs))))
    scale = max(float(np.max(np.abs(hess))), _TINY)
    residual = worst / scale
    return _report("commutator", residual, TOLERANCES["commutator"],
                   {"hess_g_inf": scale})


def check_product_rule(f: Field, g: Field, u: Field,
                       nu: float = 0.05) -> IdentityReport:
    """Spatial part of the modified product rule for G = d_t + u.grad - nu lap:
    (u.grad - nu lap)(fg) - ((u.grad - nu lap)f) g - f ((u.grad - nu lap)g)
    + 2 nu (d_k f)(d_k g) = 0. The time part is Leibniz identically."""
    grid = f.grid

    def spatial(s: Field) -> np.ndarray:
        return _advection(u.data, gradient(s).data) - nu * laplacian(s).data

    fg = Field(grid, f.data * g.data)
    # (d_k f)(d_k g): the advection contraction with grad f in place of u
    cross = _advection(gradient(f).data, gradient(g).data)
    lhs = spatial(fg)
    rhs = spatial(f) * g.data + f.data * spatial(g) - 2.0 * nu * cross
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), _TINY)
    residual = np.max(np.abs(lhs - rhs)) / scale
    return _report("product_rule", residual, TOLERANCES["product_rule"],
                   {"term_inf": scale})


def check_braces(ell: Field) -> IdentityReport:
    """(d_i A^m) C[r, q; m] = d_q d_i A^r (the cancellation behind the
    cotangent equation)."""
    grid = ell.grid
    gA = _to_grad_A(gradient(ell).data)
    C = compute_C(ell, compute_Q(ell, det_floor=CORPUS_DET_FLOOR)).data
    worst = scale = 0.0
    for k, j, d2 in second_derivs(grid, to_spectral(grid, ell.data)):
        # d2[r] = d_j d_k A^r is the right side for (i, q) = (j, k) and (k, j)
        for i, q in {(j, k), (k, j)}:
            lhs = _label(C[:, q], gA[i])
            worst = max(worst, float(np.max(np.abs(lhs - d2))))
        scale = max(scale, float(np.max(np.abs(d2))))
        del d2   # not held while the next block is made
    residual = worst / max(scale, _TINY)
    return _report("braces", residual, TOLERANCES["braces"], {"d2A_inf": scale})


def check_adjoint(f: Field, g: Field, ell: Field) -> IdentityReport:
    """Integration by parts for the label derivative:
    int (label_i f) g dx = int f (-(label_i g) + Q[i, j] C[p, j; p] g) dx."""
    grid = f.grid
    Q = compute_Q(ell, det_floor=CORPUS_DET_FLOOR)
    q = Q.data
    C = compute_C(ell, Q).data
    lag_f = _label(q, gradient(f).data)
    lag_g = _label(q, gradient(g).data)
    trace_c = np.einsum("pjp...->j...", C)
    correction = _label(q, trace_c)
    denom = (l2_norm(gradient(f)) * l2_norm(g) +
             l2_norm(f) * l2_norm(gradient(g)) + _TINY)
    worst = 0.0
    for i in range(grid.dim):
        lhs = integral(Field(grid, lag_f[i] * g.data))
        rhs = integral(Field(grid, f.data * (-lag_g[i] + correction[i] * g.data)))
        worst = max(worst, abs(lhs - rhs))
    residual = worst / denom
    return _report("adjoint", residual, TOLERANCES["adjoint"],
                   {"norm_scale": denom})


# -- semi-discrete identities (G realized by time stepping) ----------------------

def _label_gradient_of(state: ELState, g: Field) -> np.ndarray:
    q = compute_Q(state.ell, det_floor=CORPUS_DET_FLOOR).data
    return _label(q, gradient(g).data)


def check_gamma_commutation(state: ELState, g: Field, dt: float, *,
                            nu: float) -> IdentityReport:
    """[G, label_i] g = 2 nu C[m, k; i] d_k (label grad g)_m.

    g is co-evolved passively (G g = 0), so the left side reduces to
    G(label_i g), realized with a centered time difference around the
    midpoint of two integrator steps; residual is O(dt^2).
    """
    grid = state.ell.grid
    s1, (g1,) = el_step_with_passive(state, _NO_FORCING, dt, nu=nu, passive=(g,))
    s2, (g2,) = el_step_with_passive(s1, _NO_FORCING, dt, nu=nu, passive=(g1,))

    h0 = _label_gradient_of(state, g)
    h1 = Field(grid, _label_gradient_of(s1, g1))
    h2 = _label_gradient_of(s2, g2)
    del s2, g2
    dt_h = (h2 - h0) / (2.0 * dt)
    del h0, h2

    c1, u1 = _commutator_of(s1)[:2]
    del s1  # C and u are all that is read below
    # grad h1 is transformed twice so that the 9-field array is never held twice
    gamma_h = dt_h + _advection(u1.data, gradient(h1).data) - nu * laplacian(h1).data
    rhs = 2.0 * nu * np.einsum("mki...,km...->i...", c1, gradient(h1).data)
    del c1

    scale = max(sup_norm(hessian(g1)) * max(sup_norm(u1), 1.0), _TINY)
    residual = np.max(np.abs(gamma_h - rhs)) / scale
    return _report("gamma_commutation", residual, GAMMA_COMMUTATION_COEFF * dt**2,
                   {"dt": dt, "scale": scale},
                   note="centered time differencing, residual = O(dt^2)")


def check_C_evolution(state: ELState, dt: float, *, nu: float) -> IdentityReport:
    """G C[m,k;i] = -(d_l A_m) label_i(d_k u_l) - (d_k u_l) C[m,l;i]
    + 2 nu C[j,l;i] d_l C[m,k;j], with G C realized by one forward step.

    The residual is accumulated in the stepped C's array. Of the three
    rank-3 tensors C(t + dt), C(t) and label_i(d_k u_l) at most two are alive
    at once: the terms in C(t) come first, one (m, k) block of ``dim`` fields
    at a time, and label_i(d_k u_l) is built after C(t) is released. Q is
    not held beside C(t) either: it is inverted again from grad ell, with the
    same bits, for label_i(d_k u_l) alone.
    """
    grid = state.ell.grid
    d = grid.dim
    # step first and keep only the stepped C, so the step's working set and
    # the derived fields of the start state are never held together; the
    # identity checks step through el_step_with_passive, not el_step, which
    # perfbench's tracer counts as a solver step
    res = _commutator_of(el_step_with_passive(state, _NO_FORCING, dt, nu=nu)[0])[0]
    c0, u, gl = _commutator_of(state)
    u = u.data

    uhat = to_spectral(grid, u)
    worst = scale = 0.0
    for k in range(d):
        gu_k = to_physical(grid, deriv_hat(grid, uhat, k))  # gu_k[l] = d_k u_l
        for m in range(d):
            c_hat = to_spectral(grid, c0[m, k])             # C[m, k; i], i leading
            # C(t + dt)[m, k] becomes G C[m, k], then the residual, in place
            r = res[m, k]
            r -= c0[m, k]
            r /= dt
            r -= nu * to_physical(grid, lap_hat(grid, c_hat))
            term3 = np.zeros_like(r)
            for l in range(d):
                dl_c = to_physical(grid, deriv_hat(grid, c_hat, l))
                r += u[l] * dl_c
                for j in range(d):
                    term3 += c0[j, l] * dl_c[j]             # C[j, l; i] d_l C[m, k; j]
                del dl_c   # not held while the next one is made
            del c_hat
            scale = max(scale, float(np.max(np.abs(r))))
            r += _advection(gu_k, c0[m])                    # (d_k u_l) C[m, l; i]
            term3 *= 2.0 * nu
            r -= term3
    del c0, u, gu_k

    q = _deformation(gl, DEFAULT_DET_FLOOR)[0]   # derive's Q, bit for bit
    lag_gu = _commutator(grid, q, uhat)          # [l, k, i] = label_i(d_k u_l)
    del q, uhat
    gA = _to_grad_A(gl)
    for m in range(d):
        for k in range(d):
            term1 = _advection(gA[:, m], lag_gu[:, k])     # (d_l A_m) label_i(d_k u_l)
            scale = max(scale, float(np.max(np.abs(term1))))
            res[m, k] += term1
            worst = max(worst, float(np.max(np.abs(res[m, k]))))

    scale = max(scale, _TINY)
    residual = worst / scale
    return _report("c_evolution", residual, C_EVOLUTION_COEFF * dt,
                   {"dt": dt, "scale": scale},
                   note="forward time differencing, residual = O(dt)")


# -- suite ----------------------------------------------------------------------

def run_identity_suite(grid: Grid, *, seed: int = 1,
                       nu: float = 0.05) -> list[IdentityReport]:
    """Run every identity check on the fixed corpus; returns all reports.

    The corpus displacements have sup |grad ell| = 0.01, 0.05 and 0.2; the
    G-identities take one step of 2e-3. Canonical desk grids: n = 64 in 2D,
    n = 48 in 3D. Coarser grids cannot resolve the inverse-Jacobian spectrum
    of the largest-amplitude corpus entry to the commutator tolerance.
    """
    dt = 2e-3
    reports = []
    g = random_scalar(grid, seed + 1, width=CORPUS_SPECTRAL_WIDTH)
    f = random_scalar(grid, seed + 2, width=CORPUS_SPECTRAL_WIDTH)
    u = random_bandlimited(grid, seed + 3, amplitude=1.0)
    for amp in (0.01, 0.05, 0.2):
        ell = random_displacement(grid, seed, amp)
        for rep in (
            check_el_derivative_roundtrip(g, ell),
            check_commutator(g, ell),
            check_braces(ell),
            check_adjoint(f, g, ell),
        ):
            rep.identity = f"{rep.identity}[grad_ell={amp}]"
            reports.append(rep)
    reports.append(check_product_rule(f, g, u, nu=nu))

    state = make_test_state(grid, seed, 0.05)
    reports.append(check_gamma_commutation(state, g, dt, nu=nu))
    reports.append(check_C_evolution(state, dt, nu=nu))
    return reports
