"""Displacement / virtual-velocity formulation of incompressible flow.

State: the displacement ``ell`` (the back-to-labels map is A = x + ell), the
virtual velocity ``v`` and the scalar potential ``n``. The Eulerian velocity
is reconstructed nonlocally as u = P((grad A)^T v), equivalently
u = (grad A)^T v - grad n with laplacian(n) = div((grad A)^T v).

Evolution (advection-diffusion operator G = d_t + u.grad - nu*laplacian):

    G ell + u = 0
    G v_i     = 2 nu C[m,k;i] d_k v_m + Q[i,j] f_j
    G n       = R_i R_j(u^i u^j) - |u|^2/2 + c      (dynamic potential mode)

Q is the pointwise inverse of grad A (adjugate over determinant, never an
iterative solve) and C[m,k;i] = Q[i,j] d_j d_k A_m are the coefficients of
the commutator between label and Eulerian derivatives; they vanish at t = 0
and multiply the only term that distinguishes the viscous evolution of v
from a passive rearrangement.

Index conventions follow ``fields``: gradA[i, m] = d_i A_m, Q is its
pointwise matrix inverse (gradA @ Q = I), C[m, k, i]. The label derivative
of a scalar is (Q[i, j] d_j g) and Eulerian derivatives recombine as
d_i g = gradA[i, m] (Q[m, j] d_j g); all label-index contractions below run
through the first Q index.

The module also provides the cotangent variable w_i = (d_i A^m) v_m with its
own dynamics G w + (grad u)^T w = f, u = P(w), and label resetting.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NearSingularJacobianError
from .fields import Field, sup_norm, zeros
from .forcing import ForcingSpec
from .grid import Grid
from .spectral import (
    divergence, grad_hat, gradient, inverse_laplacian, leray_hat,
    quadratic_pressure_hat, second_derivs, to_physical, to_spectral, _zero_mode,
)
from .stepping import ensure_finite, if_rk4_step

__all__ = [
    "ELState", "ELDerived", "initial_state", "compute_Q", "compute_C",
    "compute_w", "reconstruct_u", "derive", "el_step",
    "el_step_with_passive", "reset_labels",
    "WState", "cotangent_step", "grad_ell_sup",
]

DEFAULT_DET_FLOOR = 0.1


@dataclass
class ELState:
    t: float
    ell: Field
    v: Field
    n_pot: Field
    potential_mode: str = "static"
    reset_count: int = 0


@dataclass
class ELDerived:
    """Quantities derived pointwise/spectrally from one state (never cached)."""

    grad_A: Field
    Q: Field
    C: Field
    u: Field
    w: Field
    n: Field
    det: Field


def initial_state(u0: Field, potential_mode: str = "static") -> ELState:
    """Fresh state at t = 0: zero displacement, v = u0, zero potential."""
    grid = u0.grid
    return ELState(0.0, zeros(grid, 1), u0.copy(), zeros(grid, 0),
                   potential_mode=potential_mode)


# -- the deformation chain -----------------------------------------------------
#
# grad ell -> (grad A, Q, det) -> C -> w -> (u, n), each link one function
# below; every caller composes them. The RK stage alone projects its
# dealiased w spectrally instead of through ``_project``.

def _grad_ell(grid: Grid, lhat: np.ndarray, *, band: bool = False) -> np.ndarray:
    """gl[i, m] = d_i ell_m from the spectrum of ell; ``band`` is passed to
    ``to_physical``."""
    return to_physical(grid, grad_hat(grid, lhat), overwrite=True, band=band)


def _deformation(gl: np.ndarray, det_floor: float):
    """grad A = I + grad ell, its pointwise inverse Q and det(grad A).

    Raises ``NearSingularJacobianError`` where |det| <= det_floor.
    """
    g = gl.copy()
    for i in range(len(g)):
        g[i, i] += 1.0
    return (g, *_inverse(g, det_floor))


def _inverse(g: np.ndarray, det_floor: float):
    """The pointwise inverse of the matrix field g and its determinant: the
    adjugate over the determinant. Raises ``NearSingularJacobianError``
    where |det| <= det_floor."""
    if len(g) == 2:
        a, b = g[0, 0], g[0, 1]
        c, d = g[1, 0], g[1, 1]
        det = a * d - b * c
        _check_det(det, det_floor)
        inv = 1.0 / det
        q = np.empty_like(g)
        q[0, 0] = d * inv
        q[0, 1] = -b * inv
        q[1, 0] = -c * inv
        q[1, 1] = a * inv
        return q, det
    c00 = g[1, 1] * g[2, 2] - g[1, 2] * g[2, 1]
    c01 = g[1, 2] * g[2, 0] - g[1, 0] * g[2, 2]
    c02 = g[1, 0] * g[2, 1] - g[1, 1] * g[2, 0]
    det = g[0, 0] * c00 + g[0, 1] * c01 + g[0, 2] * c02
    _check_det(det, det_floor)
    inv = 1.0 / det
    q = np.empty_like(g)
    q[0, 0] = c00 * inv
    q[1, 0] = c01 * inv
    q[2, 0] = c02 * inv
    q[0, 1] = (g[0, 2] * g[2, 1] - g[0, 1] * g[2, 2]) * inv
    q[1, 1] = (g[0, 0] * g[2, 2] - g[0, 2] * g[2, 0]) * inv
    q[2, 1] = (g[0, 1] * g[2, 0] - g[0, 0] * g[2, 1]) * inv
    q[0, 2] = (g[0, 1] * g[1, 2] - g[0, 2] * g[1, 1]) * inv
    q[1, 2] = (g[0, 2] * g[1, 0] - g[0, 0] * g[1, 2]) * inv
    q[2, 2] = (g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]) * inv
    return q, det


def _check_det(det: np.ndarray, floor: float) -> None:
    worst = np.argmin(np.abs(det))
    worst_val = det.flat[worst]
    if abs(worst_val) <= floor:
        point = np.unravel_index(worst, det.shape)
        raise NearSingularJacobianError(worst_val, point, floor)


def _label(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Q[i, j] x_j pointwise: the label derivative (Q[i, j] d_j g) when
    x = grad g; ``_cotangent`` applies it to grad ell in place of Q."""
    out = np.empty_like(x)
    for i in range(len(q)):
        _advection(q[i], x, out=out[i])
    return out


def _advection(u: np.ndarray, grad_x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """u_k d_k x from grad_x[k, ...] = d_k x, for a scalar or a vector x.

    Summed from zero in the order k = 0, 1, ..., so the result, signed
    zeros included, is bit for bit that of einsum("k...,k...->...")."""
    if out is None:
        out = np.zeros(np.broadcast_shapes(u.shape[1:], grad_x.shape[1:]))
    else:
        out.fill(0.0)
    for k in range(len(u)):
        out += u[k] * grad_x[k]
    return out


def _advection_hat(grid: Grid, u: np.ndarray, grad_x: np.ndarray) -> np.ndarray:
    """The stage term -dealias(FFT(u.grad x))."""
    return -to_spectral(grid, _advection(u, grad_x), band=True)


def _commutator(grid: Grid, q: np.ndarray, lhat: np.ndarray) -> np.ndarray:
    """C[m, k; i] = Q[i, j] d_j d_k ell_m (second derivatives of A equal
    those of the periodic displacement)."""
    d = grid.dim
    c = np.zeros((d, d, d, *grid.shape))
    for k, j, block in second_derivs(grid, lhat):
        for m in range(d):
            c[m, k] += q[:, j] * block[m]
            if j != k:
                c[m, j] += q[:, k] * block[m]
        del block   # not held while the next block is made
    return c


def _commutator_source(grid: Grid, q: np.ndarray, lhat: np.ndarray,
                       gv: np.ndarray) -> np.ndarray:
    """C[m, k; i] gv[k, m] without building C: Q[i, j] s_j with
    s_j = sum_{k, m} d_j d_k ell_m gv[k, m], from the dealiased ``lhat``
    of an RK stage."""
    s = np.zeros((grid.dim, *grid.shape))
    for k, j, block in second_derivs(grid, lhat, band=True):
        s[j] += _advection(block, gv[k])
        if j != k:
            s[k] += _advection(block, gv[j])
        del block   # not held while the next block is made
    return _label(q, s)


def _cotangent(gl: np.ndarray, v: np.ndarray) -> np.ndarray:
    """w_i = (d_i A^m) v_m = v_i + (d_i ell_m) v_m."""
    return v + _label(gl, v)


def _project(w: Field) -> tuple[Field, Field]:
    """u = w - grad n with laplacian(n) = div(w), zero-mean n: u = P(w)."""
    n = inverse_laplacian(divergence(w))
    return Field(w.grid, w.data - gradient(n).data), n


def compute_Q(ell: Field, *, det_floor: float = DEFAULT_DET_FLOOR) -> Field:
    """Pointwise inverse of the deformation Jacobian grad A = I + grad ell."""
    _, q, _ = _deformation(gradient(ell).data, det_floor)
    return Field(ell.grid, q)


def compute_C(ell: Field, Q: Field) -> Field:
    """Commutator coefficients C[m, k; i], the label derivative of d_k ell_m.

    With the conventions here (gradA[i, m] = d_i A_m and gradA @ Q = I
    pointwise) the label derivative acts through the first Q index,
    C[m, k; i] = Q[i, j] d_j d_k A_m.
    """
    grid = ell.grid
    return Field(grid, _commutator(grid, Q.data, to_spectral(grid, ell.data)))


def compute_w(ell: Field, v: Field) -> Field:
    """Cotangent variable w_i = (d_i A^m) v_m = v_i + (d_i ell_m) v_m."""
    return Field(ell.grid, _cotangent(gradient(ell).data, v.data))


def reconstruct_u(ell: Field, v: Field) -> tuple[Field, Field]:
    """Velocity and potential from the state: the explicit-potential route.

    n solves laplacian(n) = div((grad A)^T v) with zero mean and
    u = (grad A)^T v - grad n, which coincides with the divergence-free
    projection of (grad A)^T v.
    """
    return _project(compute_w(ell, v))


def derive(state: ELState) -> ELDerived:
    """All derived quantities of a state; recomputed from scratch each call."""
    grid = state.ell.grid
    lhat = to_spectral(grid, state.ell.data)
    gl = _grad_ell(grid, lhat)
    gA, q, det = _deformation(gl, DEFAULT_DET_FLOOR)
    w = Field(grid, _cotangent(gl, state.v.data))
    del gl  # not held beside C
    c = _commutator(grid, q, lhat)
    del lhat
    u, n = _project(w)
    return ELDerived(
        grad_A=Field(grid, gA),
        Q=Field(grid, q),
        C=Field(grid, c),
        u=u,
        w=w,
        n=n,
        det=Field(grid, det),
    )


def grad_ell_sup(ell: Field) -> float:
    """sup over points of the Frobenius norm of grad ell (reset monitor)."""
    return sup_norm(gradient(ell))


# -- right-hand sides ---------------------------------------------------------

def _stage_terms(grid: Grid, nu: float, lhat, vhat, force: Field | None):
    """Shared stage evaluation: returns (G_ell_hat, G_v_hat, u).

    G_* are the non-viscous right-hand sides in spectral space with every
    quadratic product dealiased, so they are zero off the 2/3 mask like
    ``lhat`` and ``vhat``; u is reconstructed from the dealiased cotangent
    product.
    """
    gl = _grad_ell(grid, lhat, band=True)
    q = _deformation(gl, DEFAULT_DET_FLOOR)[1]   # det is not held
    what = to_spectral(grid, _cotangent(gl, to_physical(grid, vhat, band=True)), band=True)
    uhat = leray_hat(grid, what)
    del what
    u = to_physical(grid, uhat, band=True)

    g_ell = _advection_hat(grid, u, gl)
    g_ell -= uhat
    del gl, uhat   # only q and u are read below

    gv = to_physical(grid, grad_hat(grid, vhat), overwrite=True,
                     band=True)   # gv[k, m] = d_k v_m
    g_v = _advection_hat(grid, u, gv)
    if nu > 0.0:
        source = to_spectral(grid, _commutator_source(grid, q, lhat, gv), band=True)
        source *= 2.0 * nu
        g_v += source
        del source
    del gv   # the force term needs q alone
    if force is not None:
        g_v += to_spectral(grid, _label(q, force.data), band=True)
    return g_ell, g_v, u


def _potential_rhs_hat(grid: Grid, nhat, u: np.ndarray) -> np.ndarray:
    """Dynamic-potential source: -u.grad n + R_iR_j(u^i u^j) - |u|^2/2 + c."""
    out = _advection_hat(grid, u, to_physical(grid, grad_hat(grid, nhat), overwrite=True,
                                              band=True))
    out += quadratic_pressure_hat(grid, u)
    out -= to_spectral(grid, 0.5 * np.sum(u * u, axis=0), band=True)
    out[_zero_mode(grid)] = 0.0  # the free constant fixes a zero spatial mean
    return out


# -- time stepping ------------------------------------------------------------

def el_step_with_passive(state: ELState, forcing: ForcingSpec, dt: float, *,
                         nu: float, passive: tuple[Field, ...] = ()):
    """Like ``el_step`` but co-evolves scalars by pure advection-diffusion;
    returns the new state and the stepped scalars.

    Steps the stack of rows ell, v[, n], passive scalars: one forward
    transform of the stack, one inverse transform of the stepped stack.
    The stack is dealiased at its transform, so every stage input and
    right-hand side is zero off the 2/3 mask."""
    grid = state.ell.grid
    d = grid.dim
    dynamic = state.potential_mode == "dynamic"
    force = None if forcing.is_zero else forcing.field(grid)
    scalars = ([state.n_pot] if dynamic else []) + list(passive)
    yhat = to_spectral(grid, np.concatenate(
        [state.ell.data, state.v.data] + [s.data[None] for s in scalars]), band=True)

    passive_rows = range(2 * d + dynamic, len(yhat))

    def rhs(y, t):
        g_ell, g_v, u = _stage_terms(grid, nu, y[:d], y[d:2 * d], force)
        out = np.empty_like(y)
        out[:d], out[d:2 * d] = g_ell, g_v
        del g_ell, g_v
        if dynamic:
            out[2 * d] = _potential_rhs_hat(grid, y[2 * d], u)
        for row in passive_rows:
            grad = to_physical(grid, grad_hat(grid, y[row]), overwrite=True, band=True)
            out[row] = _advection_hat(grid, u, grad)
        return out, u

    ynew = to_physical(grid, if_rk4_step(grid, yhat, state.t, dt, nu, rhs),
                       overwrite=True, band=True)
    ensure_finite(ynew[:d], "displacement", state.t + dt)
    ensure_finite(ynew[d:2 * d], "virtual velocity", state.t + dt)
    ell_field = Field(grid, ynew[:d])
    v_field = Field(grid, ynew[d:2 * d])
    rows = [Field(grid, y) for y in ynew[2 * d:]]
    n_field = rows.pop(0) if dynamic else reconstruct_u(ell_field, v_field)[1]
    new_state = ELState(state.t + dt, ell_field, v_field, n_field,
                        potential_mode=state.potential_mode,
                        reset_count=state.reset_count)
    return new_state, rows


def el_step(state: ELState, forcing: ForcingSpec, dt: float, *, nu: float) -> ELState:
    """One integrating-factor RK4 step of (ell, v[, n]).

    The velocity is reconstructed from (ell, v) at every stage. Raises
    ``CFLViolationError``/``BlowUpError`` like the classical solver and
    ``NearSingularJacobianError`` when the deformation determinant crosses
    ``DEFAULT_DET_FLOOR``.
    """
    return el_step_with_passive(state, forcing, dt, nu=nu)[0]


def reset_labels(state: ELState) -> ELState:
    """Restart the labels: v' = (grad A)^T v, ell' = 0.

    The reconstructed velocity is unchanged (both states project the same
    cotangent field); Q and C return to the identity and zero exactly.
    """
    grid = state.ell.grid
    w = compute_w(state.ell, state.v)
    _, n_new = _project(w)
    return ELState(state.t, zeros(grid, 1), w, n_new,
                   potential_mode=state.potential_mode,
                   reset_count=state.reset_count + 1)


# -- cotangent dynamics --------------------------------------------------------

@dataclass
class WState:
    t: float
    w: Field


def _cotangent_nonlinear_hat(grid: Grid, what, force: Field | None):
    """The stage term of the dealiased ``what`` and the velocity u."""
    uhat = leray_hat(grid, what)
    u = to_physical(grid, uhat, band=True)
    w = to_physical(grid, what, band=True)
    gw = to_physical(grid, grad_hat(grid, what), overwrite=True,
                     band=True)   # gw[k, m] = d_k w_m
    gu = to_physical(grid, grad_hat(grid, uhat), overwrite=True,
                     band=True)   # gu[i, j] = d_i u_j
    adv = np.einsum("k...,km...->m...", u, gw)
    stretch = np.einsum("ij...,j...->i...", gu, w)
    out = -to_spectral(grid, adv + stretch, band=True)
    if force is not None:
        out += to_spectral(grid, force.data, band=True)
    return out, u


def cotangent_step(state: WState, forcing: ForcingSpec, dt: float, *,
                   nu: float) -> WState:
    """Advance G w + (grad u)^T w = f with u = P(w) at every stage."""
    grid = state.w.grid
    force = None if forcing.is_zero else forcing.field(grid)

    def rhs(yhat, t):
        return _cotangent_nonlinear_hat(grid, yhat, force)

    what = to_spectral(grid, state.w.data, band=True)
    new_hat = if_rk4_step(grid, what, state.t, dt, nu, rhs)
    w_new = to_physical(grid, new_hat, overwrite=True, band=True)
    ensure_finite(w_new, "cotangent variable", state.t + dt)
    return WState(state.t + dt, Field(grid, w_new))
