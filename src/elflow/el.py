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
own dynamics G w + (grad u)^T w = f, u = P(w), and label resetting. Its
pointwise sums are the two contractions of ``fields`` (``_label`` and
``_advection``), and every right-hand side is autonomous (``stepping``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NearSingularJacobianError
from .fields import Field, _advection, _label, sup_norm, zeros
from .forcing import ForcingSpec
from .grid import Grid
from .spectral import (
    deriv_hat, divergence, grad_hat, gradient, inverse_laplacian, leray_hat, pack,
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
    """Quantities derived pointwise/spectrally from one state (never cached).

    ``C_magnitude`` is |C| pointwise; C itself is never held whole here
    (``compute_C`` builds it)."""

    Q: Field
    u: Field
    w: Field
    n: Field
    det: Field
    C_magnitude: Field


def initial_state(u0: Field, potential_mode: str = "static") -> ELState:
    """Fresh state at t = 0: zero displacement, v = u0, zero potential."""
    grid = u0.grid
    return ELState(0.0, zeros(grid, 1), u0.copy(), zeros(grid, 0),
                   potential_mode=potential_mode)


# -- the deformation chain -----------------------------------------------------
#
# grad ell -> (Q, det) -> C -> w -> (u, n), each link one function below.
# ``_chain`` composes the links up to w from one spectrum of ell for every
# caller that starts from a state (``derive`` and the identity checks). C
# comes one row C[m] at a time. The RK stage alone projects its dealiased w
# spectrally instead of through ``_project``.

def _grad_ell(grid: Grid, lhat: np.ndarray, *, band: bool = False, out=None) -> np.ndarray:
    """gl[i, m] = d_i ell_m from the spectrum of ell; ``band`` and ``out``
    are passed to ``to_physical``."""
    return to_physical(grid, grad_hat(grid, lhat), band=band, out=out)


def _deformation(gl: np.ndarray, det_floor: float, out=None):
    """The pointwise inverse Q of grad A = I + grad ell and det(grad A): the
    adjugate over the determinant. The diagonal entries of grad A are formed
    once and the others are read from ``gl``, which is not copied. Q is
    written into ``out`` when it is given.

    Raises ``NearSingularJacobianError`` where |det| <= det_floor.
    """
    g = [[gl[i, j] + 1.0 if i == j else gl[i, j] for j in range(len(gl))]
         for i in range(len(gl))]
    if len(gl) == 2:
        (a, b), (c, d) = g
        det = a * d - b * c
        _check_det(det, det_floor)
        inv = 1.0 / det
        q = np.empty_like(gl) if out is None else out
        q[0, 0] = d * inv
        q[0, 1] = -b * inv
        q[1, 0] = -c * inv
        q[1, 1] = a * inv
        return q, det
    (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = g
    c00 = g11 * g22 - g12 * g21
    c01 = g12 * g20 - g10 * g22
    c02 = g10 * g21 - g11 * g20
    det = g00 * c00 + g01 * c01 + g02 * c02
    _check_det(det, det_floor)
    inv = 1.0 / det
    q = np.empty_like(gl) if out is None else out
    q[0, 0] = c00 * inv
    q[1, 0] = c01 * inv
    q[2, 0] = c02 * inv
    q[0, 1] = (g02 * g21 - g01 * g22) * inv
    q[1, 1] = (g00 * g22 - g02 * g20) * inv
    q[2, 1] = (g01 * g20 - g00 * g21) * inv
    q[0, 2] = (g01 * g12 - g02 * g11) * inv
    q[1, 2] = (g02 * g10 - g00 * g12) * inv
    q[2, 2] = (g00 * g11 - g01 * g10) * inv
    return q, det


def _check_det(det: np.ndarray, floor: float) -> None:
    worst = np.argmin(np.abs(det))
    worst_val = det.flat[worst]
    if abs(worst_val) <= floor:
        point = np.unravel_index(worst, det.shape)
        raise NearSingularJacobianError(worst_val, point, floor)


def _advection_hat(grid: Grid, u: np.ndarray, grad_x: np.ndarray) -> np.ndarray:
    """The stage term -dealias(FFT(u.grad x)), negated in place."""
    hat = to_spectral(grid, _advection(u, grad_x), band=True)
    return np.negative(hat, out=hat)


def _commutator_rows(grid: Grid, q: np.ndarray, lhat: np.ndarray, out=None):
    """Yield the rows C[m][k, i] = Q[i, j] d_j d_k ell_m, m = 0, ..., dim-1
    (second derivatives of A equal those of the periodic displacement).

    Row m comes from the second derivatives of ell_m alone, one scalar
    block at a time, and each entry is summed from zero in ascending j, so
    a reader of one row at a time never holds C. Row m is ``out[m]``, which
    must be zero, when ``out`` is given, else a new array dropped once the
    next row is asked for."""
    d = grid.dim
    for m in range(d):
        row = np.zeros((d, d, *grid.shape)) if out is None else out[m]
        for k, j, block in second_derivs(grid, lhat[m]):
            row[k] += q[:, j] * block
            if j != k:
                row[j] += q[:, k] * block
            del block   # not held while the next block is made
        yield row
        del row


def _commutator(grid: Grid, q: np.ndarray, lhat: np.ndarray) -> np.ndarray:
    """The whole C[m, k; i], its rows written in place."""
    c = np.zeros((grid.dim,) * 3 + grid.shape)
    for _ in _commutator_rows(grid, q, lhat, out=c):
        pass
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
    w = _label(gl, v)
    w += v
    return w


def _project(w: Field) -> tuple[Field, Field]:
    """u = w - grad n with laplacian(n) = div(w), zero-mean n: u = P(w)."""
    n = inverse_laplacian(divergence(w))
    return Field(w.grid, w.data - gradient(n).data), n


def _chain(state: ELState):
    """(lhat, grad ell, Q, det, w) of ``state``: the spectrum of ell and the
    chain's links up to the cotangent field w, each made once."""
    grid = state.ell.grid
    lhat = to_spectral(grid, state.ell.data)
    gl = _grad_ell(grid, lhat)
    q, det = _deformation(gl, DEFAULT_DET_FLOOR)
    return lhat, gl, q, det, Field(grid, _cotangent(gl, state.v.data))


def compute_Q(ell: Field, *, det_floor: float = DEFAULT_DET_FLOOR) -> Field:
    """Pointwise inverse of the deformation Jacobian grad A = I + grad ell."""
    return Field(ell.grid, _deformation(gradient(ell).data, det_floor)[0])


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
    """All derived quantities of a state; recomputed from scratch each call.

    |C| is a running sum of squares over the rows of C in (m, k, i) order,
    the order of ``magnitude(compute_C(...))``, whose bits it gives; one
    row is held at a time."""
    grid = state.ell.grid
    lhat, gl, q, det, w = _chain(state)
    del gl  # not held beside a row of C
    c_mag = np.zeros(grid.shape)
    for row in _commutator_rows(grid, q, lhat):
        for entry in row.reshape(-1, *grid.shape):
            c_mag += entry * entry
        del row, entry   # not held while the next row is made
    np.sqrt(c_mag, out=c_mag)
    del lhat
    u, n = _project(w)
    return ELDerived(Q=Field(grid, q), u=u, w=w, n=n, det=Field(grid, det),
                     C_magnitude=Field(grid, c_mag))


def grad_ell_sup(ell: Field) -> float:
    """sup over points of the Frobenius norm of grad ell (reset monitor)."""
    return sup_norm(gradient(ell))


# -- right-hand sides ---------------------------------------------------------

def _stage_terms(grid: Grid, nu: float, lhat, vhat, force: Field | None, ws):
    """Shared stage evaluation: returns (G_ell_hat, G_v_hat, u).

    G_* are the non-viscous right-hand sides in spectral space with every
    quadratic product dealiased, so they are zero off the 2/3 mask like
    ``lhat`` and ``vhat``, and are returned packed to the band
    (``spectral.pack``); u is reconstructed from the dealiased cotangent
    product. ``ws`` is the step's work array of two rank-2 fields: Q, and one
    slot that holds grad ell and then grad v, whose lifetimes do not overlap.
    The four stages reuse it, so their largest fields are not allocated
    afresh at every stage.
    """
    gl = _grad_ell(grid, lhat, band=True, out=ws[0])
    q = _deformation(gl, DEFAULT_DET_FLOOR, out=ws[1])[0]   # det is not held
    what = to_spectral(grid, _cotangent(gl, to_physical(grid, vhat.copy(), band=True)),
                       band=True)   # vhat is the stage input
    uhat = leray_hat(grid, what)
    del what
    u = to_physical(grid, uhat.copy(), band=True)   # uhat is read below

    g_ell = _advection_hat(grid, u, gl)
    g_ell -= uhat
    g_ell = pack(grid, g_ell)   # held packed through the v terms
    del gl, uhat   # only q and u are read below

    gv = ws[0]
    for k in range(grid.dim):   # gv[k, m] = d_k v_m, one direction at a time
        to_physical(grid, deriv_hat(grid, vhat, k), band=True, out=gv[k])
    g_v = pack(grid, _advection_hat(grid, u, gv))
    if nu > 0.0:
        source = pack(grid, to_spectral(grid, _commutator_source(grid, q, lhat, gv),
                                        band=True))
        source *= 2.0 * nu
        g_v += source
        del source
    del gv   # the force term needs q alone
    if force is not None:
        g_v += pack(grid, to_spectral(grid, _label(q, force.data), band=True))
    return g_ell, g_v, u


def _potential_rhs_hat(grid: Grid, nhat, u: np.ndarray) -> np.ndarray:
    """Dynamic-potential source: -u.grad n + R_iR_j(u^i u^j) - |u|^2/2 + c."""
    out = _advection_hat(grid, u, to_physical(grid, grad_hat(grid, nhat), band=True))
    out += quadratic_pressure_hat(grid, u)
    out -= to_spectral(grid, 0.5 * _advection(u, u), band=True)
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
    ws = np.empty((2, d, d, *grid.shape))   # the stages' work array

    def rhs(y):
        g_ell, g_v, u = _stage_terms(grid, nu, y[:d], y[d:2 * d], force, ws)
        rows = [g_ell, g_v]
        if dynamic:
            rows.append(pack(grid, _potential_rhs_hat(grid, y[2 * d], u)[None]))
        for row in passive_rows:
            grad = to_physical(grid, grad_hat(grid, y[row]), band=True)
            rows.append(pack(grid, _advection_hat(grid, u, grad)[None]))
        return np.concatenate(rows), u

    if_rk4_step(grid, yhat, dt, nu, rhs)
    del ws   # not held past the stages
    ynew = to_physical(grid, yhat, band=True)
    ensure_finite(ynew, "the stepped stack (ell, v[, n], passive scalars)", state.t + dt)
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
    cotangent field); Q and C return to the identity and zero exactly. The
    new potential n solves laplacian(n) = div(w); u itself is not built.
    """
    grid = state.ell.grid
    w = compute_w(state.ell, state.v)
    return ELState(state.t, zeros(grid, 1), w, inverse_laplacian(divergence(w)),
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
    gu = to_physical(grid, grad_hat(grid, uhat), band=True)   # gu[i, j] = d_i u_j
    u = to_physical(grid, uhat, band=True)   # consumes uhat, so after gu
    gw = to_physical(grid, grad_hat(grid, what), band=True)   # gw[k, m] = d_k w_m
    w = to_physical(grid, what.copy(), band=True)   # what is the stage input
    out = -to_spectral(grid, _advection(u, gw) + _label(gu, w), band=True)
    if force is not None:
        out += to_spectral(grid, force.data, band=True)
    return out, u


def cotangent_step(state: WState, forcing: ForcingSpec, dt: float, *,
                   nu: float) -> WState:
    """Advance G w + (grad u)^T w = f with u = P(w) at every stage."""
    grid = state.w.grid
    force = None if forcing.is_zero else forcing.field(grid)

    def rhs(yhat):
        out, u = _cotangent_nonlinear_hat(grid, yhat, force)
        return pack(grid, out), u

    what = to_spectral(grid, state.w.data, band=True)
    new_hat = if_rk4_step(grid, what, dt, nu, rhs)
    w_new = to_physical(grid, new_hat, band=True)
    ensure_finite(w_new, "cotangent variable", state.t + dt)
    return WState(state.t + dt, Field(grid, w_new))
