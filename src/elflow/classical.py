"""Reference pseudo-spectral incompressible Navier-Stokes solver.

Velocity-form oracle: the advective term is dealiased with the 2/3 rule and
projected onto divergence-free fields; the viscous term is integrated
exactly through the RK4 integrating factor. Pressure never appears in the
time stepping and can be recovered with ``spectral.riesz_pressure``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Field, _advection
from .forcing import ForcingSpec
from .grid import Grid
from .spectral import (
    grad_hat, leray_hat, pack, to_physical, to_spectral,
)
from .stepping import ensure_finite, if_rk4_step

__all__ = ["NSState", "ns_step"]


@dataclass
class NSState:
    t: float
    u: Field


def _nonlinear_hat(grid: Grid, uhat: np.ndarray, force: Field | None):
    """P(dealias(-u.grad u) + f) in spectral space, and the velocity u, from
    the dealiased ``uhat``."""
    u = to_physical(grid, uhat.copy(), band=True)   # uhat is the stage input
    jac = to_physical(grid, grad_hat(grid, uhat), band=True)   # jac[i, m] = d_i u_m
    out = to_spectral(grid, -_advection(u, jac), band=True)
    if force is not None:
        out = out + to_spectral(grid, force.data, band=True)
    return leray_hat(grid, out), u


def ns_step(state: NSState, forcing: ForcingSpec, dt: float, *, nu: float) -> NSState:
    """Advance one step with integrating-factor RK4.

    Raises ``CFLViolationError`` when max|u| dt / h exceeds
    ``stepping.CFL_LIMIT`` and ``BlowUpError`` on non-finite output.
    """
    grid = state.u.grid
    force = None if forcing.is_zero else forcing.field(grid)

    def rhs(yhat):
        out, u = _nonlinear_hat(grid, yhat, force)
        return pack(grid, out), u

    uhat = to_spectral(grid, state.u.data, band=True)
    new_hat = if_rk4_step(grid, uhat, dt, nu, rhs)
    u_new = to_physical(grid, new_hat, band=True)
    ensure_finite(u_new, "velocity", state.t + dt)
    return NSState(state.t + dt, Field(grid, u_new))
