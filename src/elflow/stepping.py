"""Integrating-factor RK4 stepping shared by the solvers.

The evolved equations all have the form d/dt y = nu*laplacian(y) + N(y, t)
componentwise, so the stiff viscous part is removed exactly with the
diagonal factor exp(-nu |k|^2 dt) and classical RK4 handles the rest. With
nu = 0 the factor is 1 and the scheme reduces to plain RK4.
"""
from __future__ import annotations

import numpy as np

from .errors import BlowUpError, CFLViolationError
from .grid import Grid, tables

__all__ = ["CFL_LIMIT", "if_rk4_step", "ensure_finite"]

# Largest advective CFL number max|u| dt / h a step accepts.
CFL_LIMIT = 0.4


def if_rk4_step(grid: Grid, yhat: np.ndarray, t: float, dt: float, nu: float, rhs):
    """One integrating-factor RK4 step of the stacked spectral state ``yhat``.

    ``rhs(yhat, t)`` returns N in spectral space and the physical velocity
    of its stage. The first stage's velocity is that of the input state:
    raises ``CFLViolationError`` when its CFL number exceeds ``CFL_LIMIT``.
    """
    e = np.exp(-nu * tables(grid).k2 * (0.5 * dt))
    e2 = e * e
    n1, u = rhs(yhat, t)
    max_u = float(np.max(np.sqrt(np.sum(u * u, axis=0))))
    del u   # not held through the later stages (tests/test_memory_budget.py)
    if max_u * dt / grid.spacing > CFL_LIMIT:
        raise CFLViolationError(dt, grid.spacing, max_u, CFL_LIMIT)
    n2 = rhs(e * (yhat + 0.5 * dt * n1), t + 0.5 * dt)[0]
    n3 = rhs(e * yhat + 0.5 * dt * n2, t + 0.5 * dt)[0]
    n4 = rhs(e2 * yhat + dt * e * n3, t + dt)[0]
    return e2 * yhat + (dt / 6.0) * (e2 * n1 + 2.0 * e * (n2 + n3) + n4)


def ensure_finite(arr: np.ndarray, what: str, t: float) -> None:
    if not np.all(np.isfinite(arr)):
        raise BlowUpError(f"non-finite values in {what}; blow-up or instability", t=t)
