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

    ``rhs(yhat, t)`` returns N in spectral space, as a new array that the
    step may overwrite, and the physical velocity of its stage. The first
    stage's velocity is that of the input state: raises
    ``CFLViolationError`` when its CFL number exceeds ``CFL_LIMIT``.
    """
    e = np.exp(-nu * tables(grid).k2 * (0.5 * dt))
    e2 = e * e
    n1, u = rhs(yhat, t)
    max_u = float(np.max(np.sqrt(np.sum(u * u, axis=0))))
    del u   # not held through the later stages (tests/test_memory_budget.py)
    if max_u * dt / grid.spacing > CFL_LIMIT:
        raise CFLViolationError(dt, grid.spacing, max_u, CFL_LIMIT)
    # Each stage's N is folded into one accumulator once the next stage's
    # input is built, in the operation order of
    # e2*y + dt/6*(e2*n1 + 2e*(n2 + n3) + n4): the result is that formula's
    # bit for bit, and no stage runs with more than two N stacks held.
    y2 = e * (yhat + 0.5 * dt * n1)
    acc = np.multiply(e2, n1, out=n1)
    n2 = rhs(y2, t + 0.5 * dt)[0]
    del y2
    n3 = rhs(e * yhat + 0.5 * dt * n2, t + 0.5 * dt)[0]
    y4 = e2 * yhat + dt * e * n3
    n2 += n3
    del n3
    acc += np.multiply(2.0 * e, n2, out=n2)
    del n2
    acc += rhs(y4, t + dt)[0]
    del y4
    np.multiply(dt / 6.0, acc, out=acc)
    return np.add(e2 * yhat, acc, out=acc)


def ensure_finite(arr: np.ndarray, what: str, t: float) -> None:
    if not np.all(np.isfinite(arr)):
        raise BlowUpError(f"non-finite values in {what}; blow-up or instability", t=t)
