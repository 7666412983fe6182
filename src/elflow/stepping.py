"""Integrating-factor RK4 stepping shared by the solvers.

The evolved equations all have the form d/dt y = nu*laplacian(y) + N(y)
componentwise, with N autonomous (the force catalog is steady), so the
stiff viscous part is removed exactly with the diagonal factor
exp(-nu |k|^2 dt) and classical RK4 handles the rest. With nu = 0 the
factor is 1 and the scheme reduces to plain RK4.

The state is a stacked spectrum that is zero off the 2/3 mask, as every
solver's band-transformed state is. The step holds its own stacks (its copy
of the state, the accumulator, the held slope) packed to the band
(``spectral.pack``), and each right-hand side returns its N packed, so no
stage makes a full-size N. The array the step is given is its stage work
array: each stage input, and the result, is written in band into it.
"""
from __future__ import annotations

import numpy as np

from .errors import BlowUpError, CFLViolationError
from .fields import _advection
from .grid import Grid, tables
from .spectral import band_index, pack

__all__ = ["CFL_LIMIT", "if_rk4_step", "ensure_finite"]

# Largest advective CFL number max|u| dt / h a step accepts.
CFL_LIMIT = 0.4


def if_rk4_step(grid: Grid, yhat: np.ndarray, dt: float, nu: float, rhs):
    """One integrating-factor RK4 step of the stacked spectral state ``yhat``,
    which must be zero off the 2/3 mask.

    ``yhat`` is the stage work array: the later stage inputs and the result
    are written in band into it, its off-band zeros are kept, and it is
    returned. ``rhs(y)`` returns N in spectral space packed to the band
    (``spectral.pack``), as a new array that the step may overwrite, and the
    physical velocity of its stage; it must hold no reference to ``y`` and
    must not write into it, since the step reads ``y`` again.
    The first stage's velocity is that of the input state: raises
    ``CFLViolationError`` when its CFL number exceeds ``CFL_LIMIT``.
    """
    band = band_index(grid)
    e = np.exp(-nu * pack(grid, tables(grid).k2) * (0.5 * dt))
    e2 = e * e
    acc, u = rhs(yhat)
    max_u = float(np.max(np.sqrt(_advection(u, u))))
    del u   # not held through the later stages (tests/test_memory_budget.py)
    if max_u * dt / grid.spacing > CFL_LIMIT:
        raise CFLViolationError(dt, grid.spacing, max_u, CFL_LIMIT)
    # Each stage's packed N is folded into one packed accumulator (the
    # first stage's N) once the next stage's input is built, in the
    # operation order of e2*y + dt/6*(e2*n1 + 2e*(n2 + n3) + n4): the result
    # is that formula's bit for bit in band, and no stage runs with more
    # than two packed N stacks held.
    y = pack(grid, yhat)
    yhat[band] = e * (y + 0.5 * dt * acc)
    np.multiply(e2, acc, out=acc)
    n2 = rhs(yhat)[0]
    yhat[band] = e * y + 0.5 * dt * n2
    n3 = rhs(yhat)[0]
    yhat[band] = e2 * y + dt * e * n3
    n2 += n3
    del n3
    acc += np.multiply(2.0 * e, n2, out=n2)
    del n2
    acc += rhs(yhat)[0]
    np.multiply(dt / 6.0, acc, out=acc)
    yhat[band] = np.add(e2 * y, acc, out=acc)
    return yhat


def ensure_finite(arr: np.ndarray, what: str, t: float) -> None:
    if not np.all(np.isfinite(arr)):
        raise BlowUpError(f"non-finite values in {what}; blow-up or instability", t=t)
