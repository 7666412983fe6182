"""Sampled periodic fields and box-integral norms.

One type, ``Field``, holds a field of rank 0 to 3: ``data`` has shape
``(dim,) * rank + grid.shape``. Index conventions, used everywhere in the
package:

* a rank-2 field ``data[i, m]`` holds the (i, m) entry; for a Jacobian
  this is d_i v_m (derivative axis first, component second), so the
  deformation Jacobian is ``gradA[i, m] = d_i A_m``.
* the rank-3 field ``data[m, k, i]`` holds the commutator coefficients
  ``C[m, k; i]``.

Norms are unnormalized box integrals: ``l2_norm(f)**2 = int |f|^2 dx`` with
the pointwise Euclidean (Frobenius) magnitude for vector and tensor fields.
Volume averages divide by ``grid.volume`` explicitly at the call site.
The package's pointwise contractions are ``_label`` and ``_advection``, one
``numpy.einsum`` call each on plain arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldCompatibilityError
from .grid import Grid

__all__ = [
    "Field", "zeros", "magnitude", "integral", "sup_norm", "l2_norm",
    "lp_norm", "inner",
]


@dataclass
class Field:
    """A field of rank 0 to 3 on ``grid``; the rank is read off ``data``'s shape."""

    grid: Grid
    data: np.ndarray  # (dim,) * rank + (n, n[, n])

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        rank = self.data.ndim - self.grid.dim
        if not 0 <= rank <= 3 or self.data.shape != (self.grid.dim,) * rank + self.grid.shape:
            raise FieldCompatibilityError(
                f"Field: shape {self.data.shape} is not (dim,) * rank + "
                f"{self.grid.shape} with rank 0 to 3")

    @property
    def rank(self) -> int:
        return self.data.ndim - self.grid.dim

    def copy(self) -> "Field":
        return Field(self.grid, self.data.copy())


def zeros(grid: Grid, rank: int) -> Field:
    return Field(grid, np.zeros((grid.dim,) * rank + grid.shape))


def _label(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Q[i, j] x_j pointwise: the label derivative (Q[i, j] d_j g) when
    x = grad g; ``el._cotangent`` applies it to grad ell in place of Q."""
    return np.einsum("ij...,j...->i...", q, x)


def _advection(u: np.ndarray, grad_x: np.ndarray) -> np.ndarray:
    """u_k d_k x from grad_x[k, ...] = d_k x, for a scalar or a vector x: the
    sum over the first index of both arrays."""
    return np.einsum("k...,k...->...", u, grad_x)


def magnitude(field: Field) -> np.ndarray:
    """Pointwise Euclidean/Frobenius magnitude as a plain array."""
    flat = field.data.reshape(-1, *field.grid.shape)
    total = _advection(flat, flat)
    return np.sqrt(total, out=total)


def integral(field: Field) -> float:
    """Box integral of a scalar field (exact for trigonometric polynomials)."""
    return float(np.mean(field.data) * field.grid.volume)


def sup_norm(field: Field) -> float:
    """Sup over points of the pointwise magnitude."""
    return float(np.max(magnitude(field)))


def l2_norm(field: Field) -> float:
    n_points = np.prod(field.grid.shape)
    return float(np.sqrt(np.sum(field.data**2) / n_points * field.grid.volume))


def lp_norm(field: Field, p: float) -> float:
    """(int |f|^p dx)^(1/p) with |.| the pointwise magnitude."""
    mag = magnitude(field)
    return float((np.mean(mag**p) * field.grid.volume) ** (1.0 / p))


def inner(a: Field, b: Field) -> float:
    """L2 inner product int sum_components a*b dx."""
    if a.data.shape != b.data.shape:
        raise FieldCompatibilityError("inner: mismatched field shapes")
    return float(np.sum(a.data * b.data) / np.prod(a.grid.shape) * a.grid.volume)
