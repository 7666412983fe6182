"""Periodic cubic grid descriptor and cached wavenumber tables.

All fields in the package live on a uniform periodic grid with the same
number of points ``n`` along each of ``dim`` axes and period ``length``.
Collocation points are x_j = j*h with h = length/n. Spectral representations
use real-to-complex transforms over the spatial axes (Hermitian-symmetric
storage, last axis halved). The wavenumber tables are built from exact
integer mode indices, so they hold for every even n, and nothing here loads
``numpy.fft``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FieldCompatibilityError

__all__ = ["Grid", "tables"]


@dataclass(frozen=True)
class Grid:
    """Periodic box descriptor: ``dim`` in {2, 3}, ``n`` points per axis, period ``length``."""

    dim: int
    n: int
    length: float

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise FieldCompatibilityError(f"dim must be 2 or 3, got {self.dim}")
        if self.n < 8 or self.n % 2 != 0:
            raise FieldCompatibilityError(f"n must be even and >= 8, got {self.n}")
        if not (self.length > 0 and math.isfinite(self.length)):
            raise FieldCompatibilityError(f"length must be positive, got {self.length}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def cutoff(self) -> int:
        """The largest |mode index| the 2/3 rule keeps on every axis, n // 3:
        the band of every solver state and of the banded transforms."""
        return self.n // 3

    @property
    def spacing(self) -> float:
        return self.length / self.n

    @property
    def volume(self) -> float:
        return self.length**self.dim

    def axis_points(self) -> np.ndarray:
        """Collocation points along one axis."""
        return np.arange(self.n) * self.spacing

    def coords(self) -> tuple[np.ndarray, ...]:
        """Meshgrid of collocation points, ``ij`` indexing."""
        x = self.axis_points()
        return np.meshgrid(*([x] * self.dim), indexing="ij")


class SpectralTables:
    """Precomputed wavenumber arrays for one grid (read-only, cached).

    ``mode_index[j]`` holds the exact integer indices along axis j (``0 ..
    n/2-1, -n/2 .. -1``, or ``0 .. n/2`` on the halved last axis),
    broadcastable over the rfftn output shape ``kshape``. ``k[j]`` are
    derivative wavenumbers with the Nyquist index (|m| = n/2) zeroed, since
    its sign is ambiguous in odd-order derivatives. ``k2`` is the full |k|^2
    including the Nyquist mode, so Poisson inversion round-trips exactly.
    """

    def __init__(self, grid: Grid):
        n, dim = grid.n, grid.dim
        scale = 2.0 * np.pi / grid.length
        self.kshape = (n,) * (dim - 1) + (n // 2 + 1,)
        full = np.arange(n)
        full[n // 2:] -= n
        self.mode_index = tuple(
            (full if axis < dim - 1 else np.arange(n // 2 + 1)).reshape(
                [-1 if j == axis else 1 for j in range(dim)])
            for axis in range(dim))

        self.k = tuple(scale * np.where(np.abs(m) == n // 2, 0, m) for m in self.mode_index)
        self.ik = tuple(1j * kj for kj in self.k)
        self.k2 = sum((scale * m) ** 2 for m in self.mode_index)
        self.inv_k2 = _inverse(self.k2)
        # Same inverse built from the derivative wavenumbers: operators that
        # combine first derivatives with a Poisson solve (projection, Riesz
        # forms) must use one consistent k or they stop being projections.
        self.inv_k2_deriv = _inverse(sum(kj**2 for kj in self.k))
        self.dealias_mask = functools.reduce(
            np.logical_and, (np.abs(m) <= grid.cutoff for m in self.mode_index))

        for arr in (*self.k, *self.ik, self.k2, self.inv_k2, self.inv_k2_deriv,
                    self.dealias_mask, *self.mode_index):
            arr.setflags(write=False)


def _inverse(k2: np.ndarray) -> np.ndarray:
    """1/k2 where k2 > 0, and 0 at the zero mode."""
    inv = np.zeros_like(k2)
    nonzero = k2 > 0
    inv[nonzero] = 1.0 / k2[nonzero]
    return inv


@functools.lru_cache(maxsize=32)
def tables(grid: Grid) -> SpectralTables:
    return SpectralTables(grid)
