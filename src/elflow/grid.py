"""Periodic cubic grid descriptor and cached wavenumber tables.

All fields in the package live on a uniform periodic grid with the same
number of points ``n`` along each of ``dim`` axes and period ``length``.
Collocation points are x_j = j*h with h = length/n. Spectral representations
use real-to-complex transforms over the spatial axes (Hermitian-symmetric
storage, last axis halved).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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

    ``k[j]`` are derivative wavenumbers (Nyquist mode zeroed, see below),
    broadcastable over the rfftn output shape ``kshape``. ``k2`` is the full
    |k|^2 including the Nyquist mode, so Poisson inversion round-trips
    exactly; the Nyquist mode is dropped only from odd-order derivatives,
    where its sign is ambiguous.
    """

    def __init__(self, grid: Grid):
        n, dim = grid.n, grid.dim
        scale = 2.0 * np.pi / grid.length
        self.kshape = (n,) * (dim - 1) + (n // 2 + 1,)

        index_full, k, k_full = [], [], []
        for axis in range(dim):
            if axis == dim - 1:
                m = np.arange(n // 2 + 1, dtype=float)
            else:
                m = np.fft.fftfreq(n, d=1.0 / n)
            shape = [1] * dim
            shape[axis] = m.size
            m = m.reshape(shape)
            m_deriv = np.where(np.abs(m) == n // 2, 0.0, m)
            index_full.append(m)
            k.append(scale * m_deriv)
            k_full.append(scale * m)

        self.k = tuple(k)
        self.ik = tuple(1j * kj for kj in k)
        self.k2 = sum(kf**2 for kf in k_full)
        inv = np.zeros_like(self.k2)
        nonzero = self.k2 > 0
        inv[nonzero] = 1.0 / self.k2[nonzero]
        self.inv_k2 = inv
        # Same inverse built from the derivative wavenumbers: operators that
        # combine first derivatives with a Poisson solve (projection, Riesz
        # forms) must use one consistent k or they stop being projections.
        k2d = sum(kd**2 for kd in k)
        invd = np.zeros_like(k2d)
        nonzero = k2d > 0
        invd[nonzero] = 1.0 / k2d[nonzero]
        self.inv_k2_deriv = invd

        cutoff = n // 3
        keep = np.ones(self.kshape, dtype=bool)
        for m in index_full:
            keep &= np.abs(m) <= cutoff
        self.dealias_mask = keep
        self.mode_index = tuple(index_full)

        for arr in (*self.k, *self.ik, self.k2, self.inv_k2, self.inv_k2_deriv,
                    self.dealias_mask, *self.mode_index):
            arr.setflags(write=False)


@lru_cache(maxsize=32)
def tables(grid: Grid) -> SpectralTables:
    return SpectralTables(grid)
