"""Steady, divergence-free, band-limited body-force catalog.

Each entry has closed-form mean-square amplitudes, so the forcing statistics
used by the energy bounds never rely on quadrature:

* ``F2``  = volume average of |f|^2,
* ``G2``  = volume average of |(-laplacian)^(-1/2) f|^2,
* ``Lf2`` = G2 / F2, the squared forcing length scale.

Catalog: ``zero``; ``single_mode`` (one shear mode, amplitude a, wavenumber
index k: f = a sin(2 pi k x2 / L) e1); ``multi_mode`` (two orthogonal shear
modes at indices k1, k2, the second weighted by ``second_weight``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fields import Field, zeros
from .grid import Grid

__all__ = ["ForcingSpec"]

_KINDS = ("zero", "single_mode", "multi_mode")


@dataclass(frozen=True)
class ForcingSpec:
    kind: str = "zero"
    amplitude: float = 0.0
    mode: int = 1
    modes: tuple[int, int] = (1, 2)
    second_weight: float = 0.5

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown forcing kind {self.kind!r}; choose from {_KINDS}")
        if self.kind != "zero" and self.amplitude < 0:
            raise ConfigError("forcing amplitude must be nonnegative")
        if self.mode < 1 or len(self.modes) != 2 or min(self.modes) < 1:
            raise ConfigError("forcing mode must be >= 1 and modes two indices >= 1")

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero" or self.amplitude == 0.0

    def field(self, grid: Grid) -> Field:
        """Sample the force on ``grid`` (the catalog is steady)."""
        if self.is_zero:
            return zeros(grid, 1)
        x = grid.coords()
        out = np.zeros((grid.dim, *grid.shape))
        two_pi = 2.0 * np.pi / grid.length
        if self.kind == "single_mode":
            out[0] = self.amplitude * np.sin(two_pi * self.mode * x[1])
        else:
            k1, k2 = self.modes
            out[0] = self.amplitude * np.sin(two_pi * k1 * x[1])
            out[1] = self.amplitude * self.second_weight * np.sin(two_pi * k2 * x[0])
        return Field(grid, out)

    def mean_square(self) -> float:
        """F^2, independent of the box size."""
        if self.is_zero:
            return 0.0
        if self.kind == "single_mode":
            return 0.5 * self.amplitude**2
        return 0.5 * self.amplitude**2 * (1.0 + self.second_weight**2)

    def g_square(self, length: float) -> float:
        """G^2 for a box of period ``length``."""
        if self.is_zero:
            return 0.0
        two_pi = 2.0 * np.pi / length
        if self.kind == "single_mode":
            return 0.5 * self.amplitude**2 / (two_pi * self.mode) ** 2
        k1, k2 = self.modes
        return 0.5 * self.amplitude**2 * (
            1.0 / (two_pi * k1) ** 2 + self.second_weight**2 / (two_pi * k2) ** 2
        )

    def length_scale_sq(self, length: float) -> float:
        """L_f^2 = G^2/F^2 (0 for the zero entry)."""
        f2 = self.mean_square()
        return self.g_square(length) / f2 if f2 > 0 else 0.0

    def eps_bound(self, nu: float, length: float) -> float:
        """Dissipation-rate bound F^2 L_f^2 / nu, computed as G^2/nu."""
        if nu <= 0:
            return 0.0 if self.is_zero else float("inf")
        return self.g_square(length) / nu
