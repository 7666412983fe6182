"""Steady, divergence-free, band-limited body-force catalog.

Each entry has closed-form mean-square amplitudes, so the forcing statistics
used by the energy bounds never rely on quadrature:

* ``F2``  = volume average of |f|^2,
* ``G2``  = volume average of |(-laplacian)^(-1/2) f|^2,
* ``Lf2`` = G2 / F2, the squared forcing length scale.

Each kind is a tuple of shear-mode rows ``(amplitude, index, component,
axis)``, one row per term a sin(2 pi k x_axis / L) e_component; the field,
F2 and G2 are sums over the rows, started from zero. Catalog: ``zero`` (no
rows); ``single_mode`` (one row, amplitude a, wavenumber index k:
f = a sin(2 pi k x2 / L) e1); ``multi_mode`` (two orthogonal rows at
indices k1, k2, the second weighted by ``second_weight``).
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

    def _shears(self) -> tuple[tuple[float, int, int, int], ...]:
        """The kind's shear modes as ``(amplitude, index, component, axis)``
        rows: each adds amplitude sin(2 pi index x_axis / L) to component."""
        if self.kind == "single_mode":
            return ((self.amplitude, self.mode, 0, 1),)
        if self.kind == "multi_mode":
            k1, k2 = self.modes
            return ((self.amplitude, k1, 0, 1),
                    (self.amplitude * self.second_weight, k2, 1, 0))
        return ()

    def field(self, grid: Grid) -> Field:
        """Sample the force on ``grid`` (the catalog is steady)."""
        out = zeros(grid, 1)
        two_pi = 2.0 * np.pi / grid.length
        for a, k, component, axis in self._shears():
            x = grid.axis_points().reshape([-1 if j == axis else 1 for j in range(grid.dim)])
            out.data[component] += a * np.sin(two_pi * k * x)
        return out

    def mean_square(self) -> float:
        """F^2, independent of the box size."""
        return sum((0.5 * a**2 for a, *_ in self._shears()), 0.0)

    def g_square(self, length: float) -> float:
        """G^2 for a box of period ``length``."""
        two_pi = 2.0 * np.pi / length
        return sum((0.5 * a**2 / (two_pi * k) ** 2 for a, k, *_ in self._shears()), 0.0)

    def length_scale_sq(self, length: float) -> float:
        """L_f^2 = G^2/F^2 (0 for the zero entry)."""
        f2 = self.mean_square()
        return self.g_square(length) / f2 if f2 > 0 else 0.0

    def eps_bound(self, nu: float, length: float) -> float:
        """Dissipation-rate bound F^2 L_f^2 / nu, computed as G^2/nu."""
        if nu <= 0:
            return 0.0 if self.is_zero else float("inf")
        return self.g_square(length) / nu
