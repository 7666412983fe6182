"""Divergence-free initial velocity fields."""
from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .fields import Field, sup_norm
from .grid import Grid, tables
from .spectral import leray_project, to_physical, to_spectral

__all__ = ["make_initial", "taylor_green", "abc_flow", "random_bandlimited",
           "random_scalar"]


def taylor_green(grid: Grid, amplitude: float = 1.0, mode: int = 1) -> Field:
    """Classical Taylor-Green vortex (2D exact decaying solution; 3D standard IC)."""
    kappa = 2.0 * np.pi * mode / grid.length
    x = grid.coords()
    out = np.zeros((grid.dim, *grid.shape))
    if grid.dim == 2:
        out[0] = amplitude * np.sin(kappa * x[0]) * np.cos(kappa * x[1])
        out[1] = -amplitude * np.cos(kappa * x[0]) * np.sin(kappa * x[1])
    else:
        out[0] = amplitude * np.sin(kappa * x[0]) * np.cos(kappa * x[1]) * np.cos(kappa * x[2])
        out[1] = -amplitude * np.cos(kappa * x[0]) * np.sin(kappa * x[1]) * np.cos(kappa * x[2])
    return Field(grid, out)


def abc_flow(grid: Grid, amplitude: float = 1.0, mode: int = 1) -> Field:
    """Beltrami ABC flow with A = B = C = amplitude; curl u = (2 pi mode / L) u."""
    if grid.dim != 3:
        raise ConfigError("abc initial condition requires dim = 3")
    a = amplitude
    kappa = 2.0 * np.pi * mode / grid.length
    x, y, z = grid.coords()
    out = np.stack([
        a * np.sin(kappa * z) + a * np.cos(kappa * y),
        a * np.sin(kappa * x) + a * np.cos(kappa * z),
        a * np.sin(kappa * y) + a * np.cos(kappa * x),
    ])
    return Field(grid, out)


def _band_envelope(grid: Grid, band: int, width: float | None) -> np.ndarray:
    # Gaussian spectral decay inside a hard radial cutoff; keeps products of
    # corpus fields effectively below the Nyquist mode.
    tab = tables(grid)
    radius = np.sqrt(sum(m**2 for m in tab.mode_index))
    width = max(2.0, band / 4.0) if width is None else width
    env = np.exp(-((radius / width) ** 2))
    env[radius > band] = 0.0
    env[(0,) * grid.dim] = 0.0  # zero mean
    return env


def random_scalar(grid: Grid, seed: int, *, band: int | None = None,
                  width: float | None = None) -> Field:
    """Zero-mean, unit-RMS random scalar, band-limited to ``band`` (default n//4).

    ``width`` sets the Gaussian spectral decay inside the band (default
    band/4, at least 2).
    """
    band = grid.n // 4 if band is None else band
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(grid.shape)
    hat = to_spectral(grid, white) * _band_envelope(grid, band, width)
    values = to_physical(grid, hat)
    scale = float(np.sqrt(np.mean(values**2)))
    if scale > 0:
        values *= 1.0 / scale   # not values / scale: artifacts depend on the last bit
    return Field(grid, values)


def random_bandlimited(grid: Grid, seed: int, *, band: int | None = None,
                       amplitude: float = 1.0) -> Field:
    """Random divergence-free velocity with sup |u| = amplitude."""
    band = grid.n // 4 if band is None else band
    rng = np.random.default_rng(seed)
    white = rng.standard_normal((grid.dim, *grid.shape))
    hat = to_spectral(grid, white) * _band_envelope(grid, band, None)
    u = leray_project(Field(grid, to_physical(grid, hat)))
    peak = sup_norm(u)
    if peak > 0:
        u.data *= amplitude / peak
    return u


def make_initial(kind: str, grid: Grid, seed: int = 0, *, amplitude: float = 1.0,
                 band: int | None = None, mode: int = 1) -> Field:
    if kind == "taylor_green":
        return taylor_green(grid, amplitude, mode)
    if kind == "abc":
        return abc_flow(grid, amplitude, mode)
    if kind == "random_bandlimited":
        return random_bandlimited(grid, seed, band=band, amplitude=amplitude)
    raise ConfigError(f"unknown initial condition kind {kind!r}")
