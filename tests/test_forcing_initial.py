"""Forcing catalog closed forms and initial-condition constructors."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from elflow.errors import ConfigError
from elflow.fields import l2_norm, sup_norm, Field
from elflow.forcing import ForcingSpec
from elflow.grid import Grid, tables
from elflow.initial import abc_flow, make_initial, random_bandlimited, taylor_green
from elflow.spectral import curl, divergence, dealias, to_physical, to_spectral

TWO_PI = 2.0 * np.pi


class TestForcingCatalog:
    def test_zero_entry(self, grid2d):
        f = ForcingSpec("zero")
        assert f.is_zero
        assert sup_norm(f.field(grid2d)) == 0.0
        assert f.mean_square() == 0.0
        assert f.eps_bound(0.1, grid2d.length) == 0.0

    @pytest.mark.parametrize("kind,kwargs", [
        ("single_mode", {"amplitude": 0.7, "mode": 2}),
        ("multi_mode", {"amplitude": 0.5, "modes": (1, 3), "second_weight": 0.4}),
        ("zero", {}),
    ])
    def test_divergence_free_and_band_limited(self, grid3d, kind, kwargs):
        f = ForcingSpec(kind, **kwargs)
        field = f.field(grid3d)
        rms = max(np.sqrt(np.mean(field.data**2)), 1e-12)
        assert sup_norm(divergence(field)) < 1e-12 * rms
        trimmed = dealias(field)
        assert np.max(np.abs(trimmed.data - field.data)) < 1e-12
        # F^2 and G^2, sums over the kind's shear rows, against quadrature
        f2, g2 = f.mean_square(), f.g_square(grid3d.length)
        assert type(f2) is float and type(g2) is float
        assert np.isclose(f2, l2_norm(field) ** 2 / grid3d.volume, rtol=1e-12, atol=0)
        half = np.sqrt(tables(grid3d).inv_k2) * to_spectral(grid3d, field.data)
        quad_g2 = l2_norm(Field(grid3d, to_physical(grid3d, half))) ** 2 / grid3d.volume
        assert np.isclose(g2, quad_g2, rtol=1e-12, atol=0)

    def test_single_mode_closed_forms_match_quadrature(self, grid3d):
        a, k = 0.9, 2
        f = ForcingSpec("single_mode", amplitude=a, mode=k)
        field = f.field(grid3d)
        quad_f2 = l2_norm(field) ** 2 / grid3d.volume
        assert np.isclose(f.mean_square(), quad_f2, rtol=1e-12)
        assert np.isclose(f.mean_square(), a * a / 2, rtol=1e-12)
        kappa = TWO_PI * k / grid3d.length
        assert np.isclose(f.length_scale_sq(grid3d.length), 1 / kappa**2, rtol=1e-12)
        assert np.isclose(f.eps_bound(0.1, grid3d.length),
                          f.mean_square() * f.length_scale_sq(grid3d.length) / 0.1)

    def test_multi_mode_closed_forms_match_quadrature(self, grid2d):
        a, w = 0.6, 0.3
        f = ForcingSpec("multi_mode", amplitude=a, modes=(1, 2), second_weight=w)
        field = f.field(grid2d)
        assert np.isclose(f.mean_square(), l2_norm(field) ** 2 / grid2d.volume,
                          rtol=1e-12)
        # G^2 via the spectral inverse-half-laplacian quadrature
        tab = tables(grid2d)
        hat = to_spectral(grid2d, field.data)
        half = np.sqrt(tab.inv_k2) * hat
        quad_g2 = l2_norm(Field(grid2d, to_physical(grid2d, half))) ** 2 \
            / grid2d.volume
        assert np.isclose(f.g_square(grid2d.length), quad_g2, rtol=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ForcingSpec("stochastic")


class TestInitialConditions:
    def test_taylor_green_divergence_free(self, grid2d):
        u = taylor_green(grid2d)
        assert sup_norm(divergence(u)) < 1e-14 * max(sup_norm(u), 1)

    def test_taylor_green_3d(self, grid3d):
        u = taylor_green(grid3d, amplitude=0.5)
        rms = np.sqrt(np.mean(u.data**2))
        assert sup_norm(divergence(u)) < 1e-12 * rms

    def test_abc_is_beltrami(self, grid3d):
        u = abc_flow(grid3d, amplitude=0.7, mode=1)
        kappa = TWO_PI / grid3d.length
        omega = curl(u)
        assert np.max(np.abs(omega.data - kappa * u.data)) < 1e-12

    def test_abc_needs_3d(self, grid2d):
        with pytest.raises(ConfigError):
            abc_flow(grid2d)

    @given(st.integers(0, 10_000))
    def test_random_bandlimited_divergence_free(self, seed):
        g = Grid(2, 16, TWO_PI)
        u = random_bandlimited(g, seed)
        rms = max(np.sqrt(np.mean(u.data**2)), 1e-12)
        assert sup_norm(divergence(u)) < 1e-11 * rms

    def test_random_seed_reproducible(self, grid3d):
        a = make_initial("random_bandlimited", grid3d, seed=123)
        b = make_initial("random_bandlimited", grid3d, seed=123)
        assert np.array_equal(a.data, b.data)
        c = make_initial("random_bandlimited", grid3d, seed=124)
        assert not np.array_equal(a.data, c.data)

    def test_amplitude_scaling(self, grid2d):
        u = make_initial("random_bandlimited", grid2d, seed=3, amplitude=0.25)
        assert np.isclose(sup_norm(u), 0.25, rtol=1e-12)

    def test_unknown_kind(self, grid2d):
        with pytest.raises(ConfigError):
            make_initial("vortex_sheet", grid2d)
