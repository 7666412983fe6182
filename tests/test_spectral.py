"""Spectral-core contracts: transforms, derivatives, Poisson inversion,
divergence-free projection, Riesz pressure and dealiasing."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import elflow
from elflow.errors import FieldCompatibilityError
from elflow.fields import Field, inner, integral, l2_norm, magnitude, sup_norm
from elflow.grid import Grid, tables
from elflow.initial import random_bandlimited, random_scalar, taylor_green
from elflow.spectral import (
    dealias, divergence, gradient, hessian, inverse_laplacian,
    laplacian, leray_project, resample, riesz_pressure, to_physical,
    to_spectral,
)

TWO_PI = 2.0 * np.pi


def fd4_gradient(s: Field, axis: int) -> np.ndarray:
    """4th-order centered finite differences with periodic wrap (oracle)."""
    v = s.data
    h = s.grid.spacing
    return (-np.roll(v, -2, axis) + 8 * np.roll(v, -1, axis)
            - 8 * np.roll(v, 1, axis) + np.roll(v, 2, axis)) / (12 * h)


class TestGrid:
    def test_validation(self):
        with pytest.raises(FieldCompatibilityError):
            Grid(4, 32, TWO_PI)
        with pytest.raises(FieldCompatibilityError):
            Grid(2, 31, TWO_PI)
        with pytest.raises(FieldCompatibilityError):
            Grid(2, 4, TWO_PI)
        with pytest.raises(FieldCompatibilityError):
            Grid(2, 32, -1.0)

    def test_geometry(self):
        g = Grid(2, 32, 4.0)
        assert g.spacing == 0.125
        assert g.volume == 16.0
        x, y = g.coords()
        assert x[1, 0] == g.spacing and y[0, 1] == g.spacing

    def test_mode_indices_are_exact_integers(self):
        """Integer indices for every even n, with no Nyquist wavenumber left
        in the derivative table (a float fftfreq rounds on 14 of these n)."""
        for n in range(8, 514, 2):
            tab = tables(Grid(2, n, TWO_PI))
            full, half = (m.ravel() for m in tab.mode_index)
            assert full.dtype.kind == half.dtype.kind == "i"
            assert full.tolist() == [*range(n // 2), *range(-n // 2, 0)]
            assert half.tolist() == list(range(n // 2 + 1))
            assert tab.k[0].ravel()[n // 2] == tab.k[1].ravel()[n // 2] == 0.0, n


class TestGradient:
    def test_constant_is_zero(self, grid2d):
        s = Field(grid2d, np.full(grid2d.shape, 3.7))
        assert sup_norm(gradient(s)) < 1e-13

    def test_single_mode_exact(self, grid2d):
        x, _ = grid2d.coords()
        kappa = TWO_PI / grid2d.length
        s = Field(grid2d, np.sin(kappa * x))
        grad = gradient(s)
        assert np.max(np.abs(grad.data[0] - kappa * np.cos(kappa * x))) < 1e-12
        assert np.max(np.abs(grad.data[1])) < 1e-13

    def test_nyquist_mode_has_no_derivative_at_n98(self):
        """cos(49 x0) sits on the Nyquist index of n = 98, where d0 is 0."""
        g = Grid(2, 98, TWO_PI)
        x, y = g.coords()
        grad = gradient(Field(g, np.cos(49 * x) * np.sin(3 * y)))
        assert np.max(np.abs(grad.data[0])) <= 1e-12

    def test_components_zero_mean(self, grid2d):
        s = random_scalar(grid2d, 3)
        grad = gradient(s)
        for comp in grad.data:
            assert abs(np.mean(comp)) < 1e-13

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_matches_fd4_at_fourth_order(self, dim, n):
        # same band-limited field sampled on n and 2n grids; FD error drops ~16x
        coarse = random_scalar(Grid(dim, n, TWO_PI), 7, band=n // 4)
        errors = {}
        for factor in (1, 2):
            s = coarse if factor == 1 else resample(coarse, 2 * n)
            grad = gradient(s)
            err = max(np.max(np.abs(grad.data[a] - fd4_gradient(s, a)))
                      for a in range(dim))
            errors[factor] = err
        ratio = errors[1] / errors[2]
        assert 8 < ratio < 32  # nominal 16 for O(h^4)


class TestJacobian:
    def test_uniform_field(self, grid2d):
        v = Field(grid2d, np.ones((2, *grid2d.shape)))
        assert sup_norm(gradient(v)) < 1e-13

    def test_single_entry_convention(self, grid3d):
        # v = (sin(2 pi x2 / L), 0, 0): only d_2 v_1 i.e. entry (1, 0) nonzero
        x = grid3d.coords()
        kappa = TWO_PI / grid3d.length
        comps = np.zeros((3, *grid3d.shape))
        comps[0] = np.sin(kappa * x[1])
        jac = gradient(Field(grid3d, comps))
        expected = kappa * np.cos(kappa * x[1])
        assert np.max(np.abs(jac.data[1, 0] - expected)) < 1e-12
        others = [(i, m) for i in range(3) for m in range(3) if (i, m) != (1, 0)]
        for i, m in others:
            assert np.max(np.abs(jac.data[i, m])) < 1e-13

    def test_matches_fd4_at_fourth_order(self):
        coarse = random_bandlimited(Grid(2, 32, TWO_PI), 5, band=4)
        errors = {}
        for factor in (1, 2):
            v = coarse if factor == 1 else resample(coarse, 64)
            g = v.grid
            jac = gradient(v)
            err = max(
                np.max(np.abs(jac.data[i, m]
                              - fd4_gradient(Field(g, v.data[m]), i)))
                for i in range(2) for m in range(2))
            errors[factor] = err
        assert 8 < errors[1] / errors[2] < 32


class TestLaplacian:
    def test_eigenfunction_inverse(self, grid2d):
        x, _ = grid2d.coords()
        kappa = TWO_PI / grid2d.length
        s = Field(grid2d, np.sin(kappa * x))
        inv = inverse_laplacian(s)
        expected = -(grid2d.length / TWO_PI) ** 2 * np.sin(kappa * x)
        assert np.max(np.abs(inv.data - expected)) < 1e-12

    def test_zero_field(self, grid2d):
        s = Field(grid2d, np.zeros(grid2d.shape))
        assert sup_norm(inverse_laplacian(s)) == 0.0

    def test_roundtrip_zero_mean(self, grid3d):
        s = random_scalar(grid3d, 11)
        back = laplacian(inverse_laplacian(s))
        assert np.max(np.abs(back.data - s.data)) < 1e-12 * max(1, sup_norm(s))

    def test_rejects_nonzero_mean(self, grid2d):
        s = Field(grid2d, np.ones(grid2d.shape))
        with pytest.raises(FieldCompatibilityError):
            inverse_laplacian(s)


class TestLerayProjection:
    def test_kills_gradients(self, grid2d):
        phi = random_scalar(grid2d, 2)
        assert sup_norm(leray_project(gradient(phi))) < 1e-12

    def test_preserves_divergence_free(self, grid2d):
        u = random_bandlimited(grid2d, 3)
        pu = leray_project(u)
        assert np.max(np.abs(pu.data - u.data)) < 1e-12

    def test_output_divergence_free(self, grid3d):
        rng = np.random.default_rng(0)
        v = dealias(Field(grid3d, rng.standard_normal((3, *grid3d.shape))))
        pv = leray_project(v)
        rms = np.sqrt(np.mean(pv.data**2))
        assert sup_norm(divergence(pv)) < 1e-12 * max(rms, 1)

    def test_idempotent(self, grid3d):
        rng = np.random.default_rng(1)
        v = Field(grid3d, rng.standard_normal((3, *grid3d.shape)))
        once = leray_project(v)
        twice = leray_project(once)
        assert np.max(np.abs(twice.data - once.data)) < 1e-12

    def test_helmholtz_decomposition_oracle(self, grid2d):
        # independent construction: v - grad(inverse_laplacian(div v))
        rng = np.random.default_rng(4)
        v = dealias(Field(grid2d, rng.standard_normal((2, *grid2d.shape))))
        expected = v.data - gradient(inverse_laplacian(divergence(v))).data
        got = leray_project(v)
        assert np.max(np.abs(got.data - expected)) < 1e-12

    def test_range_orthogonal_to_gradients(self, grid2d):
        rng = np.random.default_rng(5)
        v = Field(grid2d, rng.standard_normal((2, *grid2d.shape)))
        phi = random_scalar(grid2d, 6)
        ip = inner(leray_project(v), gradient(phi))
        assert abs(ip) < 1e-10 * l2_norm(v) * l2_norm(gradient(phi))


class TestRieszPressure:
    def test_zero_velocity_gives_constant(self, grid2d):
        u = Field(grid2d, np.zeros((2, *grid2d.shape)))
        p = riesz_pressure(u, c=1.5)
        assert np.max(np.abs(p.data - 1.5)) < 1e-14

    def test_taylor_green_closed_form(self):
        # u = a(sin kx cos ky, -cos kx sin ky) has u.grad u = grad(chi) with
        # chi = -(a^2/4)(cos 2kx + cos 2ky), so p = -chi (sign fixed by this
        # orientation; the mirrored vortex flips it)
        g = Grid(2, 64, TWO_PI)
        a = 1.3
        u = taylor_green(g, amplitude=a)
        x, y = g.coords()
        kappa = TWO_PI / g.length
        expected = (a**2 / 4.0) * (np.cos(2 * kappa * x) + np.cos(2 * kappa * y))
        p = riesz_pressure(u)
        assert np.max(np.abs(p.data - expected)) < 1e-10

    def test_poisson_residual(self, grid3d):
        u = random_bandlimited(grid3d, 9, band=3)
        p = riesz_pressure(u)
        adv = np.einsum("i...,im...->m...", u.data,
                        gradient(u).data)
        residual = laplacian(p).data + divergence(
            Field(grid3d, adv)).data
        rms = np.sqrt(np.mean(laplacian(p).data ** 2))
        assert np.max(np.abs(residual)) < 1e-10 * max(rms, 1)


class TestDealias:
    def test_below_cutoff_unchanged(self, grid2d):
        s = random_scalar(grid2d, 1, band=grid2d.n // 3 - 1)
        out = dealias(s)
        assert np.max(np.abs(out.data - s.data)) < 1e-12 * max(1, sup_norm(s))

    def test_above_cutoff_zeroed(self, grid2d):
        x, _ = grid2d.coords()
        mode = grid2d.n // 3 + 2
        s = Field(grid2d, np.cos(mode * TWO_PI / grid2d.length * x))
        assert sup_norm(dealias(s)) < 1e-13

    def test_idempotent(self, grid3d):
        rng = np.random.default_rng(2)
        s = Field(grid3d, rng.standard_normal(grid3d.shape))
        once = dealias(s)
        assert np.max(np.abs(dealias(once).data - once.data)) < 1e-13

    def test_product_matches_refined_grid_convolution(self):
        # the dealiased coarse-grid product equals the exact product computed
        # on a 2x grid, truncated to the coarse cutoff
        g = Grid(2, 32, TWO_PI)
        cut = g.n // 3
        a = random_scalar(g, 21, band=cut)
        b = random_scalar(g, 22, band=cut)
        coarse = dealias(Field(g, a.data * b.data))

        fine_a = resample(a, 2 * g.n)
        fine_b = resample(b, 2 * g.n)
        exact = Field(fine_a.grid, fine_a.data * fine_b.data)
        exact_back = dealias(resample(exact, g.n))
        assert np.max(np.abs(coarse.data - exact_back.data)) < 1e-12

    def test_leibniz_after_dealias(self):
        # spectral derivative of a dealiased product obeys the product rule
        # up to the truncation removed by the refined-grid route
        g = Grid(2, 48, TWO_PI)
        a = random_scalar(g, 31, band=g.n // 3)
        b = random_scalar(g, 32, band=g.n // 3)
        prod = dealias(Field(g, a.data * b.data))
        lhs = gradient(prod).data[0]
        fine = Grid(2, 2 * g.n, TWO_PI)
        fa, fb = resample(a, fine.n), resample(b, fine.n)
        rhs_fine = (gradient(fa).data[0] * fb.data
                    + fa.data * gradient(fb).data[0])
        rhs = dealias(resample(Field(fine, rhs_fine), g.n)).data
        scale = max(np.max(np.abs(rhs)), 1.0)
        assert np.max(np.abs(lhs - rhs)) < 1e-11 * scale


class TestParseval:
    @given(st.integers(0, 10_000), st.sampled_from([2, 3]))
    def test_physical_norm_equals_spectral(self, seed, dim):
        g = Grid(dim, 16, TWO_PI)
        s = random_scalar(g, seed)
        phys_sq = l2_norm(s) ** 2
        hat = to_spectral(g, s.data)
        # rfft stores half the modes; double all except the self-conjugate planes
        weights = np.full(hat.shape, 2.0)
        weights[..., 0] = 1.0
        if g.n % 2 == 0:
            weights[..., -1] = 1.0
        n_total = np.prod(g.shape)
        spec_sq = np.sum(weights * np.abs(hat) ** 2) / n_total**2 * g.volume
        assert np.isclose(phys_sq, spec_sq, rtol=1e-12, atol=1e-14)

    def test_roundtrip(self, grid3d):
        rng = np.random.default_rng(8)
        s = rng.standard_normal(grid3d.shape)
        back = to_physical(grid3d, to_spectral(grid3d, s))
        assert np.max(np.abs(back - s)) < 1e-12


# Run in a fresh process, so that the kernel and scipy.fft load in the order
# named by SCIPY_FFT_FIRST. Prints the (n, stack) cases whose bits differ.
_BITS_SCRIPT = """
import json, sys
import numpy as np
DIM, SCIPY_FFT_FIRST = {dim}, {scipy_fft_first}
if SCIPY_FFT_FIRST:
    import scipy.fft
from elflow.grid import Grid
from elflow.spectral import to_physical, to_spectral
ns, stacks = {{2: ((8, 48, 64, 128), [(), (2,), (4,), (9,)]),
              3: ((8, 16, 32, 48), [(), (3,), (9,), (3, 3)])}}[DIM]
axes = tuple(range(-DIM, 0))
cases = []
for n in ns:
    g = Grid(DIM, n, 2.0 * np.pi)
    for stack in stacks:
        rng = np.random.default_rng(n + len(stack) + sum(stack))
        values = rng.standard_normal((*stack, *g.shape))
        hat = to_spectral(g, values)
        cases.append((n, stack, values, hat, to_physical(g, hat.copy())))
assert ("scipy.fft" in sys.modules) == SCIPY_FFT_FIRST
assert "scipy.special" not in sys.modules or SCIPY_FFT_FIRST
import scipy.fft
differ = [[n, stack] for n, stack, values, hat, back in cases
          if not (np.array_equal(hat, scipy.fft.rfftn(values, axes=axes))
                  and np.array_equal(back, scipy.fft.irfftn(hat, s=(n,) * DIM, axes=axes)))]
print(json.dumps(differ))
"""


class TestTransformBackends:
    """Transforms of both dims run on scipy's compiled pocketfft kernel,
    loaded from its file; scipy.fft's rfftn and irfftn are the reference
    bits."""

    # n = 48 is not a power of two: two scalings by 1/n would round there
    @pytest.mark.parametrize("n", [8, 48, 64, 128])
    @pytest.mark.parametrize("comps", [1, 2, 4, 9])
    def test_2d_matches_scipy_bit_for_bit(self, n, comps):
        import scipy.fft
        g = Grid(2, n, TWO_PI)
        rng = np.random.default_rng(n + comps)
        values = rng.standard_normal(g.shape if comps == 1 else (comps, *g.shape))
        hat = scipy.fft.rfftn(values, axes=(-2, -1))
        assert np.array_equal(to_spectral(g, values), hat)
        assert np.array_equal(to_physical(g, hat.copy()),
                              scipy.fft.irfftn(hat, s=g.shape, axes=(-2, -1)))

    @pytest.mark.parametrize("scipy_fft_first", [False, True],
                             ids=["kernel-first", "scipy-fft-first"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_fresh_process_matches_scipy_bit_for_bit(self, dim, scipy_fft_first):
        """2D: n = 8, 48, 64 and 128 with no, 2, 4 and 9 components; 3D:
        n = 8, 16, 32 and 48 with no, 3, 9 and 3x3 components; each with the
        kernel loaded before scipy.fft is imported and after. n = 48 is not a
        power of two: a wrong scaling would round differently there."""
        src = str(Path(elflow.__file__).resolve().parents[1])
        script = _BITS_SCRIPT.format(dim=dim, scipy_fft_first=scipy_fft_first)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        assert json.loads(proc.stdout.splitlines()[-1]) == []

    def test_missing_kernel_names_scipy_version_and_folder(self, tmp_path, monkeypatch):
        import importlib.machinery
        import importlib.util

        import scipy

        from elflow import spectral
        fake = importlib.machinery.ModuleSpec("scipy", None, origin=str(tmp_path / "__init__.py"))
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: fake)
        with pytest.raises(ImportError, match="pypocketfft") as err:
            spectral._pocketfft.__wrapped__()
        assert scipy.__version__ in str(err.value)
        assert str(tmp_path / "fft" / "_pocketfft") in str(err.value)

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16), (3, 32), (3, 48)])
    def test_in_place_inverse_matches_scipy_bit_for_bit(self, dim, n):
        """The inverse makes its passes in the spectrum it is given and gives
        irfftn's bits. n = 48, not a power of two, checks the single scaling
        by 1/n^dim."""
        import scipy.fft
        g = Grid(dim, n, TWO_PI)
        axes = tuple(range(-dim, 0))
        for stack in [(), (3,), (3, 3)]:
            values = np.random.default_rng(dim).standard_normal((*stack, *g.shape))
            hat = to_spectral(g, values)
            kept = hat.copy()
            assert np.array_equal(to_physical(g, hat),
                                  scipy.fft.irfftn(kept, s=g.shape, axes=axes))
            assert not np.array_equal(hat, kept)    # the passes were made in hat

    # n = 48 is not a power of two
    @pytest.mark.parametrize("dim,n", [(2, 64), (2, 128), (3, 16), (3, 32), (3, 48)])
    @pytest.mark.parametrize("stack", [(), (3,), (3, 3)], ids=["0", "3", "3x3"])
    def test_band_transforms_give_the_in_band_bits(self, dim, n, stack):
        """The banded transforms skip the lines the 2/3 mask zeroes: the
        forward one gives the full spectrum times the mask, the inverse of a
        masked spectrum the full inverse, bit for bit."""
        g = Grid(dim, n, TWO_PI)
        mask = tables(g).dealias_mask
        values = np.random.default_rng(n + len(stack)).standard_normal((*stack, *g.shape))
        full = to_spectral(g, values)
        hat = to_spectral(g, values, band=True)
        assert np.array_equal(hat, full * mask)
        assert not np.any(hat[..., ~mask])
        assert np.array_equal(to_physical(g, hat, band=True), to_physical(g, full * mask))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_solver_states_stay_in_the_band(self, dim, monkeypatch):
        """Every spectrum a solver step inverts with ``band=True`` is exactly
        zero off the mask, over two steps of EL (dynamic potential, forced,
        viscous, one passive scalar and a label reset between the steps),
        classical and cotangent."""
        from elflow import classical, el, spectral
        from elflow.classical import NSState, ns_step
        from elflow.el import (
            WState, cotangent_step, el_step_with_passive, initial_state, reset_labels,
        )
        from elflow.forcing import ForcingSpec

        g = Grid(dim, 16, TWO_PI)
        u0 = random_bandlimited(g, 3, amplitude=1.0, band=g.n // 2)
        force, dt, nu = ForcingSpec("single_mode", amplitude=0.5), 1e-2, 0.05
        seen, full = [], spectral.to_physical   # largest |value| off the mask per banded input

        def spy(grid, hat, *, band=False, out=None):
            if band:
                seen.append(float(np.max(np.abs(hat[..., ~tables(grid).dealias_mask]))))
            return full(grid, hat, band=band, out=out)

        for module in (el, classical, spectral):
            monkeypatch.setattr(module, "to_physical", spy)

        state, passive = initial_state(u0, potential_mode="dynamic"), (random_scalar(g, 4),)
        state, passive = el_step_with_passive(state, force, dt, nu=nu, passive=passive)
        state = reset_labels(state)
        el_step_with_passive(state, force, dt, nu=nu, passive=passive)
        ns = NSState(0.0, u0)
        for _ in range(2):
            ns = ns_step(ns, force, dt, nu=nu)
        w = WState(0.0, u0)
        for _ in range(2):
            w = cotangent_step(w, force, dt, nu=nu)
        # per step, 4 stages and the stepped state: an EL stage inverts 5 spectra,
        # grad v one direction at a time and one per second-derivative block, a
        # classical stage 2, a cotangent 4
        el_calls = 4 * (5 + dim + dim * (dim + 1) // 2) + 1
        assert len(seen) == 2 * (el_calls + (4 * 2 + 1) + (4 * 4 + 1))
        assert max(seen) == 0.0


class TestFieldInvariants:
    def test_shape_validation(self, grid2d):
        with pytest.raises(FieldCompatibilityError):
            Field(grid2d, np.zeros((3, 3)))
        with pytest.raises(FieldCompatibilityError):
            Field(grid2d, np.zeros((3, *grid2d.shape)))
        with pytest.raises(FieldCompatibilityError):   # rank 4
            Field(grid2d, np.zeros((2, 2, 2, 2, *grid2d.shape)))

    def test_mean_and_norms(self, grid2d):
        s = Field(grid2d, np.full(grid2d.shape, 2.0))
        assert integral(s) / grid2d.volume == 2.0
        assert np.isclose(l2_norm(s), 2.0 * np.sqrt(grid2d.volume))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_magnitude_is_the_sum_over_components_bit_for_bit(self, dim):
        grid = Grid(dim, 8, TWO_PI)
        rng = np.random.default_rng(dim)
        for rank in range(4):
            data = rng.standard_normal((dim,) * rank + grid.shape)
            ref = np.sqrt(np.sum(data**2, axis=tuple(range(rank))))
            assert magnitude(Field(grid, data)).tobytes() == ref.tobytes()

    def test_hessian_symmetry(self, grid2d):
        s = random_scalar(grid2d, 13)
        h = hessian(s).data
        assert np.max(np.abs(h[0, 1] - h[1, 0])) == 0.0
