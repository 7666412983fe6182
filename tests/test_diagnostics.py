"""Diagnostics: quadrature closed forms, kinetic-energy bounds, displacement
bounds, the conditional second-derivative bound, pair dispersion (with an
enumeration oracle) and the virtual-velocity growth bound."""
import math

import numpy as np
import pytest

from elflow.classical import NSState, ns_step
from elflow.diagnostics import (
    asserted_pass, displacement_bounds, epsilon_bound, helicity, k_bounds, k_infty,
    pair_dispersion, record_classical, record_el, v_growth,
    write_timeseries_csv,
)
from elflow.el import derive, el_step, initial_state, reset_labels
from elflow.errors import FieldCompatibilityError
from elflow.fields import Field, l2_norm, zeros
from elflow.forcing import ForcingSpec
from elflow.grid import Grid
from elflow.identities import random_displacement
from elflow.initial import abc_flow, random_scalar, taylor_green
from elflow.spectral import gradient

TWO_PI = 2.0 * np.pi
ZERO = ForcingSpec("zero")


def record(state, nu, **kwargs):
    """``record_el`` of a freshly derived state."""
    return record_el(state, derive(state), nu, **kwargs)


def run_el_history(grid, nu, forcing, steps, dt, *, amplitude=0.2, every=10,
                   m_list=(2,), reset_threshold=None):
    state = initial_state(taylor_green(grid, amplitude=amplitude))
    records = [record(state, nu, m_list=m_list, forcing=forcing)]
    from elflow.el import grad_ell_sup
    for step in range(1, steps + 1):
        state = el_step(state, forcing, dt, nu=nu)
        if reset_threshold is not None and grad_ell_sup(state.ell) > reset_threshold:
            state = reset_labels(state)
        if step % every == 0 or step == steps:
            records.append(record(state, nu, m_list=m_list, forcing=forcing))
    return state, records


class TestRecord:
    def test_zero_velocity(self, grid2d):
        rec = record_classical(NSState(0.0, zeros(grid2d, 1)), nu=0.1)
        assert rec.energy == 0.0 and rec.dissipation == 0.0

    def test_single_mode_closed_form(self, grid3d):
        # u = a sin(2 pi x2/L) e1: E = a^2/4, eps = nu (2 pi/L)^2 * 2E
        a, nu = 1.7, 0.3
        x = grid3d.coords()
        kappa = TWO_PI / grid3d.length
        comps = np.zeros((3, *grid3d.shape))
        comps[0] = a * np.sin(kappa * x[1])
        rec = record_classical(NSState(0.0, Field(grid3d, comps)), nu=nu)
        assert np.isclose(rec.energy, a**2 / 4.0, rtol=1e-12)
        assert np.isclose(rec.dissipation, nu * kappa**2 * 2 * rec.energy, rtol=1e-12)

    def test_quadratures_refinement_invariant(self):
        from elflow.spectral import resample
        g = Grid(2, 32, TWO_PI)
        u = taylor_green(g, amplitude=0.7)
        rec = record_classical(NSState(0.0, u), nu=0.05)
        fine = record_classical(NSState(0.0, resample(u, 64)), nu=0.05)
        assert abs(rec.energy - fine.energy) < 1e-12
        assert abs(rec.dissipation - fine.dissipation) < 1e-12

    def test_csv_is_deterministic(self, tmp_path, grid2d):
        state = initial_state(taylor_green(grid2d))
        recs = [record(state, 0.01, m_list=(2,))]
        for target in ("a.csv", "b.csv"):
            write_timeseries_csv(recs, tmp_path / target, m_list=(2,))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestKBounds:
    def test_unforced_specialization(self, grid2d):
        # f = 0: k0 = 2 int|u0|^2, k1 = int|u0|^2, K0 = int|u0|^2
        nu, dt = 0.05, 1e-3
        state = NSState(0.0, taylor_green(grid2d))
        records = [record_classical(state, nu)]
        for _ in range(20):
            state = ns_step(state, ZERO, dt, nu=nu)
        records.append(record_classical(state, nu))
        rep = k_bounds(records, ZERO, nu, grid2d)
        u0_sq = 2.0 * records[0].energy * grid2d.volume
        assert np.isclose(rep.k0, 2 * u0_sq, rtol=1e-12)
        assert np.isclose(rep.k1, u0_sq, rtol=1e-12)
        assert np.isclose(rep.K0, u0_sq, rtol=1e-12)

    def test_eps_bound_arithmetic(self):
        # F = 1, L_f = 1, nu = 0.1 -> eps_B = 10
        class UnitForce(ForcingSpec):
            def mean_square(self):
                return 1.0
            def g_square(self, length):
                return 1.0
        f = UnitForce("single_mode", amplitude=1.0)
        assert np.isclose(f.eps_bound(0.1, TWO_PI), 10.0)
        assert np.isclose(f.length_scale_sq(TWO_PI), 1.0)

    def test_decaying_run_satisfies_energy_balance(self):
        g = Grid(2, 64, TWO_PI)
        nu, dt = 0.05, 1e-3
        state = NSState(0.0, taylor_green(g))
        records = [record_classical(state, nu)]
        for step in range(1, 201):
            state = ns_step(state, ZERO, dt, nu=nu)
            if step % 20 == 0:
                records.append(record_classical(state, nu))
        rep = k_bounds(records, ZERO, nu, g)
        assert asserted_pass(rep.checks)
        en = next(c for c in rep.checks if c.name.startswith("energy_balance"))
        assert en.margin > 1.0

    def test_k0_nondecreasing_in_time(self, grid2d):
        nu, dt = 0.05, 2e-3
        force = ForcingSpec("single_mode", amplitude=0.2)
        state = NSState(0.0, taylor_green(grid2d))
        records = [record_classical(state, nu)]
        k0s = []
        for step in range(1, 31):
            state = ns_step(state, force, dt, nu=nu)
            records.append(record_classical(state, nu))
            k0s.append(k_bounds(records, force, nu, grid2d).K0)
        assert all(b >= a - 1e-12 for a, b in zip(k0s, k0s[1:]))

    def test_incomplete_history_rejected(self, grid2d):
        state = NSState(0.0, taylor_green(grid2d))
        with pytest.raises(FieldCompatibilityError):
            k_bounds([record_classical(state, 0.1)], ZERO, 0.1, grid2d)


class TestKInfty:
    def test_unforced_formula(self):
        g = Grid(3, 16, TWO_PI)
        K0, nu, t = 2.5, 0.1, 0.7
        r, k_inf = k_infty(K0, nu, 0.0, t, ZERO, g)
        assert np.isclose(k_inf, K0 / nu**2 + math.sqrt(nu * t))
        assert r[4] == 0.0

    def test_gamma_choice_collapses_scales(self):
        g = Grid(3, 16, TWO_PI)
        force = ForcingSpec("single_mode", amplitude=0.5)
        r, _ = k_infty(1.0, 0.2, 0.0, 0.5, force, g)
        assert np.isclose(r[1], r[5]) and np.isclose(r[2], r[5]) \
            and np.isclose(r[3], r[5])

    def test_short_time_limits(self):
        g = Grid(3, 16, TWO_PI)
        force = ForcingSpec("single_mode", amplitude=0.5)
        r, _ = k_infty(1.0, 0.2, 0.0, 1e-9, force, g)
        assert r[4] < 1e-15 and r[5] < 1e-4

    def test_rejects_empty_interval(self):
        with pytest.raises(FieldCompatibilityError):
            k_infty(1.0, 0.1, 1.0, 1.0, ZERO, Grid(3, 16, TWO_PI))


class TestDisplacementBounds:
    def test_all_zero_at_t0(self, grid3d):
        state = initial_state(taylor_green(grid3d, amplitude=0.2))
        records = [record(state, 0.05, forcing=ZERO)]
        state = el_step(state, ZERO, 1e-3, nu=0.05)
        records.append(record(state, 0.05, forcing=ZERO))
        assert records[0].ell_inf == 0.0 and records[0].ell_l2 == 0.0

    def test_short_decaying_run_asserted_bounds_hold(self, grid3d):
        nu = 0.05
        _, records = run_el_history(grid3d, nu, ZERO, steps=60, dt=5e-3)
        checks = displacement_bounds(records, ZERO, nu, grid3d)
        asserted = [c for c in checks if c.asserted]
        assert {"sup_displacement(maxdel)", "l2_displacement(elltwo)",
                "l2_displacement_volavg(ltwo)",
                "gradient_time_integral(nablaeltwo)"} \
            == {c.name for c in asserted}
        for c in asserted:
            assert c.passed and c.margin > 1.0
        ratio_only = [c for c in checks if not c.asserted]
        assert any("deltaltwo" in c.name for c in ratio_only)

    def test_2d_asserts_only_dimension_free_bounds(self, grid2d):
        nu = 0.05
        _, records = run_el_history(grid2d, nu, ZERO, steps=30, dt=5e-3)
        checks = displacement_bounds(records, ZERO, nu, grid2d)
        asserted = {c.name for c in checks if c.asserted}
        assert asserted == {"sup_displacement(maxdel)", "l2_displacement(elltwo)"}

    def test_reset_disables_assertions(self, grid2d):
        nu = 0.02
        _, records = run_el_history(grid2d, nu, ZERO, steps=120, dt=5e-3,
                                    amplitude=1.0, reset_threshold=0.05)
        assert any(r.reset_count > 0 for r in records)
        checks = displacement_bounds(records, ZERO, nu, grid2d)
        assert all(not c.asserted for c in checks)
        assert all("not asserted" in c.note for c in checks)


class TestEpsilonBound:
    def test_zero_at_t0(self, grid3d):
        nu = 0.05
        _, records = run_el_history(grid3d, nu, ZERO, steps=20, dt=5e-3)
        rep = epsilon_bound(records, nu, grid3d, ZERO)
        assert records[0].lap_ell_l2 == 0.0
        assert all(s["ratio"] < 1.0 for s in rep.series)  # laminar: lax bound

    def test_exponent_recomputed_from_history(self, grid3d):
        nu = 0.05
        _, records = run_el_history(grid3d, nu, ZERO, steps=20, dt=5e-3)
        rep = epsilon_bound(records, nu, grid3d, ZERO)
        times = np.array([r.t for r in records])
        eps_sq = np.array([r.dissipation**2 for r in records])
        expected = grid3d.length**6 / nu**5 * np.trapezoid(eps_sq, times)
        assert np.isclose(rep.exponent, expected, rtol=1e-12)

    def test_tracks_grad_laplacian_integral(self, grid3d):
        nu = 0.05
        _, records = run_el_history(grid3d, nu, ZERO, steps=20, dt=5e-3)
        rep = epsilon_bound(records, nu, grid3d, ZERO)
        assert rep.grad_lap_time_integral > 0.0


class TestPairDispersion:
    def test_identity_map_under_bound(self, grid2d):
        ell = zeros(grid2d, 1)
        delta0 = grid2d.length / 8
        rep = pair_dispersion(ell, delta0, 20000, 3, t=0.0, E0=0.5, eps_B=0.0)
        assert rep.mean_square_separation <= delta0**2
        assert rep.passed

    def test_matches_full_enumeration(self):
        # exact double sum over all grid-point pairs as the oracle
        g = Grid(2, 8, TWO_PI)
        ell = random_displacement(g, 11, 0.2)
        delta0 = g.length / 4
        coords = np.stack([c.reshape(-1) for c in g.coords()])
        flat = ell.data.reshape(2, -1)
        npts = coords.shape[1]
        dx = coords[:, :, None] - coords[:, None, :]
        dx -= g.length * np.round(dx / g.length)
        da = dx + flat[:, :, None] - flat[:, None, :]
        da -= g.length * np.round(da / g.length)
        exact = float(np.mean(np.sum(dx**2, axis=0)
                              * (np.sum(da**2, axis=0) <= delta0**2)))
        rep = pair_dispersion(ell, delta0, 200_000, 5, t=0.1, E0=0.5, eps_B=0.1)
        assert abs(rep.mean_square_separation - exact) < 4 * rep.standard_error

    def test_standard_error_halves_with_4x_samples(self, grid2d):
        ell = random_displacement(grid2d, 13, 0.1)
        delta0 = grid2d.length / 8
        se1 = pair_dispersion(ell, delta0, 20_000, 7, t=0.1, E0=0.5,
                              eps_B=0.1).standard_error
        se2 = pair_dispersion(ell, delta0, 80_000, 7, t=0.1, E0=0.5,
                              eps_B=0.1).standard_error
        assert 0.7 < se1 / (2 * se2) < 1.4

    def test_small_sample_warning(self, grid2d):
        rep = pair_dispersion(zeros(grid2d, 1), 0.5, 500, 1, t=0.0,
                              E0=0.5, eps_B=0.0)
        assert "WARNING" in rep.note


class TestVGrowth:
    def test_threshold_arithmetic(self, grid3d):
        nu = 0.05
        _, records = run_el_history(grid3d, nu, ZERO, steps=10, dt=5e-3)
        rep = v_growth(records, nu=nu, grid=grid3d, m=2)
        assert np.isclose(rep.threshold, math.sqrt(0.5))

    def test_condition_trivially_holds_at_t0(self, grid3d):
        nu = 0.05
        _, records = run_el_history(grid3d, nu, ZERO, steps=10, dt=5e-3)
        assert records[0].c_l3 == 0.0
        rep = v_growth(records, nu=nu, grid=grid3d, m=2)
        assert rep.condition_holds_until > 0.0

    def test_unforced_bound_holds(self, grid3d):
        nu = 0.05
        _, records = run_el_history(grid3d, nu, ZERO, steps=60, dt=5e-3)
        rep = v_growth(records, nu=nu, grid=grid3d, m=2)
        assert asserted_pass(rep.checks) and rep.checks

    def test_validates_inputs(self, grid3d):
        nu = 0.05
        _, records = run_el_history(grid3d, nu, ZERO, steps=5, dt=5e-3)
        with pytest.raises(FieldCompatibilityError):
            v_growth(records, nu=nu, grid=grid3d, m=1)


class TestHelicity:
    def test_abc_closed_form(self):
        # Beltrami field: curl u = kappa u, so int u.omega = kappa int |u|^2
        g = Grid(3, 16, TWO_PI)
        a = 0.8
        u = abc_flow(g, amplitude=a)
        kappa = TWO_PI / g.length
        expected = kappa * l2_norm(u) ** 2
        assert np.isclose(helicity(u, u), expected, rtol=1e-12)
        # closed form of the norm itself: mean |u|^2 = 3 a^2
        assert np.isclose(l2_norm(u) ** 2, 3 * a**2 * g.volume, rtol=1e-12)

    def test_gradient_component_contributes_nothing(self, grid3d):
        u = abc_flow(grid3d, amplitude=0.5)
        phi = random_scalar(grid3d, 3)
        w_shifted = Field(grid3d,
                                u.data + gradient(phi).data)
        assert np.isclose(helicity(w_shifted, u), helicity(u, u), rtol=1e-10)

    def test_2d_not_applicable(self, grid2d):
        u = taylor_green(grid2d)
        assert helicity(u, u) is None
