"""Displacement / virtual-velocity solver contracts.

Closed-form oracles: nilpotent shear inverse, single-mode commutator
coefficients, manufactured cotangent balance; cross-route self-checks for
the velocity reconstruction; the classical solver as trajectory oracle.
"""
from dataclasses import replace

import numpy as np
import pytest

from elflow import spectral
from elflow.classical import NSState, _nonlinear_hat, ns_step
from elflow.el import (
    WState, compute_C, compute_Q, compute_w,
    cotangent_step, derive, el_step, el_step_with_passive,
    initial_state, reconstruct_u, reset_labels, _commutator,
    _commutator_rows, _commutator_source, _cotangent_nonlinear_hat,
    _potential_rhs_hat, _stage_terms,
)
from elflow.errors import BlowUpError, CFLViolationError, NearSingularJacobianError
from elflow.fields import Field, _advection, _label, l2_norm, magnitude, sup_norm, zeros
from elflow.forcing import ForcingSpec
from elflow.grid import Grid, tables
from elflow.identities import make_test_state, random_displacement
from elflow.initial import random_bandlimited, random_scalar, taylor_green
from elflow.runner import el_sample
from elflow.spectral import (
    band_index, divergence, gradient, laplacian, leray_project, pack,
    second_derivs, to_physical, to_spectral,
)
from elflow.stepping import CFL_LIMIT, if_rk4_step

TWO_PI = 2.0 * np.pi
ZERO = ForcingSpec("zero")


def shear_displacement(grid, eps):
    """ell = (eps sin(2 pi x2 / L), 0[, 0]): nilpotent deformation."""
    x = grid.coords()
    kappa = TWO_PI / grid.length
    comps = np.zeros((grid.dim, *grid.shape))
    comps[0] = eps * np.sin(kappa * x[1])
    return Field(grid, comps), kappa


def stage_rates(state, nu, force=None):
    """Full time derivatives of (ell, v[, n]) at ``state``: the RK stage
    right-hand sides plus the viscous terms, in physical space."""
    grid = state.ell.grid
    k2 = tables(grid).k2
    lhat = to_spectral(grid, state.ell.data)
    vhat = to_spectral(grid, state.v.data)
    g_ell, g_v = (np.zeros_like(lhat) for _ in range(2))
    band = band_index(grid)
    ws = np.empty((2, grid.dim, grid.dim, *grid.shape))
    g_ell[band], g_v[band], u = _stage_terms(grid, nu, lhat, vhat, force, ws)
    rates = [to_physical(grid, g_ell - nu * k2 * lhat),
             to_physical(grid, g_v - nu * k2 * vhat)]
    if state.potential_mode == "dynamic":
        nhat = to_spectral(grid, state.n_pot.data)
        rates.append(to_physical(
            grid, _potential_rhs_hat(grid, nhat, u) - nu * k2 * nhat))
    return rates


def grad_a_of(ell):
    gA = gradient(ell).data.copy()
    for i in range(ell.grid.dim):
        gA[i, i] += 1.0
    return Field(ell.grid, gA)


class TestComputeQ:
    def test_identity_at_zero_displacement(self, grid3d):
        q = compute_Q(zeros(grid3d, 1))
        eye = np.zeros_like(q.data)
        for i in range(3):
            eye[i, i] = 1.0
        assert np.max(np.abs(q.data - eye)) == 0.0

    def test_nilpotent_shear_closed_form(self, grid3d):
        # grad A = I + N with a single off-diagonal entry, N^2 = 0 => Q = I - N
        ell, kappa = shear_displacement(grid3d, 0.3)
        x = grid3d.coords()
        b = 0.3 * kappa * np.cos(kappa * x[1])
        q = compute_Q(ell)
        assert np.max(np.abs(q.data[1, 0] + b)) < 1e-12
        for i in range(3):
            assert np.max(np.abs(q.data[i, i] - 1.0)) < 1e-12
        zero_entries = [(0, 1), (0, 2), (1, 2), (2, 0), (2, 1)]
        for i, j in zero_entries:
            assert np.max(np.abs(q.data[i, j])) < 1e-12

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_adjugate_inverse_residual(self, dim, n):
        grid = Grid(dim, n, TWO_PI)
        ell = random_displacement(grid, 9, 0.05)
        gA = grad_a_of(ell)
        q = compute_Q(ell)
        prod = np.einsum("im...,mj...->ij...", gA.data, q.data)
        for i in range(dim):
            prod[i, i] -= 1.0
        assert np.max(np.abs(prod)) < 1e-12

    def test_near_singular_raises_with_location(self):
        grid = Grid(2, 32, TWO_PI)
        x = grid.coords()
        kappa = TWO_PI / grid.length
        comps = np.zeros((2, *grid.shape))
        comps[0] = -(0.95 / kappa) * np.sin(kappa * x[0])  # det dips to 0.05
        ell = Field(grid, comps)
        with pytest.raises(NearSingularJacobianError) as err:
            compute_Q(ell)
        assert err.value.det_value < 0.1
        assert len(err.value.point) == 2


class TestComputeC:
    def test_zero_displacement(self, grid3d):
        ell = zeros(grid3d, 1)
        c = compute_C(ell, compute_Q(ell))
        assert sup_norm(c) == 0.0

    def test_single_mode_symbolic_oracle(self, grid3d):
        # shear: only d_1 d_1 A_0 survives, and Q's column 1 is e_1, so the
        # only nonzero coefficient is C[0, 1; 1] = -eps k^2 sin(k x2)
        eps = 0.2
        ell, kappa = shear_displacement(grid3d, eps)
        c = compute_C(ell, compute_Q(ell)).data
        x = grid3d.coords()
        expected = -eps * kappa**2 * np.sin(kappa * x[1])
        rng = np.random.default_rng(3)
        for _ in range(10):
            pt = tuple(rng.integers(0, grid3d.n, size=3))
            assert abs(c[(0, 1, 1) + pt] - expected[pt]) < 1e-10
        mask = np.ones((3, 3, 3), dtype=bool)
        mask[0, 1, 1] = False
        assert np.max(np.abs(c[mask])) < 1e-10

    @pytest.mark.parametrize("dim,n", [(2, 48), (3, 24)])
    def test_braces_identity(self, dim, n):
        # (d_i A^m) C[r, q; m] = d_q d_i A^r, pointwise
        grid = Grid(dim, n, TWO_PI)
        ell = random_displacement(grid, 5, 0.1)
        gA = grad_a_of(ell)
        c = compute_C(ell, compute_Q(ell)).data
        lhs = np.einsum("im...,rqm...->iqr...", gA.data, c)
        hess = np.stack([gradient(gradient(
            Field(grid, ell.data[r]))).data
            for r in range(dim)])  # [r, q, i]
        rhs = np.einsum("rqi...->iqr...", hess)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(np.max(np.abs(rhs)), 1)


def dense_second_derivs(grid, lhat):
    """d2[m, k, j] = d_j d_k ell_m as one array (reference only)."""
    tab = tables(grid)
    d = grid.dim
    out = np.empty((d, d, d, *grid.shape))
    for k in range(d):
        for j in range(d):
            out[:, k, j] = to_physical(grid, -(tab.k[j] * tab.k[k]) * lhat)
    return out


class TestStreamedCommutator:
    """C and the stage source C[m, k; i] d_k v_m, accumulated from second
    derivative blocks, against the whole-tensor einsum contraction."""

    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_matches_dense_reference(self, dim, n):
        grid = Grid(dim, n, TWO_PI)
        ell = random_displacement(grid, 7, 0.2)
        lhat = to_spectral(grid, ell.data)
        q = compute_Q(ell).data
        gv = gradient(random_bandlimited(grid, 8)).data  # [k, m] = d_k v_m
        c_ref = np.einsum("ij...,mkj...->mki...", q, dense_second_derivs(grid, lhat))
        source_ref = np.einsum("mki...,km...->i...", c_ref, gv)
        assert np.max(np.abs(c_ref)) > 0.1
        c = _commutator(grid, q, lhat)
        source = _commutator_source(grid, q, lhat, gv)
        assert np.max(np.abs(c - c_ref)) <= 1e-13 * np.max(np.abs(c_ref))
        assert (np.max(np.abs(source - source_ref))
                <= 1e-13 * np.max(np.abs(source_ref)))

    @pytest.mark.parametrize("moved", [False, True])
    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_rows_stack_to_the_component_stacked_sum(self, dim, n, moved):
        # the rows, one component of ell at a time, give bit for bit the C
        # summed from the second-derivative blocks of all components at once
        grid = Grid(dim, n, TWO_PI)
        ell = random_displacement(grid, 7, 0.2) if moved else zeros(grid, 1)
        lhat = to_spectral(grid, ell.data)
        q = compute_Q(ell).data
        ref = np.zeros((dim, dim, dim, *grid.shape))
        for k, j, block in second_derivs(grid, lhat):
            for m in range(dim):
                ref[m, k] += q[:, j] * block[m]
                if j != k:
                    ref[m, j] += q[:, k] * block[m]
        assert np.stack(list(_commutator_rows(grid, q, lhat))).tobytes() == ref.tobytes()
        assert _commutator(grid, q, lhat).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("moved", [False, True])
    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_derive_magnitude_is_that_of_the_whole_C(self, dim, n, moved):
        grid = Grid(dim, n, TWO_PI)
        state = (make_test_state(grid, 4, 0.2) if moved
                 else initial_state(random_bandlimited(grid, 4)))
        whole = magnitude(compute_C(state.ell, compute_Q(state.ell)))
        assert derive(state).C_magnitude.data.tobytes() == whole.tobytes()


def explicit_sum(a, b):
    """sum_k a[k] * b[k] pointwise, summed from zero in the order k = 0, 1, ..."""
    out = np.zeros(np.broadcast_shapes(a.shape[1:], b.shape[1:]))
    for k in range(len(a)):
        out += a[k] * b[k]
    return out


class TestPointwiseSums:
    """The contractions of the EL algebra against explicit sums from zero:
    the same bits, signed zeros and strided views included."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_match_explicit_sum_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        grid = Grid(dim, 8, TWO_PI)

        def draw(*lead):   # exact zeros of both signs among the values
            shape = lead + grid.shape
            return (rng.choice([0.0, -0.0, 1.0, -1.0], size=shape)
                    * rng.uniform(0.5, 2.0, size=shape))

        q, x, u, gx = draw(dim, dim), draw(dim), draw(dim), draw(dim, dim)
        c = draw(dim, dim, dim)
        pairs = [
            (_label(q, x), np.stack([explicit_sum(row, x) for row in q])),
            (_advection(u, x), explicit_sum(u, x)),
            (_advection(u, gx), explicit_sum(u, gx)),
            (np.einsum("k...,k...->...", u, u), explicit_sum(u, u)),
            (np.einsum("k...,k...->...", u, u), np.sum(u * u, axis=0)),
        ]
        # strided views, as the identity checks pass them (q[:, j], gA[:, m])
        for j in range(dim):
            pairs += [
                (_label(q, c[:, j]), np.stack([explicit_sum(row, c[:, j]) for row in q])),
                (_advection(q[:, j], c[:, j]), explicit_sum(q[:, j], c[:, j])),
                (_advection(u, q[:, j]), explicit_sum(u, q[:, j])),
            ]
        for data in (x[0], x, q, c, q.transpose(1, 0, *range(2, 2 + dim)), c[:, 1]):
            flat = data.reshape(-1, *grid.shape)
            pairs.append((magnitude(Field(grid, data)), np.sqrt(explicit_sum(flat, flat))))
        for got, ref in pairs:
            assert got.shape == ref.shape
            assert got.tobytes() == np.ascontiguousarray(ref).tobytes()


class TestReconstruction:
    def test_fresh_state_returns_initial_velocity(self, grid2d):
        u0 = random_bandlimited(grid2d, 1)
        u, n = reconstruct_u(zeros(grid2d, 1), u0)
        assert np.max(np.abs(u.data - u0.data)) < 1e-12
        assert sup_norm(n) < 1e-12

    def test_gradient_virtual_velocity_reconstructs_zero(self, grid2d):
        phi = random_scalar(grid2d, 2)
        u, n = reconstruct_u(zeros(grid2d, 1), gradient(phi))
        assert sup_norm(u) < 1e-12 * max(1.0, sup_norm(gradient(phi)))

    def test_two_routes_agree(self, grid3d):
        ell = random_displacement(grid3d, 4, 0.1)
        v = random_bandlimited(grid3d, 5)
        u, n = reconstruct_u(ell, v)
        via_projector = leray_project(compute_w(ell, v))
        assert np.max(np.abs(u.data - via_projector.data)) < 1e-12

    def test_divergence_free(self, grid3d):
        ell = random_displacement(grid3d, 6, 0.15)
        v = random_bandlimited(grid3d, 7)
        u, _ = reconstruct_u(ell, v)
        rms = np.sqrt(np.mean(u.data**2))
        assert sup_norm(divergence(u)) < 1e-10 * max(rms, 1)

    def test_w_trivials(self, grid2d):
        v = random_bandlimited(grid2d, 8)
        w = compute_w(zeros(grid2d, 1), v)
        assert np.max(np.abs(w.data - v.data)) == 0.0
        ell = random_displacement(grid2d, 9, 0.1)
        assert sup_norm(compute_w(ell, zeros(grid2d, 1))) == 0.0


class TestELRhs:
    def test_initial_displacement_rate_is_minus_velocity(self, grid2d):
        u0 = taylor_green(grid2d)
        state = initial_state(u0)
        dl, dv = stage_rates(state, 0.01)
        assert np.max(np.abs(dl + u0.data)) < 1e-12

    def test_initial_virtual_velocity_rate(self, grid2d):
        # at ell = 0: dv/dt = -u0.grad(u0) + nu lap(u0) + f (C = 0, Q = I)
        nu = 0.05
        u0 = taylor_green(grid2d)
        force = ForcingSpec("single_mode", amplitude=0.4)
        state = initial_state(u0)
        _, dv = stage_rates(state, nu, force.field(grid2d))
        adv = np.einsum("i...,im...->m...", u0.data, gradient(u0).data)
        expected = (-adv + nu * laplacian(u0).data
                    + force.field(grid2d).data)
        assert np.max(np.abs(dv - expected)) < 1e-11

    def test_dynamic_mode_returns_potential_rate(self, grid2d):
        state = initial_state(taylor_green(grid2d), potential_mode="dynamic")
        out = stage_rates(state, 0.01)
        assert len(out) == 3
        assert abs(np.mean(out[2])) < 1e-13  # zero-mean by the free constant

    def test_reconstructed_velocity_rate_matches_classical(self):
        # step a generic state by a small dt; du/dt from differencing matches
        # the classical right side evaluated at the reconstructed velocity
        g = Grid(2, 64, TWO_PI)
        nu, dt = 0.02, 1e-4
        state = initial_state(taylor_green(g))
        for _ in range(50):  # generic state with ell != 0
            state = el_step(state, ZERO, 1e-3, nu=nu)
        d0 = derive(state)
        after = el_step(state, ZERO, dt, nu=nu)
        u1 = derive(after).u
        dudt = (u1.data - d0.u.data) / dt
        adv_hat, _ = _nonlinear_hat(g, to_spectral(g, d0.u.data), None)
        expected = to_physical(g, adv_hat) + nu * laplacian(d0.u).data
        scale = max(np.max(np.abs(expected)), 1.0)
        assert np.max(np.abs(dudt - expected)) < 20 * dt * scale


class TestELStep:
    def test_euler_mode_sup_norm_rearrangement(self):
        g = Grid(2, 64, TWO_PI)
        state = initial_state(taylor_green(g))
        v0_inf = sup_norm(state.v)
        for _ in range(40):
            state = el_step(state, ZERO, 2e-3, nu=0.0)
        assert abs(sup_norm(state.v) - v0_inf) / v0_inf < 1e-3

    def test_matches_classical_short(self, grid2d):
        nu, dt = 0.01, 1e-3
        u0 = taylor_green(grid2d)
        el, ns = initial_state(u0), NSState(0.0, u0.copy())
        for _ in range(100):
            el = el_step(el, ZERO, dt, nu=nu)
            ns = ns_step(ns, ZERO, dt, nu=nu)
        u_el = derive(el).u
        rel = l2_norm(Field(grid2d, u_el.data - ns.u.data))
        assert rel / l2_norm(ns.u) < 1e-7

    def test_fourth_order_in_dt(self):
        g = Grid(2, 32, TWO_PI)
        nu, t_end = 0.02, 0.08
        u0 = taylor_green(g)

        def advance(dt):
            state = initial_state(u0.copy())
            for _ in range(round(t_end / dt)):
                state = el_step(state, ZERO, dt, nu=nu)
            return derive(state).u.data

        ref = advance(2.5e-4)
        err = [np.max(np.abs(advance(dt) - ref)) for dt in (4e-3, 2e-3)]
        ratio = err[0] / err[1]
        assert 16 * 0.8 < ratio < 16 * 1.2

    @pytest.mark.parametrize("nu", [0.0, 0.05])
    @pytest.mark.parametrize("grid_name", ["grid2d", "grid3d"])
    def test_rk4_accumulator_matches_the_closed_formula(self, grid_name, nu, request):
        # on a random band-limited linear right-hand side the packed stacks
        # of if_rk4_step give the closed RK4 formula bit for bit, so its
        # operation order cannot drift; the result is written in band into
        # the input, its stage work array, and stays zero off the mask
        grid = request.getfixturevalue(grid_name)
        mask = tables(grid).dealias_mask
        rng = np.random.default_rng(7)
        shape = (3, *tables(grid).kshape)

        def crandn():
            return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * mask

        a, b, yhat = crandn(), crandn(), crandn()
        u = np.zeros((grid.dim, *grid.shape))

        def n_of(y):
            return a * y + b

        def rhs(y):   # N packed to the band, as every solver returns it
            return pack(grid, n_of(y)), u

        dt = 1e-2
        e = np.exp(-nu * tables(grid).k2 * (0.5 * dt))
        e2 = e * e
        n1 = n_of(yhat)
        n2 = n_of(e * (yhat + 0.5 * dt * n1))
        n3 = n_of(e * yhat + 0.5 * dt * n2)
        n4 = n_of(e2 * yhat + dt * e * n3)
        expected = e2 * yhat + (dt / 6.0) * (e2 * n1 + 2.0 * e * (n2 + n3) + n4)
        y_in = yhat.copy()
        result = if_rk4_step(grid, y_in, dt, nu, rhs)
        assert result is y_in
        assert np.array_equal(result, expected)
        assert not np.any(result[..., ~mask])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_right_hand_sides_leave_the_stage_input_as_it_was(self, dim, monkeypatch):
        # if_rk4_step re-reads each stage input and writes the next one into
        # it in band, so no right-hand side may write into the spectrum it is
        # given: EL (dynamic n, forced, viscous, one passive scalar), the
        # classical and the cotangent stage, four stages of one step each
        from elflow import classical, el
        g = Grid(dim, 16, TWO_PI)
        force, dt, nu = ForcingSpec("single_mode", amplitude=0.5), 1e-2, 0.05
        changed = []

        def guarded(grid, yhat, dt, nu, rhs):
            def checked(y):
                kept = y.copy()
                result = rhs(y)
                changed.append(not np.array_equal(y, kept))
                return result
            return if_rk4_step(grid, yhat, dt, nu, checked)

        for module in (el, classical):
            monkeypatch.setattr(module, "if_rk4_step", guarded)
        state = replace(make_test_state(g, 1, 0.05), potential_mode="dynamic")
        el_step_with_passive(state, force, dt, nu=nu, passive=(random_scalar(g, 4),))
        ns_step(NSState(0.0, state.v), force, dt, nu=nu)
        cotangent_step(WState(0.0, state.v), force, dt, nu=nu)
        assert changed == [False] * 12

    def test_maximum_principle_passive_scalar(self):
        g = Grid(2, 64, TWO_PI)
        state = initial_state(taylor_green(g))
        phi = random_scalar(g, 12, band=8)
        hi, lo = np.max(phi.data), np.min(phi.data)
        for _ in range(20):
            state, (phi,) = el_step_with_passive(state, ZERO, 1e-3, nu=0.02,
                                                 passive=(phi,))
            new_hi, new_lo = np.max(phi.data), np.min(phi.data)
            assert new_hi <= hi + 1e-10
            assert new_lo >= lo - 1e-10
            hi, lo = new_hi, new_lo

    def test_stacked_rows_keep_their_layout(self, grid2d):
        # one step stacks ell, v, n (dynamic mode) and the passive rows: the
        # passive row of a dynamic step equals that of a static step bit for
        # bit, and its n equals that of a dynamic step without the scalar
        u0 = random_bandlimited(grid2d, 11)
        force = ForcingSpec("single_mode", amplitude=0.3)
        both = initial_state(u0, potential_mode="dynamic")
        static, n_only = initial_state(u0), initial_state(u0, potential_mode="dynamic")
        phi_both = phi_static = random_scalar(grid2d, 12)
        for _ in range(3):
            both, (phi_both,) = el_step_with_passive(both, force, 1e-3, nu=0.02,
                                                     passive=(phi_both,))
            static, (phi_static,) = el_step_with_passive(static, force, 1e-3, nu=0.02,
                                                         passive=(phi_static,))
            n_only = el_step(n_only, force, 1e-3, nu=0.02)
            assert np.array_equal(phi_both.data, phi_static.data)
            assert np.array_equal(both.n_pot.data, n_only.n_pot.data)
            assert np.array_equal(both.v.data, n_only.v.data)
        assert sup_norm(both.n_pot) > 0.0

    def test_cfl_violation(self, grid2d):
        state = initial_state(taylor_green(grid2d))
        with pytest.raises(CFLViolationError):
            el_step(state, ZERO, 1.0, nu=0.01)

    def test_non_finite_potential_is_a_blow_up(self, grid2d):
        # the dynamic n row is stepped beside ell and v and checked with them
        state = initial_state(taylor_green(grid2d), potential_mode="dynamic")
        state.n_pot.data[3, 5] = np.nan
        with pytest.raises(BlowUpError):
            el_step(state, ZERO, 1e-3, nu=0.01)

    def test_divergence_invariant(self, grid3d):
        state = initial_state(taylor_green(grid3d))
        for _ in range(10):
            state = el_step(state, ZERO, 1e-3, nu=0.01)
        u = derive(state).u
        rms = np.sqrt(np.mean(u.data**2))
        assert sup_norm(divergence(u)) < 1e-10 * max(rms, 1)

    def test_commutator_source_refined_grid_spot_check(self):
        # the triple product C.grad(v) keeps a residual cubic alias after the
        # quadratic 2/3 rule; spot-check it against a 2x refined evaluation
        from elflow.spectral import dealias, resample

        def source(ell, v):
            grid = ell.grid
            d2 = np.einsum(
                "ij...,mkj...->mki...",
                compute_Q(ell).data,
                np.stack([gradient(gradient(
                    Field(grid, ell.data[m]))).data
                    for m in range(grid.dim)]))
            gv = gradient(v).data
            return dealias(Field(
                grid, np.einsum("mki...,km...->i...", d2, gv)))

        g = Grid(2, 48, TWO_PI)
        ell = random_displacement(g, 3, 0.2, band=8)
        v = random_bandlimited(g, 4, band=8)
        coarse = source(ell, v)
        fine = source(resample(ell, 96), resample(v, 96))
        fine_back = dealias(resample(fine, g.n))
        alias = np.max(np.abs(coarse.data - fine_back.data))
        assert alias < 1e-7 * max(sup_norm(fine), 1e-12)


class TestDeformationConditioning:
    """(grad A) Q = I from ``compute_Q``, and the range of det(grad A) that
    every EL record carries."""

    @staticmethod
    def z_residual(state):
        z = np.einsum("im...,mj...->ij...", grad_a_of(state.ell).data,
                      compute_Q(state.ell).data)
        for i in range(state.ell.grid.dim):
            z[i, i] -= 1.0
        return float(np.max(np.abs(z)))

    def test_fresh_state_exact(self, grid2d):
        state = initial_state(taylor_green(grid2d))
        record, _ = el_sample(state, 0.01)
        assert self.z_residual(state) == 0.0
        assert record.det_min == record.det_max == 1.0

    def test_short_run(self, grid2d):
        state = initial_state(taylor_green(grid2d))
        states = [state]
        for step in range(100):
            state = el_step(state, ZERO, 1e-3, nu=0.01)
            if len(states) < 5 and step % 25 == 0:
                states.append(state)
        states.append(state)
        assert max(self.z_residual(s) for s in states) < 1e-11
        records = [el_sample(s, 0.01)[0] for s in states]
        assert 0.5 < min(r.det_min for r in records) <= max(r.det_max for r in records) < 2.0


class TestResetLabels:
    def _evolved_state(self, grid, steps=150):
        state = initial_state(taylor_green(grid))
        for _ in range(steps):
            state = el_step(state, ZERO, 1e-3, nu=0.01)
        return state

    @pytest.mark.parametrize("grid_name,scalars", [("grid2d", 11), ("grid3d", 18)])
    def test_a_reset_transforms_only_what_n_needs(self, grid_name, scalars,
                                                  request, monkeypatch):
        """grad ell, div w and the Poisson solve for n: the projected
        velocity, which the reset drops, is never built."""
        grid = request.getfixturevalue(grid_name)
        state = make_test_state(grid, 3, 0.05)
        counted = []
        for name in ("to_spectral", "to_physical"):
            def count(grid, x, *args, _fn=getattr(spectral, name), **kwargs):
                counted.append(int(np.prod(x.shape[:x.ndim - grid.dim])))
                return _fn(grid, x, *args, **kwargs)
            monkeypatch.setattr(spectral, name, count)
        after = reset_labels(state)
        assert sum(counted) == scalars
        assert np.array_equal(after.n_pot.data, reconstruct_u(state.ell, state.v)[1].data)

    def test_fresh_state_is_fixed_point(self, grid2d):
        state = initial_state(random_bandlimited(grid2d, 3))
        after = reset_labels(state)
        assert np.max(np.abs(after.v.data - state.v.data)) == 0.0
        assert after.reset_count == 1

    def test_velocity_invariance(self, grid2d):
        state = self._evolved_state(grid2d)
        u_before = derive(state).u
        after = reset_labels(state)
        u_after = derive(after).u
        assert np.max(np.abs(u_before.data - u_after.data)) < 1e-12

    def test_derived_quantities_reset_exactly(self, grid2d):
        after = reset_labels(self._evolved_state(grid2d))
        d = derive(after)
        assert sup_norm(after.ell) == 0.0
        assert sup_norm(d.C_magnitude) == 0.0
        eye = np.zeros_like(d.Q.data)
        for i in range(grid2d.dim):
            eye[i, i] = 1.0
        assert np.max(np.abs(d.Q.data - eye)) == 0.0


def gauge_transform(state, phi):
    """The gauge shift v -> v + (label gradient of phi), n -> n + phi."""
    grid = state.ell.grid
    q = compute_Q(state.ell).data
    v = state.v.data + np.einsum("ij...,j...->i...", q, gradient(phi).data)
    return replace(state, v=Field(grid, v),
                   n_pot=Field(grid, state.n_pot.data + phi.data))


class TestGaugeTransform:
    def test_constant_shift(self, grid2d):
        state = initial_state(taylor_green(grid2d))
        phi = Field(grid2d, np.full(grid2d.shape, 2.5))
        after = gauge_transform(state, phi)
        assert np.max(np.abs(after.v.data - state.v.data)) < 1e-13
        assert np.max(np.abs(after.n_pot.data - state.n_pot.data - 2.5)) < 1e-13

    def test_zero_displacement_plain_gradient(self, grid2d):
        state = initial_state(taylor_green(grid2d))
        phi = random_scalar(grid2d, 4)
        after = gauge_transform(state, phi)
        expected = state.v.data + gradient(phi).data
        assert np.max(np.abs(after.v.data - expected)) < 1e-13

    def test_velocity_invariance_generic_state(self, grid2d):
        state = initial_state(taylor_green(grid2d))
        for _ in range(120):
            state = el_step(state, ZERO, 1e-3, nu=0.01)
        phi = random_scalar(grid2d, 5)
        u_before = derive(state).u
        u_after = derive(gauge_transform(state, phi)).u
        assert np.max(np.abs(u_before.data - u_after.data)) < 1e-12


class TestCotangent:
    def test_matches_classical_short(self, grid2d):
        nu, dt = 0.01, 1e-3
        u0 = taylor_green(grid2d)
        wst, ns = WState(0.0, u0.copy()), NSState(0.0, u0.copy())
        for _ in range(100):
            wst = cotangent_step(wst, ZERO, dt, nu=nu)
            ns = ns_step(ns, ZERO, dt, nu=nu)
        u_w = leray_project(wst.w)
        rel = l2_norm(Field(grid2d, u_w.data - ns.u.data))
        assert rel / l2_norm(ns.u) < 1e-7

    def test_steady_shear_manufactured_balance(self):
        # u = w = (a sin k y, 0), nu = 0, f = 0: the right side is exactly
        # (0, -a^2 k sin(k y) cos(k y))
        g = Grid(2, 64, TWO_PI)
        a = 1.2
        kappa = TWO_PI / g.length
        x, y = g.coords()
        w = np.zeros((2, *g.shape))
        w[0] = a * np.sin(kappa * y)
        from elflow.spectral import to_spectral
        rhs_hat, _ = _cotangent_nonlinear_hat(g, to_spectral(g, w), None)
        rhs = to_physical(g, rhs_hat)
        expected = np.zeros_like(w)
        expected[1] = -(a**2) * kappa * np.sin(kappa * y) * np.cos(kappa * y)
        assert np.max(np.abs(rhs - expected)) < 1e-12

    def test_agrees_with_transported_virtual_velocity(self, grid2d):
        # cross-dynamics check: w from its own equation equals (grad A)^T v
        # from the displacement form, to integration tolerance
        nu, dt = 0.02, 1e-3
        u0 = taylor_green(grid2d)
        el, wst = initial_state(u0), WState(0.0, u0.copy())
        for _ in range(80):
            el = el_step(el, ZERO, dt, nu=nu)
            wst = cotangent_step(wst, ZERO, dt, nu=nu)
        w_from_el = compute_w(el.ell, el.v)
        rel = l2_norm(Field(grid2d, w_from_el.data - wst.w.data))
        assert rel / l2_norm(wst.w) < 1e-6


class TestCFL:
    @pytest.mark.parametrize("solver", ["classical", "el", "cotangent"])
    @pytest.mark.parametrize("factor", [1 + 1e-6, 1 - 1e-6], ids=["above", "below"])
    def test_limit_is_sharp(self, solver, factor, grid2d):
        # every solver checks max|u| dt / h of its input state against the
        # one limit: just above it raises, just below it steps
        u0 = taylor_green(grid2d)
        dt = CFL_LIMIT * factor * grid2d.spacing / sup_norm(u0)
        state, step = {
            "classical": (NSState(0.0, u0), ns_step),
            "el": (initial_state(u0), el_step),
            "cotangent": (WState(0.0, u0), cotangent_step),
        }[solver]
        if factor > 1:
            with pytest.raises(CFLViolationError):
                step(state, ZERO, dt, nu=0.01)
        else:
            assert step(state, ZERO, dt, nu=0.01).t == dt
