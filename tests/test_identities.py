"""Identity-certification module: residuals on trivial, closed-form and
random corpus inputs, dt-convergence of the semi-discrete checks, dummy-index
invariance and spectral convergence under grid refinement."""
import numpy as np
import pytest

from elflow.el import compute_C, compute_Q, initial_state
from elflow.fields import Field, zeros
from elflow.grid import Grid
from elflow.identities import (
    CORPUS_SPECTRAL_WIDTH, check_adjoint, check_braces, check_C_evolution,
    check_commutator, check_el_derivative_roundtrip, check_gamma_commutation,
    check_product_rule, make_test_state,
    random_displacement, run_identity_suite,
)
from elflow.initial import random_bandlimited, random_scalar, taylor_green
from elflow.spectral import gradient, resample

TWO_PI = 2.0 * np.pi


def corpus_scalar(grid, seed):
    return random_scalar(grid, seed, width=CORPUS_SPECTRAL_WIDTH)


def shear(grid, eps):
    x = grid.coords()
    comps = np.zeros((grid.dim, *grid.shape))
    comps[0] = eps * np.sin(TWO_PI / grid.length * x[1])
    return Field(grid, comps)


class TestRoundtrip:
    def test_zero_displacement_exact(self, grid2d):
        rep = check_el_derivative_roundtrip(corpus_scalar(grid2d, 1),
                                            zeros(grid2d, 1))
        assert rep.residual < 1e-14

    def test_single_mode(self, grid2d):
        rep = check_el_derivative_roundtrip(corpus_scalar(grid2d, 1),
                                            shear(grid2d, 0.1))
        assert rep.residual < 1e-10

    def test_random_corpus(self, grid3d):
        rep = check_el_derivative_roundtrip(
            corpus_scalar(grid3d, 2), random_displacement(grid3d, 3, 0.1))
        assert rep.passed and rep.residual < 1e-9


class TestCommutator:
    def test_zero_displacement_both_sides_vanish(self, grid2d):
        rep = check_commutator(corpus_scalar(grid2d, 1), zeros(grid2d, 1))
        assert rep.residual < 1e-13

    def test_nilpotent_shear(self):
        g = Grid(2, 64, TWO_PI)
        rep = check_commutator(corpus_scalar(g, 2), shear(g, 0.2))
        assert rep.residual < 1e-9

    def test_random_small_displacement(self):
        g = Grid(2, 64, TWO_PI)
        rep = check_commutator(corpus_scalar(g, 3),
                               random_displacement(g, 4, 0.05))
        assert rep.passed and rep.residual < 1e-8

    def test_dummy_index_relabeling_invariance(self, grid2d):
        # looped evaluation with permuted contraction order reproduces the
        # vectorized residual to addition-order noise
        from elflow.spectral import grad_hat, hessian, to_physical, to_spectral
        g = corpus_scalar(grid2d, 5)
        ell = random_displacement(grid2d, 6, 0.1)
        rep = check_commutator(g, ell)

        grid = grid2d
        Q = compute_Q(ell, det_floor=0.05)
        q = Q.data
        c = compute_C(ell, Q).data
        dg = gradient(g).data
        hess = hessian(g).data
        lag = np.stack([sum(q[i, j] * dg[j] for j in reversed(range(2)))
                        for i in range(2)])
        dlag = to_physical(grid, grad_hat(grid, to_spectral(grid, lag)))
        worst = 0.0
        for k in reversed(range(2)):
            for i in range(2):
                term1 = sum(q[i, j] * hess[j, k] for j in reversed(range(2)))
                comm = term1 - dlag[k, i]
                rhs = sum(c[m, k, i] * lag[m] for m in reversed(range(2)))
                worst = max(worst, float(np.max(np.abs(comm - rhs))))
        residual = worst / np.max(np.abs(hess))
        assert abs(residual - rep.residual) < 1e-14


class TestProductRule:
    def test_constant_factor(self, grid2d):
        const = Field(grid2d, np.full(grid2d.shape, 1.7))
        rep = check_product_rule(const, corpus_scalar(grid2d, 1),
                                 random_bandlimited(grid2d, 2), nu=0.05)
        assert rep.residual < 1e-12

    def test_single_modes(self, grid2d):
        x, y = grid2d.coords()
        kappa = TWO_PI / grid2d.length
        f = Field(grid2d, np.sin(kappa * x))
        g = Field(grid2d, np.cos(kappa * y))
        rep = check_product_rule(f, g, taylor_green(grid2d), nu=0.1)
        assert rep.residual < 1e-10

    def test_random_fields(self, grid3d):
        # band(f) + band(g) must stay below the Nyquist mode for the product
        # derivatives to be exactly representable
        f = random_scalar(grid3d, 5, band=3, width=CORPUS_SPECTRAL_WIDTH)
        g = random_scalar(grid3d, 6, band=3, width=CORPUS_SPECTRAL_WIDTH)
        rep = check_product_rule(f, g, random_bandlimited(grid3d, 7, band=3),
                                 nu=0.05)
        assert rep.passed and rep.residual < 1e-9


class TestAdjoint:
    def test_zero_displacement_plain_integration_by_parts(self, grid2d):
        rep = check_adjoint(corpus_scalar(grid2d, 1), corpus_scalar(grid2d, 2),
                            zeros(grid2d, 1))
        assert rep.residual < 1e-12

    def test_single_mode(self, grid2d):
        rep = check_adjoint(corpus_scalar(grid2d, 1), corpus_scalar(grid2d, 2),
                            shear(grid2d, 0.15))
        assert rep.residual < 1e-10

    def test_random_small(self, grid3d):
        rep = check_adjoint(corpus_scalar(grid3d, 3), corpus_scalar(grid3d, 4),
                            random_displacement(grid3d, 5, 0.1))
        assert rep.passed and rep.residual < 1e-9

    def test_dummy_index_relabeling_invariance(self, grid2d):
        # recompute the residual with explicit loops in permuted order; the
        # vectorized implementation must agree to addition-order noise
        from elflow.fields import integral, l2_norm
        f = corpus_scalar(grid2d, 6)
        g = corpus_scalar(grid2d, 7)
        ell = random_displacement(grid2d, 8, 0.1)
        rep = check_adjoint(f, g, ell)

        grid = grid2d
        Q = compute_Q(ell, det_floor=0.05)
        q = Q.data
        c = compute_C(ell, Q).data
        df, dg = gradient(f).data, gradient(g).data
        worst = 0.0
        for i in reversed(range(2)):      # permuted component loop
            lag_f = sum(q[i, j] * df[j] for j in reversed(range(2)))
            lag_g = sum(q[i, j] * dg[j] for j in reversed(range(2)))
            corr = sum(q[i, j] * sum(c[p, j, p] for p in reversed(range(2)))
                       for j in reversed(range(2)))
            lhs = integral(Field(grid, lag_f * g.data))
            rhs = integral(Field(grid, f.data * (-lag_g + corr * g.data)))
            worst = max(worst, abs(lhs - rhs))
        denom = (l2_norm(gradient(f)) * l2_norm(g)
                 + l2_norm(f) * l2_norm(gradient(g)))
        assert abs(worst / denom - rep.residual) < 1e-14


class TestBraces:
    def test_suite_entries(self, grid3d):
        for amp in (0.01, 0.2):
            rep = check_braces(random_displacement(grid3d, 9, amp))
            assert rep.passed and rep.residual < 1e-10


class TestGammaCommutation:
    def test_inviscid_commutator_vanishes(self, grid2d):
        state = make_test_state(grid2d, 1, 0.05)
        rep = check_gamma_commutation(state, corpus_scalar(grid2d, 2), 2e-3,
                                      nu=0.0)
        assert rep.passed

    def test_fresh_state(self, grid2d):
        state = initial_state(taylor_green(grid2d))
        rep = check_gamma_commutation(state, corpus_scalar(grid2d, 3), 2e-3,
                                      nu=0.05)
        assert rep.passed

    def test_second_order_convergence(self):
        g = Grid(2, 64, TWO_PI)
        state = make_test_state(g, 1, 0.05)
        gsc = corpus_scalar(g, 2)
        res = [check_gamma_commutation(state, gsc, dt, nu=0.05).residual
               for dt in (4e-3, 2e-3, 1e-3)]
        orders = np.log2(np.array(res[:-1]) / np.array(res[1:]))
        assert np.all(np.abs(orders - 2.0) < 0.3)


class TestCEvolution:
    def test_fresh_state_first_order(self, grid2d):
        state = initial_state(taylor_green(grid2d))
        rep = check_C_evolution(state, 2e-3, nu=0.05)
        assert rep.passed

    def test_zero_velocity_keeps_C_frozen_up_to_diffusion(self, grid2d):
        state = make_test_state(grid2d, 3, 0.1)
        state.v = zeros(grid2d, 1)
        rep = check_C_evolution(state, 2e-3, nu=0.05)
        assert rep.passed

    def test_first_order_convergence(self):
        g = Grid(2, 64, TWO_PI)
        state = make_test_state(g, 1, 0.05)
        res = [check_C_evolution(state, dt, nu=0.05).residual
               for dt in (4e-3, 2e-3, 1e-3)]
        orders = np.log2(np.array(res[:-1]) / np.array(res[1:]))
        assert np.all(np.abs(orders - 1.0) < 0.3)


class TestSuite:
    @pytest.mark.parametrize("dim,n", [(2, 64), (3, 48)])
    def test_full_suite_passes(self, dim, n):
        reports = run_identity_suite(Grid(dim, n, TWO_PI))
        failures = [r.identity for r in reports if not r.passed]
        assert not failures, f"identity failures: {failures}"

    def test_residual_drops_under_refinement(self):
        # same displacement field, evaluated on n and on 2n: spectral decay
        g = Grid(2, 32, TWO_PI)
        ell = random_displacement(g, 4, 0.2, band=8)
        gsc = random_scalar(g, 5, band=8, width=4.0)
        coarse = check_commutator(gsc, ell).residual
        fine = check_commutator(resample(gsc, 64), resample(ell, 64)).residual
        assert fine < coarse
        assert fine < max(1e-3 * coarse, 1e-13)
