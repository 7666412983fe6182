"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line. The heavy runs are shared through
module-scoped fixtures; the full suite is a few minutes of desk-scale
compute. Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import math

import numpy as np
import pytest

from elflow.config import (
    GridConfig, InitialConfig, MCConfig, ResetConfig, RunConfig, preset,
)
from elflow.el import derive, el_step, initial_state, reset_labels
from elflow.fields import Field, l2_norm, sup_norm
from elflow.forcing import ForcingSpec
from elflow.grid import Grid
from elflow.identities import run_identity_suite
from elflow.initial import taylor_green
from elflow.runner import (
    bounds_suite, compare_runs, identity_suite_with_orders, initial_velocity,
    run_el,
)

TWO_PI = 2.0 * np.pi


def report(name, value, tol, passed):
    print(f"\nACCEPTANCE {name}: {value:.3e} (tolerance {tol:.0e}) "
          f"{'PASS' if passed else 'FAIL'}")


# -- shared runs ---------------------------------------------------------------

def _el_beside_both_oracles(cfg):
    """One EL run with the classical and the cotangent solver in lockstep."""
    result, reports = compare_runs(cfg, initial_velocity(cfg), ("classical", "cotangent"))
    assert result.failure is None, result.failure
    return {"el": result, **reports, "cfg": cfg}


@pytest.fixture(scope="module")
def runs_2d():
    cfg = RunConfig(grid=GridConfig(dim=2, n=64), nu=0.01, dt=1e-3, t_end=1.0,
                    initial=InitialConfig(kind="taylor_green"),
                    reset=ResetConfig(enabled=True),
                    cadence=10, m_list=(2,))
    cfg.validate()
    return _el_beside_both_oracles(cfg)


@pytest.fixture(scope="module")
def runs_3d():
    cfg = RunConfig(grid=GridConfig(dim=3, n=32), nu=0.01, dt=1e-3, t_end=0.5,
                    initial=InitialConfig(kind="taylor_green"),
                    reset=ResetConfig(enabled=True),
                    cadence=25, m_list=(2,))
    cfg.validate()
    return _el_beside_both_oracles(cfg)


@pytest.fixture(scope="module")
def bound_runs():
    out = {}
    for n in (32, 48):
        cfg = preset("bounds-3d")
        cfg.grid = GridConfig(dim=3, n=n)
        cfg.mc = MCConfig(samples=100_000, seed=11)
        cfg.validate()
        result = run_el(cfg, initial_velocity(cfg))
        assert result.failure is None, result.failure
        out[n] = {"cfg": cfg, "result": result,
                  "reports": bounds_suite(cfg, result)}
    return out


class TestCriterion1Equivalence:
    def test_2d_taylor_green(self, runs_2d):
        rep = runs_2d["classical"]
        passed = rep.max_rel_l2 < 1e-5
        report("1a (2D EL vs classical, T=1)", rep.max_rel_l2, 1e-5, passed)
        assert runs_2d["el"].resets, "expected label resets along the 2D run"
        assert passed

    def test_3d_taylor_green(self, runs_3d):
        rep = runs_3d["classical"]
        passed = rep.max_rel_l2 < 1e-4
        report("1b (3D EL vs classical, T=0.5)", rep.max_rel_l2, 1e-4, passed)
        assert passed


class TestCriterion2Cotangent:
    def test_2d(self, runs_2d):
        rep = runs_2d["cotangent"]
        passed = rep.max_w_rel_l2 < 1e-4
        report("2a (2D cotangent consistency)", rep.max_w_rel_l2, 1e-4, passed)
        assert passed

    def test_3d(self, runs_3d):
        rep = runs_3d["cotangent"]
        passed = rep.max_w_rel_l2 < 1e-4
        report("2b (3D cotangent consistency)", rep.max_w_rel_l2, 1e-4, passed)
        assert passed


class TestCriterion3GaugeInvariance:
    def test_gradient_shifted_initial_data(self):
        cfg = RunConfig(grid=GridConfig(dim=2, n=64), nu=0.01, dt=1e-3,
                        t_end=0.5, initial=InitialConfig(kind="taylor_green"),
                        reset=ResetConfig(enabled=True),
                        cadence=10, m_list=(2,))
        cfg.validate()
        result, reports = compare_runs(cfg, initial_velocity(cfg), ("gauge",))
        assert result.failure is None, result.failure
        rep = reports["gauge"]
        passed = rep.max_rel_linf < 1e-8
        report("3 (gauge invariance, sup norm)", rep.max_rel_linf, 1e-8, passed)
        assert passed


class TestCriterion4Identities:
    @pytest.mark.parametrize("dim,n", [(2, 64), (3, 48)])
    def test_suite_residuals(self, dim, n):
        reports = run_identity_suite(Grid(dim, n, TWO_PI))
        worst = max(r.residual / r.tolerance for r in reports)
        passed = all(r.passed for r in reports)
        report(f"4a (identity residuals {dim}D, worst residual/tol)",
               worst, 1.0, passed)
        assert passed, [r.identity for r in reports if not r.passed]

    def test_time_differenced_orders(self):
        cfg = RunConfig(grid=GridConfig(dim=2, n=64),
                        identity_dts=(4e-3, 2e-3, 1e-3))
        cfg.validate()
        payload = identity_suite_with_orders(cfg)
        orders = payload["orders"]
        gamma = orders["gamma_commutation"]["observed"]
        cevo = orders["c_evolution"]["observed"]
        passed = payload["orders_pass"]
        report("4b (gamma-commutation order, nominal 2)", gamma, 2.3, passed)
        report("4b (coefficient-evolution order, nominal 1)", cevo, 1.3, passed)
        assert abs(gamma - 2.0) <= 0.3 and abs(cevo - 1.0) <= 0.3


class TestCriterion5Bounds:
    def test_asserted_inequalities_hold_with_margin(self, bound_runs):
        reports = bound_runs[32]["reports"]
        margins = []
        for c in reports["k_bounds"].checks:
            if c.asserted:
                margins.append((c.name, c.margin, c.passed))
        for c in reports["displacement"]:
            if c.asserted:
                margins.append((c.name, c.margin, c.passed))
        for v in reports["v_growth"]:
            for c in v.checks:
                if c.asserted:
                    margins.append((c.name, c.margin, c.passed))
        worst = min(m for _, m, _ in margins)
        passed = all(p and m > 1.0 for _, m, p in margins)
        report("5a (bound suite, worst margin)", worst, 1.0, passed)
        assert passed, margins

    def test_pair_dispersion_within_three_standard_errors(self, bound_runs):
        rep = bound_runs[32]["reports"]["dispersion"]
        assert rep.samples == 100_000
        slack = rep.bound + 3 * rep.standard_error - rep.mean_square_separation
        passed = rep.passed
        report("5b (pair dispersion slack to bound)", slack, 0.0, passed)
        assert passed


class TestCriterion6EulerMode:
    def test_2d_sup_norm_rearrangement(self):
        cfg = preset("euler-2d")
        result = run_el(cfg, initial_velocity(cfg))
        v0 = result.records[0].v_inf
        drift = max(abs(r.v_inf - v0) / v0 for r in result.records)
        passed = drift < 1e-3
        report("6a (Euler-mode sup-norm drift, 2D n=128)", drift, 1e-3, passed)
        assert passed

    def test_3d_global_helicity(self):
        cfg = preset("euler-3d")
        result = run_el(cfg, initial_velocity(cfg))
        h0 = result.records[0].helicity
        drift = max(abs(r.helicity - h0) / abs(h0) for r in result.records)
        passed = drift < 1e-4
        report("6b (Euler-mode helicity drift, 3D n=32)", drift, 1e-4, passed)
        assert passed


class TestCriterion7ResetInvariance:
    def test_forced_mid_run_reset(self):
        grid = Grid(2, 64, TWO_PI)
        nu, dt, zero = 0.01, 1e-3, ForcingSpec("zero")
        plain = initial_state(taylor_green(grid))
        forced = initial_state(taylor_green(grid))
        instant_change = None
        for step in range(1, 401):
            plain = el_step(plain, zero, dt, nu=nu)
            forced = el_step(forced, zero, dt, nu=nu)
            if step == 200:
                before = derive(forced).u
                forced = reset_labels(forced)
                after = derive(forced).u
                instant_change = sup_norm(Field(
                    grid, after.data - before.data)) / sup_norm(before)
        final_plain = derive(plain).u
        final_forced = derive(forced).u
        final_diff = l2_norm(Field(
            grid, final_plain.data - final_forced.data)) \
            / l2_norm(final_plain)
        ok_instant = instant_change < 1e-12
        ok_final = final_diff < 1e-5
        report("7a (reset-instant velocity change)", instant_change, 1e-12,
               ok_instant)
        report("7b (final-time difference vs unbroken run)", final_diff, 1e-5,
               ok_final)
        assert ok_instant and ok_final


class TestCriterion8RatioStability:
    def test_monitored_ratios_stable_between_resolutions(self, bound_runs):
        ratios = {}
        for n in (32, 48):
            result = bound_runs[n]["result"]
            reports = bound_runs[n]["reports"]
            records = result.records
            times = np.array([r.t for r in records])
            k_rep = reports["k_bounds"]

            u_inf_int = np.trapezoid([r.u_inf for r in records], times)
            kif = u_inf_int / k_rep.K_inf

            lap_int = np.trapezoid([r.lap_ell_l2 for r in records], times)
            nu = bound_runs[n]["cfg"].nu
            t_end = times[-1]
            b_final = 4.0 * records[0].energy + t_end * k_rep.eps_B
            deltaltwo = (records[-1].grad_ell_l2 + nu * lap_int) \
                / (b_final * t_end / nu + k_rep.K_inf**2 * b_final / nu**2)

            ug_log = reports["epsilon"].series[-1]["log_ratio"]
            ratios[n] = {"kif": kif, "deltaltwo": deltaltwo, "ug_log": ug_log}

        worst_factor = max(
            max(ratios[32][k], ratios[48][k]) / min(ratios[32][k], ratios[48][k])
            for k in ("kif", "deltaltwo"))
        ug_factor = math.exp(abs(ratios[32]["ug_log"] - ratios[48]["ug_log"]))
        worst_factor = max(worst_factor, ug_factor)
        passed = worst_factor < 2.0
        report("8 (monitored-ratio variation n=32 vs 48)", worst_factor, 2.0,
               passed)
        assert passed, ratios
