"""Static vs dynamic potential: the evolved potential tracks the one solved
instantaneously from the state, and its advection-diffusion rate recovers
the physical pressure."""
import numpy as np

from elflow.el import derive, el_step, initial_state
from elflow.fields import Field, l2_norm
from elflow.forcing import ForcingSpec
from elflow.grid import Grid, tables
from elflow.initial import taylor_green
from elflow.spectral import gradient, riesz_pressure, to_physical, to_spectral

TWO_PI = 2.0 * np.pi
ZERO = ForcingSpec("zero")


def zero_mean(values):
    return values - np.mean(values)


class TestDynamicPotential:
    def test_tracks_static_solution_along_run(self):
        g = Grid(2, 64, TWO_PI)
        nu, dt = 0.02, 1e-3
        state = initial_state(taylor_green(g), potential_mode="dynamic")
        worst = 0.0
        for step in range(1, 301):
            state = el_step(state, ZERO, dt, nu=nu)
            if step % 50 == 0:
                static_n = derive(state).n
                diff = zero_mean(state.n_pot.data) - static_n.data
                scale = max(l2_norm(static_n), 1e-12)
                worst = max(worst, l2_norm(Field(g, diff)) / scale)
        assert worst < 1e-6, worst

    def test_pressure_recovery(self):
        # (d_t + u.grad - nu lap) n + |u|^2/2, zero-mean part, equals the
        # Riesz-form pressure; the time derivative comes from differencing
        # the evolved potential across steps
        g = Grid(2, 64, TWO_PI)
        nu, dt = 0.02, 1e-3
        state = initial_state(taylor_green(g), potential_mode="dynamic")
        for _ in range(100):
            state = el_step(state, ZERO, dt, nu=nu)
        window = [state]
        for _ in range(2):
            window.append(el_step(window[-1], ZERO, dt, nu=nu))
        prev_n, mid, next_n = (s.n_pot.data for s in window)
        mid_state = window[1]
        d = derive(mid_state)
        u = d.u.data

        dn_dt = (next_n - prev_n) / (2 * dt)
        grad_n = gradient(mid_state.n_pot).data
        advect = np.einsum("j...,j...->...", u, grad_n)
        k2 = tables(g).k2
        lap_n = to_physical(g, -k2 * to_spectral(g, mid_state.n_pot.data))
        gamma_n = dn_dt + advect - nu * lap_n

        recovered = zero_mean(gamma_n + 0.5 * np.sum(u * u, axis=0))
        expected = riesz_pressure(d.u, 0.0).data
        scale = max(np.max(np.abs(expected)), 1e-12)
        assert np.max(np.abs(recovered - expected)) / scale < 1e-5

    def test_dynamic_potential_stays_zero_mean(self):
        g = Grid(2, 32, TWO_PI)
        state = initial_state(taylor_green(g), potential_mode="dynamic")
        for _ in range(50):
            state = el_step(state, ZERO, 1e-3, nu=0.02)
        assert abs(np.mean(state.n_pot.data)) < 1e-12
