"""Working-set budgets of the heaviest calls, in units of one scalar field.

``tracemalloc`` sees every numpy allocation, so the peak a call reaches
above its start is deterministic for a given code path. The budgets are
stated in real scalar fields (``n**dim`` float64 values) at 3D n=16 and
bound the arrays the code holds at once: the second-derivative and
commutator algebra is consumed block by block, never as whole rank-3 or
rank-4 tensors, a sample holds one row of C at a time and so no more than
a step, and no identity check holds more than one EL step's
working set plus the fields it names. The pair-dispersion estimate holds
its drawn pairs and one value per pair, and forms their separations one
block at a time. A run writes each snapshot when it is
taken, so a whole command holds none of them past its sample.
``to_physical`` makes every pass in the spectrum it is given, in both
dims, and allocates only its output. The transforms of both dims run on
scipy's compiled pocketfft kernel, one axis at a time; the arrays they
return are numpy arrays and traced, and only the kernel's buffer of a few
lines is not.

Run as a script to print the peak of every budgeted call on a 3D grid of
n points per axis (default 16):

    PYTHONPATH=src python tests/test_memory_budget.py 48
"""
import itertools
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from elflow.config import GridConfig, InitialConfig, RunConfig
from elflow.diagnostics import pair_dispersion
from elflow.el import _cotangent, derive, el_step
from elflow.fields import Field, _advection, _label, magnitude
from elflow.forcing import ForcingSpec
from elflow.grid import Grid
from elflow.identities import (
    CORPUS_SPECTRAL_WIDTH, check_braces, check_C_evolution,
    check_gamma_commutation, make_test_state, random_displacement,
)
from elflow.initial import random_scalar
from elflow.runner import compare_runs, el_sample, execute, initial_velocity
from elflow.spectral import to_physical, to_spectral

GRID = Grid(3, 16, 2.0 * np.pi)
FORCE = ForcingSpec("single_mode", amplitude=0.5)
NU = 0.05


def _grow_interned_strings() -> None:
    """Make CPython's table of interned strings grow now, before a traced
    call, so that its growth is not counted as the call's.

    The table holds every identifier, and ``pathlib`` adds every path part
    to it. A part that is freed leaves a dead slot, and the table grows
    once the slots run out, on whichever call crosses that limit: at 3D
    n=16 its growth to 2**17 slots (1.92 MB) reads as 59 fields, none of
    them the call's. Interning fresh strings, each freed at once, until the
    table grows leaves it room for at least as many strings as it holds,
    far more than one call interns.
    """
    tracemalloc.start()
    try:
        for i in range(1 << 20):
            before = tracemalloc.get_traced_memory()[0]
            sys.intern(f"grow-{i}")
            # a growth allocates the new table, 1.92 MB here; a string ~60 B
            if tracemalloc.get_traced_memory()[0] - before > 1 << 16:
                return
    finally:
        tracemalloc.stop()


def peak_bytes(fn) -> int:
    """Traced peak of one call of ``fn``, after an untraced warm-up call that
    fills the cached wavenumber tables, and after the interned-string table
    is made to grow."""
    fn()
    _grow_interned_strings()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peak_fields(fn, grid: Grid = GRID) -> float:
    """``peak_bytes`` in scalar fields of ``grid``."""
    return peak_bytes(fn) / (8 * grid.n**grid.dim)


def _calls(outdir, grid: Grid = GRID):
    state = make_test_state(grid, 1, 0.05)
    ell = random_displacement(grid, 1, 0.2)
    g = random_scalar(grid, 2, width=CORPUS_SPECTRAL_WIDTH)
    # a gauge compare: EL beside its EL twin, which is read for u alone
    gauge = RunConfig(grid=GridConfig(dim=grid.dim, n=grid.n), dt=2e-3, t_end=0.02,
                      initial=InitialConfig(kind="random_bandlimited"), cadence=5,
                      compare_kind="gauge").validate()
    u0 = initial_velocity(gauge)
    # the compare command, forced and viscous, with all its artifacts
    compare = RunConfig(grid=GridConfig(dim=grid.dim, n=grid.n), nu=NU, dt=2e-3,
                        t_end=0.02, initial=InitialConfig(kind="random_bandlimited"),
                        forcing=FORCE, cadence=5).validate()
    # execute refuses a non-empty output directory: each call gets its own
    runs = (Path(outdir) / f"compare{i}" for i in itertools.count())
    return {
        "el_step": lambda: el_step(state, FORCE, 2e-3, nu=NU),
        "derive": lambda: derive(state),
        "el_sample": lambda: el_sample(state, NU, forcing=FORCE),
        "check_C_evolution": lambda: check_C_evolution(state, 2e-3, nu=NU),
        "check_gamma_commutation": lambda: check_gamma_commutation(state, g, 2e-3, nu=NU),
        "check_braces": lambda: check_braces(ell),
        "compare_gauge": lambda: compare_runs(gauge, u0),
        "execute_compare": lambda: execute(compare, next(runs), "compare"),
    }


# Measured peaks plus about 5% (numpy 2.4): el_step 49.6, derive 32.5,
# el_sample 40.2, check_C_evolution 86.9, check_gamma_commutation 69.6,
# check_braces 52.5, compare_gauge 69.9, execute_compare 60.1 fields.
BUDGETS = {
    "el_step": 52,
    "derive": 34,
    "el_sample": 42,
    "check_C_evolution": 91,
    "check_gamma_commutation": 73,
    "check_braces": 55,
    "compare_gauge": 73,
    "execute_compare": 63,
}


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_peak_within_budget(name, tmp_path):
    peak = peak_fields(_calls(tmp_path)[name])
    assert peak <= BUDGETS[name], f"{name} peaked at {peak:.1f} fields"


def test_a_sample_peaks_at_or_below_a_step(tmp_path):
    """A sample takes |C| one row of C at a time, so neither ``derive`` nor
    ``el_sample`` holds more than an EL step."""
    calls = _calls(tmp_path)
    step = peak_fields(calls["el_step"])
    for name in ("derive", "el_sample"):
        peak = peak_fields(calls[name])
        assert peak <= step, f"{name} peaked at {peak:.1f} fields, el_step at {step:.1f}"


# The bounds suite's pair count, and the bytes per pair the estimate may hold:
# its two drawn indices, its one value and the blocks' share.
PAIRS = 100_000
BYTES_PER_PAIR = 5 * 8


def _pair_dispersion(grid: Grid = GRID):
    ell = random_displacement(grid, 1, 0.2)
    return lambda: pair_dispersion(ell, grid.length / 8, PAIRS, 1, t=0.1, E0=0.5,
                                   eps_B=0.1)


def test_pair_dispersion_holds_no_separation_of_every_pair():
    """The estimate keeps whole only the two index draws and one value per
    pair (24 bytes); each block's coordinates and separations are dropped
    before the next block is formed."""
    peak = peak_bytes(_pair_dispersion())
    assert peak <= BYTES_PER_PAIR * PAIRS, \
        f"pair_dispersion peaked at {peak / PAIRS:.1f} bytes per pair"


def _contractions(grid: Grid = GRID):
    """Each pointwise contraction of the EL algebra and the fields of its
    output, on inputs made outside the traced call."""
    rng = np.random.default_rng(0)
    d = grid.dim
    u, grad_s = rng.standard_normal((2, d, *grid.shape))
    q, gv = rng.standard_normal((2, d, d, *grid.shape))
    c = Field(grid, rng.standard_normal((d, d, d, *grid.shape)))
    return {
        "advection_scalar": (lambda: _advection(u, grad_s), 1),
        "advection_vector": (lambda: _advection(u, gv), d),
        "label": (lambda: _label(q, u), d),
        "cotangent": (lambda: _cotangent(gv, u), d),
        "magnitude": (lambda: magnitude(c), 1),
    }


@pytest.mark.parametrize("name", sorted(_contractions()))
def test_contraction_allocates_only_its_output(name):
    fn, output = _contractions()[name]
    peak = peak_fields(fn)
    assert peak <= output + 0.1, f"{name} peaked at {peak:.2f} fields for {output}"


@pytest.mark.parametrize("band", [False, True], ids=["full", "band"])
def test_inverse_transform_allocates_only_its_output(band):
    """``to_physical`` makes every pass in the spectrum it is given, so the
    full and the banded inverse of a 3-component spectrum allocate only
    their output. Each call consumes its input: the spectra, one per call,
    are made before the traced call."""
    values = np.random.default_rng(0).standard_normal((3, *GRID.shape))
    spectra = iter([to_spectral(GRID, values, band=band) for _ in range(2)])
    peak = peak_fields(lambda: to_physical(GRID, next(spectra), band=band))
    assert peak <= 3 + 0.1, f"the inverse peaked at {peak:.2f} fields for 3"


def test_compare_holds_no_series():
    """A compare folds each sample into its report as it is made, so its
    peak does not grow with the sample count: at cadence 1 it stays within
    2 fields of the same compare sampled at t = 0 and t_end only.

    The 2 fields are the cotangent oracle's own ``w`` (2.00 fields in 2D),
    held in lockstep: it is allocated at ``cotangent_step``'s
    ``to_physical``. At cadence 1 it is held at every EL step entry; in
    this 10-step run at cadence 10 it never is."""
    def compare(cadence):
        cfg = RunConfig(grid=GridConfig(dim=2, n=64), nu=0.01, dt=2e-3, t_end=0.02,
                        initial=InitialConfig(kind="random_bandlimited"),
                        cadence=cadence, compare_kind="cotangent", m_list=(2,))
        u0 = initial_velocity(cfg.validate())
        return lambda: compare_runs(cfg, u0)

    grid = Grid(2, 64, 2.0 * np.pi)
    every_step, ends_only = (peak_fields(compare(c), grid) for c in (1, 10))
    assert every_step <= ends_only + 2, (every_step, ends_only)


if __name__ == "__main__":
    grid = Grid(3, int(sys.argv[1]) if len(sys.argv) > 1 else GRID.n, 2.0 * np.pi)
    print(f"peak working set at 3D n={grid.n}, in scalar fields "
          f"of {8 * grid.n**grid.dim} bytes")
    with tempfile.TemporaryDirectory() as outdir:
        for name, fn in _calls(outdir, grid).items():
            print(f"  {name:24s} {peak_fields(fn, grid):7.1f}   "
                  f"(budget at n=16: {BUDGETS[name]})")
        peak = peak_bytes(_pair_dispersion(grid))
        print(f"  {'pair_dispersion':24s} {peak / (8 * grid.n**grid.dim):7.1f}   "
              f"({peak / PAIRS:.1f} bytes per pair of {PAIRS}; "
              f"budget {BYTES_PER_PAIR})")
