"""Working-set budgets of the heaviest calls, in units of one scalar field.

``tracemalloc`` sees every numpy allocation, so the peak a call reaches
above its start is deterministic for a given code path. The budgets are
stated in real scalar fields (``n**dim`` float64 values) at 3D n=16 and
bound the arrays the code holds at once: the second-derivative and
commutator algebra is consumed block by block, never as whole rank-3 or
rank-4 tensors. scipy's FFT backend allocates its internal work buffers
outside Python's allocator; those are not traced and not counted here.
"""
import tracemalloc

import numpy as np
import pytest

from elflow.el import derive, el_step
from elflow.forcing import ForcingSpec
from elflow.grid import Grid
from elflow.identities import (
    check_braces, check_C_evolution, make_test_state, random_displacement,
)

GRID = Grid(3, 16, 2.0 * np.pi)
FIELD_BYTES = 8 * GRID.n**GRID.dim
FORCE = ForcingSpec("single_mode", amplitude=0.5)


def peak_fields(fn) -> float:
    """Traced peak of one call of ``fn``, after an untraced warm-up call that
    fills the cached wavenumber tables."""
    fn()
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / FIELD_BYTES


def _calls():
    state = make_test_state(GRID, 1, 0.05)
    ell = random_displacement(GRID, 1, 0.2)
    return {
        "el_step": lambda: el_step(state, FORCE, 2e-3, nu=0.05),
        "derive": lambda: derive(state),
        "check_C_evolution": lambda: check_C_evolution(state, 2e-3, nu=0.05),
        "check_braces": lambda: check_braces(ell),
    }


# Measured peaks plus about 5%: el_step 114.5, derive 68.8,
# check_C_evolution 179.7, check_braces 59.3 fields (numpy 2.4).
BUDGETS = {
    "el_step": 120,
    "derive": 72,
    "check_C_evolution": 189,
    "check_braces": 62,
}


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_peak_within_budget(name):
    peak = peak_fields(_calls()[name])
    assert peak <= BUDGETS[name], f"{name} peaked at {peak:.1f} fields"
