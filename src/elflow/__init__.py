"""Periodic-box incompressible flow in displacement / virtual-velocity
variables, a classical pseudo-spectral reference solver, identity
certification and rigorous-bound diagnostics."""

from .grid import Grid
from .fields import Field
from .forcing import ForcingSpec
from .classical import NSState, ns_step
from .el import (
    ELState, ELDerived, WState, initial_state, compute_Q, compute_C,
    compute_w, reconstruct_u, derive, el_step, reset_labels, cotangent_step,
)
from .config import RunConfig, load_config, preset

__all__ = [
    "Grid", "Field",
    "ForcingSpec", "NSState", "ns_step",
    "ELState", "ELDerived", "WState", "initial_state", "compute_Q",
    "compute_C", "compute_w", "reconstruct_u", "derive", "el_step",
    "reset_labels", "cotangent_step",
    "RunConfig", "load_config", "preset",
]

__version__ = "0.1.0"
