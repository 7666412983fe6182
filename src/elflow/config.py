"""Run configuration: one JSON document drives every experiment.

``RunConfig`` carries the grid, physics, time stepping, initial condition,
forcing, potential mode, reset policy, diagnostics cadence and seeds. Every
output of a run is a deterministic function of the configuration, and
``config_hash`` pins it in the emitted manifest.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, asdict, is_dataclass

from .errors import ConfigError
from .forcing import ForcingSpec
from .grid import Grid

__all__ = [
    "GridConfig", "InitialConfig", "ResetConfig", "MCConfig",
    "RunConfig", "load_config", "preset", "PRESETS",
]

RUN_MODES = ("classical", "el", "cotangent", "compare")
COMPARE_KINDS = ("classical", "gauge", "cotangent")
POTENTIAL_MODES = ("static", "dynamic")
INITIAL_KINDS = ("taylor_green", "abc", "random_bandlimited")


@dataclass
class GridConfig:
    dim: int = 2
    n: int = 64
    L: float = 6.283185307179586

    def build(self) -> Grid:
        return Grid(self.dim, self.n, self.L)


@dataclass
class InitialConfig:
    kind: str = "taylor_green"      # taylor_green | abc | random_bandlimited
    seed: int = 0
    amplitude: float = 1.0
    band: int | None = None
    mode: int = 1


@dataclass
class ResetConfig:
    enabled: bool = True


@dataclass
class MCConfig:
    samples: int = 100_000
    seed: int = 7


@dataclass
class RunConfig:
    grid: GridConfig = field(default_factory=GridConfig)
    nu: float = 0.01
    dt: float | None = 1e-3         # None: derived from cfl_target at t = 0
    cfl_target: float = 0.2
    t_end: float = 1.0
    initial: InitialConfig = field(default_factory=InitialConfig)
    forcing: ForcingSpec = field(default_factory=ForcingSpec)
    potential_mode: str = "static"
    reset: ResetConfig = field(default_factory=ResetConfig)
    cadence: int = 10               # diagnostics every this many steps
    m_list: tuple[int, ...] = (2, 3)
    mc: MCConfig = field(default_factory=MCConfig)
    mode: str = "el"
    compare_kind: str = "classical"
    identity_seed: int = 1
    identity_dts: tuple[float, ...] = (4e-3, 2e-3, 1e-3)

    # -- validation / serialization ------------------------------------------

    def validate(self) -> "RunConfig":
        _check_types(self)
        if self.nu < 0:
            raise ConfigError("nu must be >= 0 (nu = 0 runs in Euler mode)")
        if self.mode not in RUN_MODES:
            raise ConfigError(f"mode must be one of {RUN_MODES}, got {self.mode!r}")
        if self.compare_kind not in COMPARE_KINDS:
            raise ConfigError(f"compare_kind must be one of {COMPARE_KINDS}")
        if self.potential_mode not in POTENTIAL_MODES:
            raise ConfigError(f"potential_mode must be one of {POTENTIAL_MODES}")
        if self.initial.kind not in INITIAL_KINDS:
            raise ConfigError(f"initial.kind must be one of {INITIAL_KINDS}")
        if self.initial.kind == "abc" and self.grid.dim != 3:
            raise ConfigError("abc initial condition requires dim = 3")
        if self.initial.mode < 1:
            raise ConfigError("initial.mode must be >= 1 (mode 0 is a zero flow)")
        if self.initial.band is not None and self.initial.band < 1:
            raise ConfigError("initial.band must be >= 1 when given "
                              "(band 0 keeps no mode: a zero flow)")
        if self.t_end <= 0:
            raise ConfigError("t_end must be positive")
        if self.cfl_target <= 0:
            raise ConfigError("cfl_target must be positive")
        if min(self.initial.seed, self.mc.seed, self.identity_seed) < 0:
            raise ConfigError("initial.seed, mc.seed and identity_seed must be >= 0")
        if self.mc.samples < 2:
            raise ConfigError("mc.samples must be >= 2 (the standard error needs two)")
        if min(self.identity_dts, default=0) <= 0 or len(set(self.identity_dts)) < 2:
            raise ConfigError("identity_dts needs two or more distinct positive steps "
                              "(the convergence orders are fitted to them)")
        if self.dt is not None and self.dt <= 0:
            raise ConfigError("dt must be positive when given")
        if self.dt is not None and not math.isfinite(self.t_end / self.dt):
            raise ConfigError("t_end / dt, the step count, overflows")
        if self.cadence < 1:
            raise ConfigError("cadence must be >= 1")
        if any(m < 2 for m in self.m_list) or len(set(self.m_list)) < len(self.m_list):
            raise ConfigError("m_list entries must be distinct integers >= 2")
        try:
            grid = self.grid.build()
        except ValueError as exc:   # the grid carries its own diagnostics
            raise ConfigError(str(exc)) from exc
        # every solver holds its state in the 2/3 band: a mode above it would
        # be truncated at the first step, a force enter the bounds unapplied
        name = "band" if self.initial.kind == "random_bandlimited" else "mode"
        if (getattr(self.initial, name) or 0) > grid.cutoff:
            raise ConfigError(f"initial.{name} must be <= grid.n // 3 = {grid.cutoff}")
        if max((k for _, k, *_ in self.forcing._shears()), default=0) > grid.cutoff:
            raise ConfigError(f"forcing mode indices must be <= grid.n // 3 = {grid.cutoff}")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        import hashlib   # loads OpenSSL, which no step needs: imported here

        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Build and validate a configuration from a JSON document; ``data``
        is not modified."""
        try:
            cfg = _build(cls, data)
        except TypeError as exc:
            raise ConfigError(f"bad configuration document: {exc}") from exc
        return cfg.validate()


def _build(cls, data: dict):
    """``cls`` from a document: the fields whose default is a dataclass are
    sections, built the same way, and the tuple-typed fields take lists."""
    kwargs = dict(data)
    for f in fields(cls):
        if f.name not in kwargs:
            continue
        if is_dataclass(f.default_factory):
            if not isinstance(kwargs[f.name], dict):
                raise ConfigError(f"{f.name} must be a JSON object, "
                                  f"got {kwargs[f.name]!r}")
            kwargs[f.name] = _build(f.default_factory, kwargs[f.name])
        elif f.type.startswith("tuple["):
            kwargs[f.name] = tuple(kwargs[f.name])
    return cls(**kwargs)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite float or an integer within float range (JSON documents may
    carry NaN, Infinity and integers too large for a float)."""
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_types(obj, prefix: str = "") -> None:
    """Reject values whose JSON type does not match the field's annotation:
    integers for int fields and tuple entries, finite numbers for float
    ones, booleans for flags."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        name = prefix + f.name
        kind = f.type.removesuffix(" | None")
        if is_dataclass(value):
            _check_types(value, name + ".")
        elif value is None and kind != f.type:
            continue
        elif kind == "bool" and not isinstance(value, bool):
            raise ConfigError(f"{name} must be true or false, got {value!r}")
        elif (kind == "int" and not _is_int(value)) or (
                kind.startswith("tuple[int") and not all(map(_is_int, value))):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        elif (kind == "float" and not _is_number(value)) or (
                kind.startswith("tuple[float") and not all(map(_is_number, value))):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    return RunConfig.from_dict(data)


# -- shipped desk-scale presets ---------------------------------------------------
# Configuration documents, loaded as any --config document is. Floats are
# written as floats: config.json and the config hash keep the JSON spelling.

PRESETS = {
    "desk-2d": {
        "grid": {"dim": 2, "n": 64}, "nu": 0.01, "dt": 1e-3, "t_end": 1.0,
        "initial": {"kind": "taylor_green"}, "mode": "compare",
    },
    "desk-3d": {
        "grid": {"dim": 3, "n": 32}, "nu": 0.01, "dt": 1e-3, "t_end": 0.5,
        "initial": {"kind": "taylor_green"}, "mode": "compare",
        "m_list": [2], "cadence": 25,
    },
    "bounds-3d": {
        "grid": {"dim": 3, "n": 32}, "nu": 0.05, "dt": 5e-3, "t_end": 2.0,
        "initial": {"kind": "taylor_green", "amplitude": 0.2},
        "forcing": {"kind": "single_mode", "amplitude": 0.02, "mode": 2},
        "reset": {"enabled": False}, "mode": "el", "m_list": [2, 3], "cadence": 20,
    },
    # short enough that the deformation stays invertible without resets
    "euler-2d": {
        "grid": {"dim": 2, "n": 128}, "nu": 0.0, "dt": 5e-3, "t_end": 0.2,
        "initial": {"kind": "taylor_green"}, "mode": "el", "cadence": 5,
        "reset": {"enabled": False},
    },
    "euler-3d": {
        "grid": {"dim": 3, "n": 32}, "nu": 0.0, "dt": 2e-3, "t_end": 0.2,
        "initial": {"kind": "abc", "amplitude": 0.5}, "mode": "el",
        "m_list": [2], "cadence": 10, "reset": {"enabled": False},
    },
}


def preset(name: str) -> RunConfig:
    try:
        document = PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}") from None
    return RunConfig.from_dict(document)
