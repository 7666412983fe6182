"""Binary field snapshots.

Format: one line of JSON ``{dim, n, L, components, time, name}`` terminated
by a newline, followed by raw little-endian 64-bit floats in C (row-major)
order over ``(component, x1, x2[, x3])``. Scalar fields store one component.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import FieldCompatibilityError
from .fields import Field
from .grid import Grid

__all__ = ["write_snapshot", "read_snapshot"]


def write_snapshot(path, field: Field, *, time: float, name: str) -> None:
    grid = field.grid
    data = field.data.reshape(-1, *grid.shape)
    header = {
        "dim": grid.dim,
        "n": grid.n,
        "L": grid.length,
        "components": int(data.shape[0]),
        "time": float(time),
        "name": name,
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("ascii"))
        fh.write(np.ascontiguousarray(data, dtype="<f8"))


def read_snapshot(path):
    """Load a snapshot; returns ``(field, header_dict)``.

    The field rank is recovered from the component count: 1 scalar,
    dim vector, dim^2 rank-2, dim^3 rank-3. A malformed file raises
    ``FieldCompatibilityError``.
    """
    raw = Path(path).read_bytes()
    try:
        return _parse(raw)
    except FieldCompatibilityError:
        raise
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        # no newline, bad, too deeply nested or non-ASCII JSON, a ragged
        # payload, a missing key or a header that is not an object
        raise FieldCompatibilityError(f"malformed snapshot {path}: {exc!r}") from exc


def _parse(raw: bytes):
    newline = raw.index(b"\n")
    header = json.loads(raw[:newline].decode("ascii"))
    grid = Grid(header["dim"], header["n"], header["L"])
    ncomp = header["components"]
    if not isinstance(ncomp, int):
        raise FieldCompatibilityError(f"components must be an integer, got {ncomp!r}")
    data = np.frombuffer(raw[newline + 1:], dtype="<f8").astype(np.float64)
    expected = ncomp * math.prod(grid.shape)
    if data.size != expected:
        raise FieldCompatibilityError(
            f"snapshot payload has {data.size} values, expected {expected}"
        )
    ranks = {grid.dim**rank: rank for rank in range(4)}
    if ncomp not in ranks:
        raise FieldCompatibilityError(f"cannot map {ncomp} components to a field rank")
    return Field(grid, data.reshape((grid.dim,) * ranks[ncomp] + grid.shape)), header
