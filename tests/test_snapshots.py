"""Snapshot format: JSON header line plus little-endian float64 payload."""
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from elflow.errors import FieldCompatibilityError
from elflow.fields import Field
from elflow.grid import Grid
from elflow.identities import random_displacement
from elflow.initial import random_scalar, taylor_green
from elflow.snapshots import read_snapshot, write_snapshot
from elflow.spectral import gradient


class TestRoundTrip:
    def test_scalar(self, tmp_path, grid2d):
        s = random_scalar(grid2d, 1)
        path = tmp_path / "s.bin"
        write_snapshot(path, s, time=0.25, name="potential")
        back, header = read_snapshot(path)
        assert back.rank == 0
        assert np.array_equal(back.data, s.data)
        assert header["time"] == 0.25 and header["name"] == "potential"
        assert header["components"] == 1

    def test_vector(self, tmp_path, grid3d):
        u = taylor_green(grid3d)
        path = tmp_path / "u.bin"
        write_snapshot(path, u, time=1.5, name="velocity")
        back, header = read_snapshot(path)
        assert back.rank == 1
        assert np.array_equal(back.data, u.data)
        assert back.grid == grid3d

    def test_tensor(self, tmp_path, grid2d):
        t = gradient(random_displacement(grid2d, 2, 0.1))
        path = tmp_path / "t.bin"
        write_snapshot(path, t, time=0.0, name="grad_ell")
        back, _ = read_snapshot(path)
        assert back.rank == 2
        assert np.array_equal(back.data, t.data)


class TestWireFormat:
    def test_header_is_single_json_line(self, tmp_path, grid2d):
        path = tmp_path / "f.bin"
        write_snapshot(path, taylor_green(grid2d), time=0.5, name="u")
        raw = path.read_bytes()
        line = raw[: raw.index(b"\n")]
        header = json.loads(line)
        assert set(header) == {"dim", "n", "L", "components", "time", "name"}

    def test_payload_little_endian_row_major(self, tmp_path):
        grid = Grid(2, 8, 1.0)
        values = np.arange(64, dtype=float).reshape(8, 8)
        path = tmp_path / "g.bin"
        write_snapshot(path, Field(grid, values), time=0.0, name="ramp")
        raw = path.read_bytes()
        payload = raw[raw.index(b"\n") + 1:]
        decoded = np.frombuffer(payload, dtype="<f8")
        assert np.array_equal(decoded, np.arange(64, dtype=float))


def _header(**overrides) -> dict:
    header = {"dim": 2, "n": 8, "L": 1.0, "components": 1, "time": 0.0, "name": "s"}
    header.update(overrides)
    return header


PAYLOAD = np.arange(64, dtype="<f8").tobytes()
HEADER_LINE = json.dumps(_header()).encode()


class TestMalformed:
    @pytest.fixture(scope="class")
    def snapshot(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("snap") / "s.bin"
        write_snapshot(path, Field(Grid(2, 8, 1.0), np.arange(64.0).reshape(8, 8)),
                       time=0.0, name="s")
        return path, path.read_bytes()

    @pytest.mark.parametrize("raw", [
        HEADER_LINE,
        HEADER_LINE[:20] + b"\n" + PAYLOAD,
        json.dumps(_header(name="\u00e9"), ensure_ascii=False).encode() + b"\n" + PAYLOAD,
        HEADER_LINE + b"\n" + PAYLOAD[:-3],
        json.dumps({k: v for k, v in _header().items() if k != "n"}).encode()
        + b"\n" + PAYLOAD,
        b"[2, 8]\n" + PAYLOAD,
        b"[" * 100_000 + b"\n" + PAYLOAD,
    ], ids=["no-newline", "truncated-header", "non-ascii", "ragged-payload",
            "missing-key", "non-object-header", "deeply-nested-header"])
    def test_malformed_file_is_a_compatibility_error(self, raw, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(raw)
        with pytest.raises(FieldCompatibilityError):
            read_snapshot(path)

    @given(data=st.data())
    def test_any_truncation_is_a_compatibility_error(self, snapshot, data):
        path, raw = snapshot
        cut = data.draw(st.integers(0, len(raw) - 1))
        bad = path.with_name("cut.bin")
        bad.write_bytes(raw[:cut])
        with pytest.raises(FieldCompatibilityError):
            read_snapshot(bad)

    @given(data=st.data(), junk=st.binary(max_size=96))
    def test_garbage_bytes_load_or_are_a_compatibility_error(self, snapshot, data, junk):
        path, raw = snapshot
        start = data.draw(st.integers(0, len(raw)))
        bad = path.with_name("junk.bin")
        bad.write_bytes(raw[:start] + junk + raw[start + len(junk):])
        try:
            read_snapshot(bad)
        except FieldCompatibilityError:
            pass
