"""Configuration round-trips, validation, CLI exit codes, artifact manifests
and byte-level determinism."""
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from elflow import el, runner
from elflow.cli import main
from elflow.config import (
    GridConfig, InitialConfig, MCConfig, ResetConfig, RunConfig, load_config,
    preset,
)
from elflow.errors import BlowUpError, ConfigError, NearSingularJacobianError
from elflow.forcing import ForcingSpec
from elflow.runner import Lockstep, _start, execute, initial_velocity, run_el
from elflow.snapshots import read_snapshot


def tiny_config(**overrides) -> RunConfig:
    base = dict(
        grid=GridConfig(dim=2, n=16), nu=0.02, dt=2e-3, t_end=0.02,
        initial=InitialConfig(kind="taylor_green"), cadence=2,
        mc=MCConfig(samples=2000, seed=3), m_list=(2,),
    )
    base.update(overrides)
    return RunConfig(**base).validate()


def tiny_bounds_config() -> RunConfig:
    return tiny_config(mode="el", grid=GridConfig(dim=3, n=16), nu=0.05,
                       t_end=0.05, dt=5e-3, cadence=2,
                       initial=InitialConfig(kind="taylor_green", amplitude=0.2),
                       reset=ResetConfig(enabled=False))


def documented_keys(kind: str) -> set[str]:
    """Key set the README gives for one report entry, e.g. "bound checks"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    keys = re.search(kind + r" as\s+`\{([^}]*)\}`", readme).group(1)
    return {k.strip() for k in keys.split(",")}


# JSON scalars as json.loads returns them: floats include NaN and the
# infinities, integers run past the float range
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**1024)
    | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


def _config_paths(obj, prefix=()):
    """Key paths of a configuration: every field, and the fields of each
    nested section."""
    for f in fields(obj):
        yield prefix + (f.name,)
        if is_dataclass(getattr(obj, f.name)):
            yield from _config_paths(getattr(obj, f.name), prefix + (f.name,))


CONFIG_PATHS = sorted(_config_paths(RunConfig()))


class TestConfig:
    def test_round_trip_preserves_hash(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg.to_dict()))
        again = load_config(path)
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    def test_validation_failures(self):
        with pytest.raises(ConfigError):
            tiny_config(nu=-1.0)
        with pytest.raises(ConfigError):
            tiny_config(mode="implicit")
        with pytest.raises(ConfigError):
            tiny_config(t_end=0.0)
        with pytest.raises(ConfigError):
            tiny_config(grid=GridConfig(dim=2, n=9))
        with pytest.raises(ConfigError):
            tiny_config(m_list=(1,))

    def test_euler_mode_allowed(self):
        cfg = tiny_config(nu=0.0)
        assert cfg.nu == 0.0

    def test_presets_all_valid(self):
        # the hashes pin each preset's config.json bytes; loading twice
        # shows that loading leaves the preset documents as they were
        hashes = {
            "desk-2d": "e3bac2edaa5f03ef54e0ad471c7e61be6578dc77b50b86c05bbef4492c5b30ab",
            "desk-3d": "2cd9c2a8bc0d5b8ef29671a7518fa71d5cd97dd3616e7b7bf6f9984af8351825",
            "bounds-3d": "254045ad584fceb8f523d39327c9ae6326d6d76ee4808a5340941f1b8faff39c",
            "euler-2d": "0bd0ca844fce861b69fbc49d5a4371ceb402e9aff8a7903a84830d82a1951853",
            "euler-3d": "5c85781bef91915046c6aa56eade2024f6af02ee39e4ee95d7e3e06c4ce54a0b",
        }
        for name, digest in [*hashes.items(), *hashes.items()]:
            assert preset(name).config_hash() == digest
        with pytest.raises(ConfigError):
            preset("desk-9d")

    @settings(max_examples=500)
    @given(edits=st.dictionaries(st.sampled_from(CONFIG_PATHS), JSON_VALUES,
                                 min_size=1, max_size=3))
    def test_any_document_gives_a_config_or_a_config_error(self, edits):
        # the defaults with a few values replaced by arbitrary JSON
        doc = json.loads(json.dumps(RunConfig().to_dict()))
        for path, value in edits.items():
            section = doc
            for key in path[:-1]:
                section = section[key] if isinstance(section.get(key), dict) else {}
            section[path[-1]] = value
        try:
            cfg = RunConfig.from_dict(doc)
        except ConfigError:
            return
        assert isinstance(cfg, RunConfig)

    def test_readme_lists_the_config_fields(self):
        cfg = RunConfig()
        assert documented_keys("a run configuration") == {f.name for f in fields(cfg)}
        for f in fields(cfg):
            sub = getattr(cfg, f.name)
            if is_dataclass(sub):
                assert documented_keys(f"`{f.name}`") == {g.name for g in fields(sub)}

    def test_bad_document_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        # keys of settings that are constants now
        removed = ({"cfl_limit": 0.4}, {"C0": 1.0}, {"C_K": 1.0},
                   {"gauge_seed": 42}, {"snapshots": "ends"},
                   {"reset": {"threshold": 0.25}}, {"mc": {"delta0": None}})
        for text in ("{\"unknown_key\": 1}", "[" * 100_000, *map(json.dumps, removed)):
            path.write_text(text)
            with pytest.raises(ConfigError):
                load_config(path)


class TestCompareRuns:
    def test_identical_configs_give_zero(self):
        cfg = tiny_config(mode="classical")
        u0 = initial_velocity(cfg)
        beside = Lockstep(cfg, u0, "classical")
        for state, _ in _start(cfg, "classical", u0)[1]:
            beside(state.t, {"u": state.u})
        rep = beside.finish()
        assert rep.max_rel_l2 == 0.0 and rep.max_rel_linf == 0.0

    @pytest.mark.parametrize("kind", ["classical", "cotangent", "gauge"])
    def test_oracle_keeps_no_records_or_snapshots(self, kind, tmp_path, monkeypatch):
        written = []
        monkeypatch.setattr(runner, "write_snapshot",
                            lambda path, *args, **kwargs: written.append(path.name))
        cfg = tiny_config(compare_kind=kind)
        u0 = initial_velocity(cfg)
        beside = Lockstep(cfg, u0, kind)
        run_el(cfg, u0, each_sample=beside, snapdir=tmp_path)
        beside.finish()
        assert beside.result.records == []
        # the EL run's seven fields, each once at t = 0 and once at t_end
        assert len(written) == len(set(written)) == 14

    @pytest.mark.parametrize("kind", ["classical", "cotangent", "gauge"])
    def test_only_el_samples_are_recorded(self, kind, tmp_path, monkeypatch):
        """An oracle is read for its u and w alone: a compare makes one
        record per EL row and none for the oracle."""
        calls = Counter()
        for name in ("record_classical", "record_el"):
            def counted(*args, _fn=getattr(runner, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(runner, name, counted)
        out = tmp_path / "o"
        assert execute(tiny_config(compare_kind=kind), out, command="compare") == 0
        rows = len((out / "timeseries.csv").read_text().splitlines()) - 1
        assert (calls["record_classical"], calls["record_el"]) == (0, rows)

    @pytest.mark.parametrize("kind", ["classical", "cotangent", "gauge"])
    def test_u0_is_released_at_the_first_step(self, kind, tmp_path, monkeypatch):
        """A compare reads u0 for its step plan, its RMS reference and the
        initial states alone: once its first stepped sample is taken, no
        frame holds u0's data. A classical or cotangent oracle starts from
        u0 itself, so it is alive at t = 0; EL states start from a copy."""
        made, alive = [], []
        make = runner.initial_velocity

        def tracked(cfg):
            u0 = make(cfg)
            made.append(weakref.ref(u0.data))
            return u0

        take = Lockstep.__call__

        def sampled(self, t, fields):
            take(self, t, fields)
            alive.append(made[0]() is not None)

        monkeypatch.setattr(runner, "initial_velocity", tracked)
        monkeypatch.setattr(Lockstep, "__call__", sampled)
        assert execute(tiny_config(compare_kind=kind), tmp_path / "o", command="compare") == 0
        assert len(alive) == 6 and alive[0] == (kind != "gauge")
        assert not any(alive[1:])

    def test_mismatched_grids_rejected(self):
        a, b = (tiny_config(mode="classical"),
                tiny_config(mode="classical", grid=GridConfig(dim=2, n=32)))
        beside = Lockstep(a, initial_velocity(a), "classical")
        with pytest.raises(ConfigError):
            beside(0.0, {"u": initial_velocity(b)})


class TestCLI:
    def test_run_emits_artifacts_and_manifest(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(mode="el").to_dict()))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == tiny_config(mode="el").config_hash()
        for rel, digest in manifest["files"].items():
            data = (out / rel).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest
        assert "timeseries.csv" in manifest["files"]
        assert any(rel.startswith("snapshots/") for rel in manifest["files"])

    def test_determinism_bit_identical_outputs(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(mode="el").to_dict()))
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
            outs.append((out / "timeseries.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_compare_writes_report(self, tmp_path):
        cfg = tiny_config(mode="compare", compare_kind="classical")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg_path), "--out", str(out)]) == 0
        rep = json.loads((out / "report_compare.json").read_text())
        assert rep["kind"] == "classical"
        assert rep["max_rel_l2"] < 1e-6

    def test_bad_config_exits_1(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{\"nu\": -2}")
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 1

    def test_bounds_report_requires_reset_disabled(self, tmp_path):
        cfg = tiny_config(mode="el")  # reset enabled by default
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert main(["bounds-report", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 1

    def test_bounds_report_rejects_resets_before_any_step(self, tmp_path):
        # both bound commands assume an unbroken run from t = 0; a command
        # that is none of runner.COMMANDS fails the same way
        for command in ("bounds-report", "pair-dispersion", "bogus"):
            out = tmp_path / command
            with pytest.raises(ConfigError):
                execute(tiny_config(mode="el"), out, command=command)
            assert not out.exists()

    @pytest.mark.parametrize("doc", [
        {"cfl_target": 1e-300, "t_end": 1e10},
        {"cfl_target": 5e-324, "initial": {"amplitude": 10.0}},
    ], ids=["infinite-step-count", "zero-step"])
    def test_overflowing_cfl_step_count_exits_1(self, doc, tmp_path, capsys):
        # the step comes from cfl_target and max|u0|, so validate cannot see it
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"grid": {"dim": 2, "n": 8}, "dt": None, **doc}))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "config"
        assert not (tmp_path / "o").exists()

    def test_out_path_that_is_a_file_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(mode="el").to_dict()))
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "output"

    @pytest.mark.parametrize("first", ["cfl-failure", "bounds-report"])
    def test_non_empty_out_exits_1_and_keeps_its_files(self, first, tmp_path, capsys):
        # a run into the --out of an earlier command would list and hash
        # that command's failure.json or report_bounds.json in its manifest
        out = tmp_path / "o"
        if first == "cfl-failure":
            assert execute(tiny_config(mode="el", dt=5.0, t_end=10.0), out) == 2
        else:
            assert execute(tiny_bounds_config(), out, command="bounds-report") == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(mode="el").to_dict()))
        capsys.readouterr()
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "output"
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        # an output directory that exists but is empty is taken
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["run", "--config", str(cfg_path), "--out", str(empty)]) == 0

    def test_cli_import_leaves_openssl_unloaded(self):
        """``hashlib`` loads OpenSSL (about 3.6 MiB of RSS); only the manifest
        and the configuration hash read it, at the end of a command."""
        script = "import sys\nimport elflow.cli\nprint('_hashlib' in sys.modules)\n"
        src = str(Path(el.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("doc", [
        {"grid": [2, 16]},
        {"nu": "x"},
        {"reset": {"enabled": "no"}},
        {"identity_dts": []},
        {"identity_dts": [1e-3]},
        {"mc": {"samples": 1}},
        # settings that are constants now: a document carrying one fails
        # as an unknown key
        {"cfl_limit": 0.0},
        {"reset": {"threshold": 0.0}},
        {"grid": {"n": 16.0}},
        {"mc": {"samples": 100.0}},
        {"cadence": 1.5},
        {"dt": None, "cfl_target": 0},
        {"initial": {"kind": "vortex"}},
        {"initial": {"kind": "abc"}, "grid": {"dim": 2}},
        {"forcing": {"kind": "multi_mode", "amplitude": 0.1, "modes": [1]}},
        {"forcing": {"kind": "single_mode", "amplitude": 0.1, "mode": 0}},
        {"t_end": float("inf")},
        {"t_end": 1e300, "dt": 1e-10},
        {"nu": float("nan")},
        {"dt": float("nan")},
        {"C0": 0},
        {"mc": {"delta0": 0}},
        {"initial": {"mode": 0}},
        {"initial": {"kind": "random_bandlimited", "band": 0}},
        {"m_list": [2, 2]},
        # mode indices above the 2/3 band, n // 3 = 5 at n = 16
        {"grid": {"n": 16}, "initial": {"kind": "taylor_green", "mode": 6}},
        {"grid": {"dim": 3, "n": 16}, "initial": {"kind": "abc", "mode": 6}},
        {"grid": {"n": 16}, "initial": {"kind": "random_bandlimited", "band": 6}},
        {"grid": {"n": 16}, "forcing": {"kind": "single_mode", "amplitude": 0.5, "mode": 6}},
        {"grid": {"n": 16}, "forcing": {"kind": "multi_mode", "amplitude": 0.5,
                                        "modes": [1, 6]}},
    ], ids=["grid-not-object", "nu-not-numeric", "flag-not-boolean",
            "no-identity-dts", "one-identity-dt", "one-mc-sample",
            "zero-cfl-limit", "zero-reset-threshold", "float-grid-n",
            "float-mc-samples", "fractional-cadence", "zero-cfl-target",
            "unknown-initial-kind", "abc-in-2d", "one-forcing-mode",
            "zero-forcing-mode", "infinite-t-end", "step-count-overflow",
            "nan-nu", "nan-dt", "zero-C0", "zero-delta0", "zero-initial-mode",
            "zero-initial-band", "repeated-m", "taylor-green-beyond-band",
            "abc-beyond-band", "random-band-beyond-band", "single-mode-beyond-band",
            "multi-mode-beyond-band"])
    def test_malformed_config_is_a_config_error(self, doc, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["verify-identities", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err.strip().splitlines()[-1])["error"] == "config"
        assert not (tmp_path / "o").exists()

    def test_modes_at_the_band_edge_are_kept(self, tmp_path):
        """Modes at exactly n // 3 are accepted, and a force there is
        applied: a classical run from rest gains energy."""
        doc = {**tiny_config(mode="classical").to_dict(),
               "initial": {"kind": "taylor_green", "amplitude": 0.0, "mode": 5},
               "forcing": {"kind": "single_mode", "amplitude": 0.5, "mode": 5}}
        cfg_path = tmp_path / "edge.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = (out / "timeseries.csv").read_text().splitlines()
        energy = rows[0].split(",").index("energy")
        assert float(rows[-1].split(",")[energy]) > 1e-6

    @pytest.mark.parametrize("command,doc", [
        ("run", {"mode": "el", "initial": {"kind": "random_bandlimited", "seed": -1}}),
        ("pair-dispersion", {"mode": "el", "reset": {"enabled": False},
                             "mc": {"samples": 2000, "seed": -3}}),
        ("verify-identities", {"identity_seed": -5}),
    ], ids=["initial-seed", "mc-seed", "identity-seed"])
    def test_negative_seed_is_a_config_error(self, command, doc, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({**tiny_config().to_dict(), **doc}))
        assert main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err.strip().splitlines()[-1])["error"] == "config"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_no_run_imports_scipy_fft_and_every_run_loads_the_kernel(self, dim, tmp_path):
        """Transforms of both dims run on scipy's compiled pocketfft kernel,
        loaded from its file, so a fresh process of either dim loads the
        kernel and ends with no scipy module (scipy.fft, scipy.special) in
        sys.modules; and the wavenumber tables are built from integers, so
        it never loads numpy.fft either."""
        cfg_path = tmp_path / "cfg.json"
        cfg = tiny_config(mode="el", grid=GridConfig(dim=dim, n=16))
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        script = ("import sys\n"
                  "from elflow import spectral\n"
                  "from elflow.cli import main\n"
                  f"rc = main({argv!r})\n"
                  "print(rc, sorted(m for m in sys.modules\n"
                  "                 if m.split('.')[0] == 'scipy' or m.startswith('numpy.fft')),\n"
                  "      spectral._pocketfft.cache_info().currsize == 1)\n")
        src = str(Path(el.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        assert proc.stdout.splitlines()[-1] == "0 [] True"

    def test_bounds_report_passes_on_tiny_run(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_bounds_config().to_dict()))
        out = tmp_path / "o"
        assert main(["bounds-report", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        rep = json.loads((out / "report_bounds.json").read_text())
        assert rep["k_bounds"]["checks"]
        assert rep["dispersion"]["pass"] is True

    def test_bounds_report_on_a_flow_at_rest(self, tmp_path):
        # B(t) = 0 without energy or forcing: log B is -inf and lhs = 0
        cfg = tiny_config(mode="el", nu=0.05, t_end=0.05, dt=5e-3,
                          initial=InitialConfig(kind="taylor_green", amplitude=0.0),
                          reset=ResetConfig(enabled=False))
        assert cfg.forcing.is_zero
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "o"
        assert main(["bounds-report", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        assert (out / "manifest.json").is_file()
        series = json.loads((out / "report_bounds.json").read_text())["epsilon"]["series"]
        assert series
        for entry in series:
            assert entry["lhs"] == entry["ratio"] == 0.0
            assert entry["log_ratio"] == -math.inf

    def test_bounds_report_at_zero_viscosity_is_vacuous_not_nan(self, tmp_path, capfd):
        # the epsilon bound carries 1/nu: at nu = 0 its right side is infinite
        cfg = tiny_config(mode="el", grid=GridConfig(dim=3, n=16), nu=0.0, dt=5e-3,
                          t_end=0.05, reset=ResetConfig(enabled=False),
                          initial=InitialConfig(kind="taylor_green", amplitude=0.2))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "o"
        assert main(["bounds-report", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        assert capfd.readouterr().err == ""
        text = (out / "report_bounds.json").read_text()
        assert "NaN" not in text
        epsilon = json.loads(text)["epsilon"]
        assert "nu > 0" in epsilon["note"]
        assert epsilon["exponent"] == math.inf
        assert epsilon["series"]
        for entry in epsilon["series"]:
            assert entry["exponent"] == entry["rhs"] == math.inf
            assert entry["ratio"] == 0.0 and entry["log_ratio"] == -math.inf

    def test_report_entries_carry_the_documented_keys(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_bounds_config().to_dict()))
        assert main(["bounds-report", "--config", str(cfg_path),
                     "--out", str(tmp_path / "b")]) == 0
        bounds = json.loads((tmp_path / "b" / "report_bounds.json").read_text())
        checks = (bounds["k_bounds"]["checks"] + bounds["displacement"]
                  + [c for v in bounds["v_growth"] for c in v["checks"]])
        assert checks
        assert {frozenset(c) for c in checks} == {frozenset(documented_keys("bound checks"))}

        cfg_path.write_text(json.dumps(tiny_config(identity_dts=(8e-3, 4e-3)).to_dict()))
        main(["verify-identities", "--config", str(cfg_path), "--out", str(tmp_path / "i")])
        reports = json.loads((tmp_path / "i" / "report_identities.json").read_text())["reports"]
        assert reports
        assert ({frozenset(r) for r in reports}
                == {frozenset(documented_keys("identity reports"))})

    def test_timeseries_header_is_the_documented_one(self, tmp_path):
        cfg = tiny_config(mode="el", m_list=(2, 3))
        assert execute(cfg, tmp_path / "o") == 0
        header = (tmp_path / "o" / "timeseries.csv").read_text().splitlines()[0].split(",")
        norms = [f"{p}_l{2 * m}" for p in "vg" for m in cfg.m_list]
        assert header[len(header) - len(norms):] == norms
        assert set(header[:len(header) - len(norms)]) == documented_keys("columns")

    @pytest.mark.parametrize("mode", ["classical", "el", "cotangent", "compare"])
    def test_cfl_failure_exits_2_with_partial_artifacts(self, mode, tmp_path):
        cfg = tiny_config(mode=mode, dt=5.0, t_end=10.0)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        failure = json.loads((out / "failure.json").read_text())
        assert failure["error"] == "CFLViolationError"
        # compare runs EL first, so EL's failure is the one reported
        assert failure["solver"] == ("el" if mode == "compare" else mode)
        assert (out / "timeseries.csv").exists()

    @pytest.mark.parametrize("mode", ["el", "classical", "cotangent"])
    def test_forced_flow_from_rest(self, mode, tmp_path):
        # u0 = 0 gives the RMS guard no reference; the forcing sets the flow going
        cfg = tiny_config(mode=mode, initial=InitialConfig(kind="taylor_green", amplitude=0.0),
                          forcing=ForcingSpec(kind="single_mode", amplitude=0.05, mode=2))
        out = tmp_path / "o"
        assert execute(cfg, out) == 0
        assert not (out / "failure.json").exists()
        last = (out / "timeseries.csv").read_text().splitlines()[-1].split(",")
        assert float(last[1]) > 0.0   # energy

    def test_initial_snapshots_are_on_disk_before_the_last_sample(self, tmp_path, monkeypatch):
        cfg, out = tiny_config(mode="el"), tmp_path / "o"
        seen = []

        def el_sample(state, *args, _fn=runner.el_sample, **kwargs):
            if math.isclose(state.t, cfg.t_end):
                seen.extend(read_snapshot(f)[1]["time"]
                            for f in out.glob("snapshots/initial_*.bin"))
            return _fn(state, *args, **kwargs)

        monkeypatch.setattr(runner, "el_sample", el_sample)
        assert execute(cfg, out) == 0
        assert seen == [0.0] * 7

    def test_failure_off_the_cadence_snapshots_the_last_state(self, tmp_path, monkeypatch):
        steps = []

        def el_step(*args, **kwargs):
            steps.append(None)
            if len(steps) == 3:
                raise NearSingularJacobianError(0.0, (0, 0), el.DEFAULT_DET_FLOOR)
            return el.el_step(*args, **kwargs)

        monkeypatch.setattr(runner, "el_step", el_step)
        out = tmp_path / "o"
        # the last state, after step 2, is off the cadence of 3 steps
        assert execute(tiny_config(mode="el", cadence=3), out) == 2
        failure = json.loads((out / "failure.json").read_text())
        assert failure["error"] == "NearSingularJacobianError"
        assert (out / "manifest.json").exists()
        rows = (out / "timeseries.csv").read_text().splitlines()[1:]
        assert not any(math.isclose(float(r.split(",")[0]), failure["t"]) for r in rows)
        finals = list(out.glob("snapshots/final_*.bin"))
        assert len(finals) == 7
        assert all(read_snapshot(f)[1]["time"] == failure["t"] for f in finals)

    @staticmethod
    def _count_steps(monkeypatch, name, fail_on=None):
        """Count the calls of the step ``runner.<name>``; call ``fail_on`` raises."""
        calls = []
        step = getattr(runner, name)

        def counted(*args, **kwargs):
            calls.append(None)
            if len(calls) == fail_on:
                raise BlowUpError("forced failure")
            return step(*args, **kwargs)

        monkeypatch.setattr(runner, name, counted)
        return calls

    @pytest.mark.parametrize("kind,step", [("classical", "ns_step"),
                                           ("cotangent", "cotangent_step")])
    def test_oracle_failure_lets_el_run_to_t_end(self, kind, step, tmp_path, monkeypatch):
        self._count_steps(monkeypatch, step, fail_on=3)
        cfg, out = tiny_config(compare_kind=kind), tmp_path / "o"
        assert execute(cfg, out, command="compare") == 2
        failure = json.loads((out / "failure.json").read_text())
        assert failure["solver"] == kind and math.isclose(failure["t"], 2 * cfg.dt)
        assert not (out / "report_compare.json").exists()
        rows = (out / "timeseries.csv").read_text().splitlines()[1:]
        times = [float(r.split(",")[0]) for r in rows]
        assert len(times) == round(cfg.t_end / cfg.dt) // cfg.cadence + 1
        assert math.isclose(times[-1], cfg.t_end)
        finals = list(out.glob("snapshots/final_*.bin"))
        assert len(finals) == 7
        assert all(math.isclose(read_snapshot(f)[1]["time"], cfg.t_end) for f in finals)

    @pytest.mark.parametrize("kind,step", [("classical", "ns_step"),
                                           ("cotangent", "cotangent_step")])
    def test_el_failure_stops_the_oracle(self, kind, step, tmp_path, monkeypatch):
        self._count_steps(monkeypatch, "el_step", fail_on=3)
        oracle_steps = self._count_steps(monkeypatch, step)
        cfg, out = tiny_config(compare_kind=kind), tmp_path / "o"
        assert execute(cfg, out, command="compare") == 2
        failure = json.loads((out / "failure.json").read_text())
        assert failure["solver"] == "el" and math.isclose(failure["t"], 2 * cfg.dt)
        # EL's last sample is after step 2; the oracle is not stepped past it
        assert len(oracle_steps) == cfg.cadence == 2
        assert not (out / "report_compare.json").exists()

    @pytest.mark.parametrize("command,overrides", [
        ("run", {"mode": "el"}),
        ("compare", {"compare_kind": "classical"}),
        ("compare", {"compare_kind": "cotangent"}),
        ("compare", {"compare_kind": "gauge"}),
        ("compare", {"compare_kind": "classical", "dt": None}),
        ("run", {"mode": "el", "dt": None}),
    ], ids=["el", "classical", "cotangent", "gauge", "classical-cfl-dt", "el-cfl-dt"])
    def test_each_sample_derived_once_and_u0_built_once(self, command, overrides,
                                                        tmp_path, monkeypatch):
        calls = Counter()
        for name in ("derive", "record_el", "make_initial"):
            def counted(*args, _fn=getattr(runner, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(runner, name, counted)
        assert execute(tiny_config(**overrides), tmp_path / "o", command=command) == 0
        assert calls["derive"] == calls["record_el"] > 0
        assert calls["make_initial"] == 1

    def test_identity_step_failure_exits_2_with_partial_artifacts(self, tmp_path):
        # a 1.0 step breaks the CFL limit in the convergence-order checks
        out = tmp_path / "o"
        assert execute(tiny_config(identity_dts=(1.0, 0.5)), out,
                       command="verify-identities") == 2
        failure = json.loads((out / "failure.json").read_text())
        assert failure["error"] == "CFLViolationError"
        assert (failure["solver"], failure["t"]) == ("identities", None)
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["files"]) == ["config.json", "failure.json"]

    def test_verify_identities_smoke(self, tmp_path):
        # n = 64 is the canonical 2D suite grid; the 0.2-amplitude corpus
        # needs that much resolution for the commutator tolerance
        cfg = tiny_config(grid=GridConfig(dim=2, n=64),
                          identity_dts=(8e-3, 4e-3))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "o"
        code = main(["verify-identities", "--config", str(cfg_path),
                     "--out", str(out)])
        rep = json.loads((out / "report_identities.json").read_text())
        assert code == 0, rep
        assert rep["orders_pass"] is True

    def test_identity_assertion_failure_exits_3(self, tmp_path):
        # n = 32 cannot resolve the largest-amplitude corpus entry to the
        # commutator tolerance: a deterministic, honest assertion failure
        cfg = tiny_config(grid=GridConfig(dim=2, n=32),
                          identity_dts=(8e-3, 4e-3))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "o"
        assert main(["verify-identities", "--config", str(cfg_path),
                     "--out", str(out)]) == 3
        rep = json.loads((out / "report_identities.json").read_text())
        assert any(not r["pass"] for r in rep["reports"])

    def test_pair_dispersion_command(self, tmp_path):
        cfg = tiny_config(mode="el", reset=ResetConfig(enabled=False))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "o"
        assert main(["pair-dispersion", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        rep = json.loads((out / "report_dispersion.json").read_text())
        assert rep["pass"] is True
