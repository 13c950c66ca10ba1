"""Command line contract: exit codes, artifacts, determinism."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselab import cli
from phaselab.cli import main, render_listing
from phaselab.scenarios import SCENARIOS


# (scenario, name, former default) of each method setting the catalog
# fixed at its default value
REMOVED_PARAMETERS = (
    ("berry-equator", "step", 0.02),
    ("berry-equator", "wilson_samples", 800),
    ("berry-wilson-sweep", "step", 0.02),
    ("berry-wilson-sweep", "wilson_samples", 800),
    ("berry-latitude", "samples", 800),
    ("linking", "samples", 200),
    ("topo-phase", "samples", 200),
    ("topo-phase", "line_span", 30.0),
    ("topo-phase", "tolerance", 1e-2),
    ("scatter-phase", "points", 33),
    ("scatter-bounce", "trials", 200000),
    ("scatter-wavepacket", "dt", 0.01),
    ("ab-electric", "count", 1000),
    ("pendulum-msw", "rtol", 1e-10),
    ("pendulum-msw", "conservation_time", 200.0),
    ("two-level-sweep", "span_factor", 14.0),
    ("two-level-sweep", "step_scale", 0.04),
    ("rect-loop", "samples", 2000),
    ("celestial-frozen", "orbits", 8.5),
    ("celestial-frozen", "rtol", 1e-12),
    ("celestial-residual", "rtol", 1e-12),
    ("celestial-residual", "n_periods", 1.0),
    ("monopole-angmom", "excision_scale", 0.01),
)


def write_config(tmp_path, name="config.json", **body):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def run_cli(tmp_path, capsys, scenario, parameters=None, seed=None,
            extra_args=(), **top_level):
    body = {"scenario": scenario}
    if parameters is not None:
        body["parameters"] = parameters
    if seed is not None:
        body["seed"] = seed
    body.update(top_level)
    cfg = write_config(tmp_path, **body)
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out), *extra_args])
    captured = capsys.readouterr()
    return code, out, captured


def run_fresh(tmp_path, scenario, parameters):
    """``phaselab run`` in a fresh interpreter, where Python's default
    filter would print any warning that reached it: (process, out root)."""
    src = Path(cli.__file__).resolve().parents[1]
    cfg = write_config(tmp_path, scenario=scenario, parameters=parameters)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "phaselab.cli", "run", "--config", cfg,
         "--out", str(out)], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=300)
    return proc, out


class TestListing:
    def test_every_scenario_and_parameter_listed(self):
        text = render_listing()
        for name, sc in SCENARIOS.items():
            assert name in text
            for key in sc.parameters:
                assert key in text

    def test_scenarios_without_parameters_listed(self):
        # name and description only, then the blank separator line
        lines = render_listing().splitlines()
        for name in ("linking", "topo-phase"):
            assert SCENARIOS[name].parameters == {}
            at = lines.index(name)
            assert lines[at + 1] == f"  {SCENARIOS[name].description}"
            assert lines[at + 2] == ""

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "berry-equator" in out
        assert "celestial-residual" in out


class TestConfigRejection:
    def test_unknown_scenario(self, tmp_path, capsys):
        code, out, cap = run_cli(tmp_path, capsys, "no-such-scenario")
        assert code == 2
        assert cap.err.startswith("phaselab: config-error:")
        manifest = json.loads((out / "unresolved" / "manifest.json").read_text())
        assert manifest["error"]["kind"] == "config-error"
        assert manifest["checks"] == []

    def test_unknown_parameter(self, tmp_path, capsys):
        code, out, cap = run_cli(tmp_path, capsys, "scatter-phase",
                                 parameters={"bogus": 1.0})
        assert code == 2
        assert "bogus" in cap.err
        # the failure record is parked with its scenario
        manifest = json.loads(
            (out / "scatter-phase" / "manifest.json").read_text())
        assert manifest["error"]["kind"] == "config-error"

    def test_unknown_top_level_key(self, tmp_path, capsys):
        code, _, cap = run_cli(tmp_path, capsys, "scatter-phase",
                               comment="hello")
        assert code == 2
        assert "comment" in cap.err

    def test_uncoercible_parameter(self, tmp_path, capsys):
        for scenario, parameters in (("scatter-phase", {"p": "fast"}),
                                     ("celestial-frozen", {"nodes": True})):
            code, _, cap = run_cli(tmp_path, capsys, scenario,
                                   parameters=parameters)
            assert code == 2, f"{parameters!r} accepted"

    def test_malformed_list_parameter(self, tmp_path, capsys):
        # list parameters are parsed and domain-checked before any runner
        for scenario, parameters in (
                ("berry-latitude", {"colatitudes_deg": "abc"}),
                ("monopole-angmom", {"separations": "0"}),
                ("two-level-sweep", {"pairs": "0.5"})):
            code, out, cap = run_cli(tmp_path, capsys, scenario,
                                     parameters=parameters)
            assert code == 2, f"{parameters!r} accepted"
            assert cap.err.startswith("phaselab: config-error:")
            manifest = json.loads(
                (out / scenario / "manifest.json").read_text())
            assert manifest["error"]["kind"] == "config-error"
            assert manifest["outputs"] == {}

    def test_out_of_domain_scalar_parameter(self, tmp_path, capsys,
                                            monkeypatch):
        # a value outside the domain of a library object the scenario
        # builds is a config error, found before any runner starts
        for name, sc in SCENARIOS.items():
            monkeypatch.setitem(SCENARIOS, name, dataclasses.replace(
                sc, runner=lambda *args: pytest.fail("runner started")))
        for scenario, parameters in (
                ("celestial-frozen", {"nodes": 7}),
                ("celestial-residual", {"nodes": 2}),
                ("scatter-wavepacket", {"grid_points": 8192.5}),
                ("scatter-wavepacket", {"round_trips": 1.5}),
                ("scatter-phase", {"p": 0}),
                ("scatter-phase", {"m": 0}),
                ("scatter-phase", {"X": 0}),
                ("scatter-phase", {"gamma_max": 0}),
                ("scatter-phase", {"gamma_max": -1}),
                ("scatter-bounce", {"epsilon": 0}),
                ("scatter-bounce", {"epsilon": 1}),
                ("scatter-bounce", {"p": -1}),
                ("pendulum-msw", {"rate_scale": 0}),
                ("pendulum-msw", {"l_mu": 0}),
                ("pendulum-msw", {"delta_max": 1}),
                ("scatter-wavepacket", {"width": 0}),
                ("scatter-wavepacket", {"center": 2000}),
                ("scatter-wavepacket", {"grid_points": 1000}),
                ("scatter-wavepacket", {"X": 33}),
                ("celestial-frozen", {"eccentricity": 0.5}),
                ("berry-equator", {"wobble": 0}),
                ("berry-equator", {"wobble": -0.005}),
                ("berry-equator", {"amplitude": 0}),
                ("berry-wilson-sweep", {"wobble": 0}),
                ("berry-wilson-sweep", {"amplitude": -1}),
                ("berry-wilson-sweep", {"factor": 0}),
                ("ab-electric", {"localization_fraction": 0}),
                ("ab-electric", {"localization_fraction": -0.25}),
                ("rect-loop", {"delta0": 0}),
                ("rect-loop", {"epsilon0": -0.5}),
                ("rect-loop", {"adiabaticity": 0}),
                ("rect-loop", {"adiabaticity": -0.001}),
                ("rect-loop", {"transport_step": 0}),
                # 2.45e9 propagator steps, above the work cap
                ("two-level-sweep", {"pairs": "0.5:1e-6"}),
                ("celestial-residual", {"r_jupiter": 2.5})):
            code, out, cap = run_cli(tmp_path, capsys, scenario,
                                     parameters=parameters)
            assert code == 2, f"{parameters!r} accepted"
            assert cap.err.startswith("phaselab: config-error:")
            manifest = json.loads(
                (out / scenario / "manifest.json").read_text())
            assert manifest["error"]["kind"] == "config-error"
            assert manifest["outputs"] == {}

    def test_pendulum_domain_names_the_parameter(self, tmp_path, capsys):
        # checked before the square root, so the reason names the parameter
        for parameters, reason in (({"l_mu": 0}, "l_mu must be positive"),
                                   ({"g": -1}, "g must be positive")):
            code, _, cap = run_cli(tmp_path, capsys, "pendulum-msw",
                                   parameters=parameters)
            assert code == 2, f"{parameters!r} accepted"
            assert cap.err.startswith(
                "phaselab: config-error: scenario 'pendulum-msw' rejects its "
                f"parameters: ValueError: {reason}"), cap.err

    @pytest.mark.parametrize("scenario, parameters, reason", [
        # the base crossing rate overflows to inf; this used to hang
        ("pendulum-msw", {"kappa": 1e300}, "positive and finite"),
        # 3.9e7 Magnus steps before any doubling
        ("pendulum-msw", {"rate_scale": 0.01}, "above the cap of 1e+07"),
        # used to exit 3 after two overflow warnings
        ("rect-loop", {"delta0": 1e300}, "squared level splitting overflows"),
        # 1.8e10 cell updates
        ("scatter-wavepacket", {"grid_points": 400000},
         "above the cap of 1e+10"),
        # 7 steps, but 2.8e11 bytes of arrays
        ("scatter-wavepacket", {"p": 1e4, "grid_points": 1400000000},
         "above the ceiling of 1e+09"),
    ])
    def test_work_and_overflow_domains_exit_before_computing(
            self, tmp_path, scenario, parameters, reason):
        proc, out = run_fresh(tmp_path, scenario, parameters)
        assert proc.returncode == 2, proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith(f"phaselab: config-error: scenario "
                               f"'{scenario}' rejects its parameters: ")
        assert reason in line
        manifest = json.loads((out / scenario / "manifest.json").read_text())
        assert manifest["outputs"] == {}
        assert manifest["duration_seconds"] < 2.0

    def test_non_finite_float_parameter(self, tmp_path, capsys):
        for value in ("inf", "-inf", "nan", math.inf, math.nan):
            code, out, cap = run_cli(tmp_path, capsys, "scatter-phase",
                                     parameters={"gamma_max": value})
            assert code == 2, f"gamma_max {value!r} accepted"
            assert cap.err.startswith("phaselab: config-error:")
            manifest = json.loads(
                (out / "scatter-phase" / "manifest.json").read_text())
            assert manifest["error"]["kind"] == "config-error"
        # rejected before any computation, so these long runs never start
        for scenario, parameters in (("pendulum-msw", {"rate_scale": "nan"}),
                                     ("celestial-frozen",
                                      {"m_jupiter": "nan"})):
            with pytest.raises(cli._CliFailure) as failure:
                cli._validate({"scenario": scenario,
                               "parameters": parameters}, None)
            assert failure.value.kind == "config-error"

    def test_celestial_grid_domains(self):
        # an odd or too small grid is a config error; checked without a
        # run, since a run would be a long one
        for scenario, parameters in (
                ("celestial-frozen", {"nodes": 7}),
                ("celestial-frozen", {"nodes": 3}),
                ("celestial-frozen", {"nodes": 2}),
                ("celestial-residual", {"nodes": 7}),
                ("celestial-residual", {"nodes": 3})):
            with pytest.raises(cli._CliFailure) as failure:
                cli._validate({"scenario": scenario,
                               "parameters": parameters}, None)
            assert failure.value.kind == "config-error", parameters
        for scenario, parameters in (("celestial-frozen", {"nodes": 4}),
                                     ("celestial-residual", {"nodes": 6})):
            cli._validate({"scenario": scenario, "parameters": parameters},
                          None)

    def test_removed_method_settings_rejected(self, tmp_path, capsys,
                                              monkeypatch):
        # method settings are fixed values, not catalog knobs: naming one
        # is an unknown parameter, found before any runner starts
        for name, sc in SCENARIOS.items():
            monkeypatch.setitem(SCENARIOS, name, dataclasses.replace(
                sc, runner=lambda *args: pytest.fail("runner started")))
        for scenario, key, value in REMOVED_PARAMETERS:
            with pytest.raises(cli._CliFailure) as failure:
                cli._validate({"scenario": scenario,
                               "parameters": {key: value}}, None)
            assert failure.value.kind == "config-error"
            assert f"unknown parameter '{key}'" in str(failure.value)
            code, out, cap = run_cli(tmp_path, capsys, scenario,
                                     parameters={key: value})
            assert code == 2, f"{scenario} {key} accepted"
            assert cap.err.startswith("phaselab: config-error:")
            manifest = json.loads(
                (out / scenario / "manifest.json").read_text())
            assert manifest["error"]["kind"] == "config-error"
            assert manifest["outputs"] == {}

    def test_bad_seed(self, tmp_path, capsys):
        for seed in (-1, True, 1.5):
            code, _, cap = run_cli(tmp_path, capsys, "scatter-phase",
                                   seed=seed)
            assert code == 2, f"seed {seed!r} accepted"

    def test_malformed_json(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "config-error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
        assert "config-error" in capsys.readouterr().err

    def test_non_object_document(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2, 3]")
        assert main(["run", "--config", str(cfg)]) == 2
        capsys.readouterr()


class TestComputationFailure:
    def test_invalid_physics_parameter(self, tmp_path, capsys):
        # parameter passes schema coercion, the library constructor then
        # rejects it before the runner starts
        code, out, cap = run_cli(tmp_path, capsys, "celestial-residual",
                                 parameters={"m_jupiter": 0.2})
        assert code == 2
        assert cap.err.startswith("phaselab: config-error:")
        manifest = json.loads(
            (out / "celestial-residual" / "manifest.json").read_text())
        assert manifest["error"]["kind"] == "config-error"
        assert "m_j" in manifest["error"]["message"]
        assert manifest["outputs"] == {}

    def test_runner_crash(self, tmp_path, capsys, monkeypatch):
        # any exception out of a runner is a computation error, not exit 1
        def crash(inputs, seed, emit):
            raise IndexError("runner crashed")

        monkeypatch.setitem(SCENARIOS, "ab-electric", dataclasses.replace(
            SCENARIOS["ab-electric"], runner=crash))
        code, out, cap = run_cli(tmp_path, capsys, "ab-electric")
        assert code == 3
        assert cap.err.startswith(
            "phaselab: computation-error: IndexError: runner crashed")
        manifest = json.loads(
            (out / "ab-electric" / "manifest.json").read_text())
        assert manifest["error"]["kind"] == "computation-error"
        assert manifest["outputs"] == {}

    def test_failed_rerun_drops_stale_summary(self, tmp_path, capsys):
        code, out, _ = run_cli(tmp_path, capsys, "scatter-phase")
        assert code == 0
        code, out, _ = run_cli(tmp_path, capsys, "scatter-phase",
                               parameters={"p": 0})
        assert code == 2
        outdir = out / "scatter-phase"
        assert not (outdir / "summary.json").exists()
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["error"]["kind"] == "config-error"


class TestAssertionFailure:
    def test_failed_check_exits_one(self, tmp_path, capsys):
        # a weak "strong barrier" sits nowhere near the opaque limit
        code, out, cap = run_cli(tmp_path, capsys, "scatter-phase",
                                 parameters={"gamma_max": 1.0})
        assert code == 1
        assert cap.err.startswith("phaselab: assertion-failure:")
        summary = json.loads(
            (out / "scatter-phase" / "summary.json").read_text())
        assert summary["passed"] is False
        assert any(not c["passed"] for c in summary["checks"])
        manifest = json.loads(
            (out / "scatter-phase" / "manifest.json").read_text())
        assert manifest["error"]["kind"] == "assertion-failure"
        # summary was still produced and inventoried
        assert "summary.json" in manifest["outputs"]

    def test_untrapped_bounce_chain_fails_its_check(self, tmp_path, capsys):
        # at epsilon 1e-10 no sampled chain is trapped: every net is +2p,
        # so the spread is zero and the net z-score is infinite
        code, out, cap = run_cli(tmp_path, capsys, "scatter-bounce",
                                 parameters={"epsilon": 1e-10})
        assert code == 1
        assert cap.err.startswith("phaselab: assertion-failure:")
        summary = json.loads(
            (out / "scatter-bounce" / "summary.json").read_text())
        assert summary["results"]["mc_net_z"] == math.inf
        assert math.isnan(summary["results"]["mc_dwell"])
        verdicts = {c["name"]: c["passed"] for c in summary["checks"]}
        assert verdicts == {
            "expected net momentum cancels exactly": True,
            "monte carlo net momentum within 3 sigma of zero": False,
            "monte carlo dwell matches (1-eps)/eps within 3 sigma": False}


class TestSuccessArtifacts:
    @pytest.fixture()
    def success(self, tmp_path, capsys):
        code, out, cap = run_cli(tmp_path, capsys, "scatter-phase")
        assert code == 0
        return out / "scatter-phase", cap

    def test_stdout_one_liner(self, success):
        outdir, cap = success
        assert "scatter-phase:" in cap.out
        assert "checks passed" in cap.out
        assert cap.err == ""

    def test_summary_contents(self, success):
        outdir, _ = success
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["scenario"] == "scatter-phase"
        assert summary["seed"] == 0
        assert summary["passed"] is True
        assert all(c["passed"] for c in summary["checks"])
        assert summary["results"]["mirror_phase"] == math.pi

    def test_manifest_echoes_resolved_config(self, success):
        outdir, _ = success
        manifest = json.loads((outdir / "manifest.json").read_text())
        cfg = manifest["config"]
        assert cfg["scenario"] == "scatter-phase"
        assert cfg["seed"] == 0
        defaults = {k: entry.default
                    for k, entry in SCENARIOS["scatter-phase"].parameters.items()}
        assert cfg["parameters"] == defaults
        assert manifest["error"] is None
        assert manifest["warnings"] == []
        assert manifest["duration_seconds"] > 0.0

    def test_list_parameter_echoed_as_text(self, tmp_path, capsys):
        code, out, _ = run_cli(tmp_path, capsys, "berry-latitude",
                               parameters={"colatitudes_deg": "45, 90"})
        assert code == 0
        manifest = json.loads(
            (out / "berry-latitude" / "manifest.json").read_text())
        assert manifest["config"]["parameters"]["colatitudes_deg"] == "45, 90"

    def test_warnings_go_to_the_manifest(self, tmp_path):
        # corners at delta0 < 10 epsilon0 raise RegimeWarning, once per loop
        proc, out = run_fresh(tmp_path, "rect-loop",
                              {"delta0": 2.0, "transport_step": 0.04})
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        manifest = json.loads((out / "rect-loop" / "manifest.json").read_text())
        assert manifest["warnings"] == [
            "RegimeWarning: corners at delta0 < 10*epsilon0 sit close to "
            "resonance"]

    @pytest.mark.parametrize("rejects, code", [(False, 0), (True, 2)])
    def test_prepare_warnings_go_to_the_manifest(self, tmp_path, capsys,
                                                 monkeypatch, rejects, code):
        original = SCENARIOS["scatter-phase"]

        def prepare(params):
            warnings.warn("prepared", RuntimeWarning)
            if rejects:
                raise ValueError("rejected")
            return original.prepare(params)

        monkeypatch.setitem(SCENARIOS, "scatter-phase", dataclasses.replace(
            original, prepare=prepare))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # one that escaped would raise
            assert run_cli(tmp_path, capsys, "scatter-phase")[0] == code
        manifest = json.loads(
            (tmp_path / "out" / "scatter-phase" / "manifest.json").read_text())
        assert manifest["warnings"] == ["RuntimeWarning: prepared"]

    def test_output_digests_match(self, success):
        outdir, _ = success
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["outputs"]
        for fname, digest in manifest["outputs"].items():
            actual = hashlib.sha256((outdir / fname).read_bytes()).hexdigest()
            assert actual == digest, fname

    def test_csv_layout(self, success):
        outdir, _ = success
        lines = (outdir / "phase_sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        units = lines[1].split(",")
        assert len(header) == len(units)
        assert len(lines) > 3
        for row in lines[2:]:
            cells = row.split(",")
            assert len(cells) == len(header)
            for cell in cells:
                float(cell)


class TestCsvWriter:
    @staticmethod
    def reference(columns):
        # one cell at a time: floats at %.17g, anything else as str
        def cell(value):
            if isinstance(value, np.floating):
                return "%.17g" % float(value)
            return str(value)
        arrays = [np.asarray(col[2]) for col in columns]
        lines = [",".join(col[0] for col in columns),
                 ",".join(col[1] for col in columns)]
        lines += [",".join(cell(a[i]) for a in arrays)
                  for i in range(len(arrays[0]))]
        return ("\n".join(lines) + "\n").encode()

    def test_cells_match_the_per_cell_format(self, tmp_path):
        floats = [math.nan, math.inf, -math.inf, -0.0, 1e-300, 0.1,
                  1.0 / 3.0, 2.0 ** 60]
        n = len(floats)
        for columns in (
                [("x", "length", np.array(floats)),
                 ("k", "count", np.arange(-3, n - 3)),
                 ("big", "count", np.full(n, 2 ** 62, dtype=np.int64)),
                 ("u", "count", np.arange(n, dtype=np.uint8)),
                 ("f32", "length", np.linspace(0, 1, n, dtype=np.float32)),
                 ("ok", "flag", np.arange(n) % 3 == 0),
                 ("label", "name", [f"case {k}" for k in range(n)])],
                [("x", "length", np.zeros(0)), ("k", "count", [])],
                [("t", "time", np.linspace(0.0, 1.0, 2 * 4096 + 3)),
                 ("step", "count", np.arange(2 * 4096 + 3))]):
            path = tmp_path / "table.csv"
            cli._write_csv(path, columns)
            assert path.read_bytes() == self.reference(columns)

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(cli.PhaseLabError, match="unequal length"):
            cli._write_csv(tmp_path / "table.csv",
                           [("a", "1", [1.0, 2.0]), ("b", "1", [1.0])])


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario="scatter-phase")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out_b)]) == 0
        capsys.readouterr()
        da, db = out_a / "scatter-phase", out_b / "scatter-phase"
        for fname in ("phase_sweep.csv", "summary.json"):
            assert (da / fname).read_bytes() == (db / fname).read_bytes()
        ma = json.loads((da / "manifest.json").read_text())
        mb = json.loads((db / "manifest.json").read_text())
        for m in (ma, mb):
            m.pop("duration_seconds")
            m["config"].pop("out_dir")
        assert ma == mb

    def test_seed_changes_sampled_results(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario="ab-electric", seed=7)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out_b),
                     "--seed", "8"]) == 0
        capsys.readouterr()
        sa = json.loads(
            (out_a / "ab-electric" / "summary.json").read_text())
        sb = json.loads(
            (out_b / "ab-electric" / "summary.json").read_text())
        assert sa["seed"] == 7 and sb["seed"] == 8
        assert sa["results"] != sb["results"]

    @pytest.mark.parametrize("seed, csv_digest, summary_digest", [
        (0, "c3a76302ccb382c87374416b5527e22acba34508f5f1a63a66ded5586e3110ba",
         "8f4014b7345ec52422d6e76913709160f9a9815faac4ef2ae46a8e843f970a72"),
        (1, "8d7beceb4583f82abaa4dfd8b19f136021df9ca937a72162c665bf8543e1401f",
         "b88b199e0ea4203c56f7bba417710ac6a193ca2c8a0410db0dfb7a2cd275ec42"),
        (7, "421df2a05ca88efe308b8e03b022d2413cdb6a3f163ec24bd0500528df0aedc0",
         "c24236cb12de7955e46c7835849fd631ce66ceaca071e7ac2c3401bcfff54406"),
    ])
    def test_capacitor_draws_frozen(self, tmp_path, capsys, seed, csv_digest,
                                    summary_digest):
        # digests of the one-draw-per-setting loop the array pass replaced
        code, out, _ = run_cli(tmp_path, capsys, "ab-electric", seed=seed)
        assert code == 0
        manifest = json.loads(
            (out / "ab-electric" / "manifest.json").read_text())
        assert manifest["outputs"]["scenarios.csv"] == csv_digest
        assert manifest["outputs"]["summary.json"] == summary_digest


class TestOutputRootPrecedence:
    def test_env_root_used_when_nothing_else_given(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setenv("PHASELAB_OUT", str(tmp_path / "env-root"))
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, scenario="scatter-phase")
        assert main(["run", "--config", cfg]) == 0
        capsys.readouterr()
        assert (tmp_path / "env-root" / "scatter-phase" /
                "summary.json").exists()

    def test_config_out_dir_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PHASELAB_OUT", str(tmp_path / "env-root"))
        cfg = write_config(tmp_path, scenario="scatter-phase",
                           out_dir=str(tmp_path / "cfg-root"))
        assert main(["run", "--config", cfg]) == 0
        capsys.readouterr()
        assert (tmp_path / "cfg-root" / "scatter-phase" /
                "summary.json").exists()
        assert not (tmp_path / "env-root").exists()

    def test_flag_beats_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario="scatter-phase",
                           out_dir=str(tmp_path / "cfg-root"))
        flag_root = tmp_path / "flag-root"
        assert main(["run", "--config", cfg, "--out", str(flag_root)]) == 0
        capsys.readouterr()
        assert (flag_root / "scatter-phase" / "summary.json").exists()
        assert not (tmp_path / "cfg-root").exists()

    def test_parameter_override_in_config(self, tmp_path, capsys):
        code, out, cap = run_cli(tmp_path, capsys, "scatter-phase",
                                 parameters={"p": 2.0})
        assert code == 0
        manifest = json.loads(
            (out / "scatter-phase" / "manifest.json").read_text())
        assert manifest["config"]["parameters"]["p"] == 2.0


# list, check and a scenario that needs no scipy, in a fresh interpreter;
# prints the scipy modules loaded by then
_STARTUP_PROBE = """
import contextlib, io, json, sys
import phaselab.cli, phaselab.scenarios
with contextlib.redirect_stdout(io.StringIO()):
    codes = [phaselab.cli.main(["list"]), phaselab.cli.main(["check"]),
             phaselab.cli.main(["run", "--config", sys.argv[1],
                                "--out", sys.argv[2]])]
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


class TestStartup:
    def test_scipy_loads_only_where_a_kernel_calls_it(self, tmp_path):
        # scipy takes longer to import than most scenarios take to run;
        # only monopole-angmom, scatter-wavepacket and the celestial
        # scenarios call it, so nothing else may import it
        src = Path(cli.__file__).resolve().parents[1]
        cfg = write_config(tmp_path, scenario="scatter-phase")
        out = tmp_path / "out"
        # TMPDIR holds the scratch dirs of `check`
        env = dict(os.environ, PYTHONPATH=str(src), TMPDIR=str(tmp_path))
        proc = subprocess.run(
            [sys.executable, "-c", _STARTUP_PROBE, cfg, str(out)],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["codes"] == [0, 0, 0]
        assert report["scipy"] == []
        assert (out / "scatter-phase" / "summary.json").is_file()


# bounded floats and short list texts: no draw starts a large allocation
_FUZZ_VALUES = st.one_of(st.floats(-1e6, 1e6, allow_nan=False),
                         st.text(alphabet="0123456789.,:-e ", max_size=12))


def _fuzz_parameters(scenario):
    keys = list(SCENARIOS[scenario].parameters)
    return st.dictionaries(st.sampled_from(keys), _FUZZ_VALUES,
                           max_size=len(keys)).map(
        lambda parameters: (scenario, parameters))


class TestContractFuzz:
    @given(draw=st.one_of([_fuzz_parameters(name) for name in (
               "scatter-phase", "berry-latitude", "ab-electric",
               "scatter-bounce", "rect-loop", "two-level-sweep")]),
           seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_cheap_scenarios_keep_the_contract(self, draw, seed):
        scenario, parameters = draw
        cwd_before = sorted(os.listdir("."))
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp)
            cfg = base / "config.json"
            cfg.write_text(json.dumps({"scenario": scenario, "seed": seed,
                                       "parameters": parameters}))
            out = base / "out"
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["run", "--config", str(cfg), "--out", str(out)])
            # every domain of these scenarios is checked by prepare
            assert code in (0, 1, 2), parameters
            assert (out / scenario / "manifest.json").is_file()
            written = {p for p in base.rglob("*") if p.is_file()} - {cfg}
            assert all(out in p.parents for p in written), written
        assert sorted(os.listdir(".")) == cwd_before
