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
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselab import analogs, cli
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
        for scenario, message in (
                ("no-such-scenario", "unknown scenario 'no-such-scenario'"),
                # neither is a string, so neither can name a scenario
                (["x"], "config must name a scenario"),
                ({"a": 1}, "config must name a scenario")):
            code, out, cap = run_cli(tmp_path, capsys, scenario)
            assert code == 2
            assert cap.err == f"phaselab: config-error: {message}\n"
            manifest = json.loads(
                (out / "unresolved" / "manifest.json").read_text())
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
        # 3.1e11 and 6.3e11 propagator steps
        ("berry-equator", {"wobble": 1e-9}, "above the cap of 1e+07"),
        ("berry-wilson-sweep", {"wobble": 1e-9}, "above the cap of 1e+07"),
        # the period 2 pi / wobble overflows; this used to exit 3
        ("berry-equator", {"wobble": 1e-320}, "above the cap of 1e+07"),
        ("berry-wilson-sweep", {"wobble": 1e-320}, "above the cap of 1e+07"),
        # 8e7 Wilson samples and 2e5 integrals, about 45 s and 27 s
        ("berry-latitude", {"colatitudes_deg": ",".join(["45"] * 100_000)},
         "above the cap of 1e+07"),
        ("monopole-angmom", {"separations": ",".join(["1.5"] * 100_000)},
         "above the cap of 2e+04"),
        # 9.5e4 orbit periods, about 20 minutes
        ("celestial-residual", {"r_jupiter": 1000}, "above the cap of 1e+03"),
        # checked before the step count divides by it
        ("rect-loop", {"transport_step": 0},
         "transport_step must be positive"),
        ("rect-loop", {"transport_step": -0.001},
         "transport_step must be positive"),
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
                               "parameters": parameters})
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
                               "parameters": parameters})
            assert failure.value.kind == "config-error", parameters
        for scenario, parameters in (("celestial-frozen", {"nodes": 4}),
                                     ("celestial-residual", {"nodes": 6})):
            cli._validate({"scenario": scenario, "parameters": parameters})

    def test_celestial_grid_memory_ceiling(self, tmp_path, capsys,
                                           monkeypatch):
        # two stack lanes per node at up to 1 MB each: 10,000,000 nodes
        # would hold 2e13 bytes, and no orbit integration may start
        monkeypatch.setattr(analogs, "solve_ivp", lambda *args, **kwargs:
                            pytest.fail("integration started"))
        for scenario in ("celestial-frozen", "celestial-residual"):
            code, out, cap = run_cli(tmp_path, capsys, scenario,
                                     parameters={"nodes": 10_000_000})
            assert code == 2
            assert cap.err.startswith("phaselab: config-error:")
            assert "above the ceiling of 1e+09" in cap.err
            manifest = json.loads(
                (out / scenario / "manifest.json").read_text())
            assert manifest["error"]["kind"] == "config-error"
            assert manifest["outputs"] == {}
        cli._validate({"scenario": "celestial-frozen",
                       "parameters": {"nodes": 498}})
        with pytest.raises(cli._CliFailure) as failure:
            cli._validate({"scenario": "celestial-frozen",
                           "parameters": {"nodes": 500}})
        assert failure.value.kind == "config-error"

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
                               "parameters": {key: value}})
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
        for seed in (-1, True, 1.5, "abc"):
            code, _, cap = run_cli(tmp_path, capsys, "scatter-phase",
                                   seed=seed)
            assert code == 2, f"seed {seed!r} accepted"

    @pytest.mark.parametrize("out_dir", [
        "results", 5, None, ["results"], "", "results\0",
    ], ids=["out-dir-path", "out-dir-number", "out-dir-null", "out-dir-list",
            "out-dir-empty", "out-dir-nul-byte"])
    def test_out_dir_is_an_unknown_key(self, tmp_path, capsys, out_dir):
        # the output root is --out's alone; a config out_dir is rejected
        # like any unknown key, whatever its value, and its manifest goes
        # to ./phaselab-out
        cfg = write_config(tmp_path, scenario="ab-electric", out_dir=out_dir)
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err == ("phaselab: config-error: unknown config key "
                       "'out_dir'\n")
        outdir = tmp_path / "phaselab-out" / "ab-electric"
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["error"]["kind"] == "config-error"
        assert manifest["outputs"] == {}
        assert not (outdir / "summary.json").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json",
                                                              "phaselab-out"]

    def test_seed_flag_is_no_option(self, tmp_path, capsys):
        # the seed is the config's alone
        cfg = write_config(tmp_path, scenario="ab-electric")
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--config", cfg, "--seed", "3"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_malformed_json(self, tmp_path, capsys):
        # bad syntax, bytes that are not UTF-8, nesting too deep for the
        # parser, and an integer past Python's 4,300-digit conversion limit
        documents = [b"{not json", b'\xff\xfe{"scenario": "linking"}',
                     b"[" * 100_000,
                     b'{"scenario": "linking", "seed": 1' + b"0" * 5000 + b"}"]
        for k, document in enumerate(documents):
            cfg = tmp_path / "broken.json"
            cfg.write_bytes(document)
            out = tmp_path / f"out{k}"
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(
                "phaselab: config-error:")
            manifest = json.loads(
                (out / "unresolved" / "manifest.json").read_text())
            assert manifest["error"]["kind"] == "config-error"

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
        assert sorted(p.name for p in out.iterdir()) == ["ab-electric"]

    def test_output_path_taken_by_a_file_exits_two(self, tmp_path, capsys):
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "scatter-phase").write_text("")
        code, out, cap = run_cli(tmp_path, capsys, "scatter-phase")
        assert code == 2
        assert cap.err.startswith(
            "phaselab: config-error: output directory not writable")
        assert cap.err.count("\n") == 1
        assert sorted(p.name for p in out.iterdir()) == ["scatter-phase"]
        # the blocked root hands the run's manifest on to ./phaselab-out
        manifest = json.loads((tmp_path / "phaselab-out" / "scatter-phase" /
                               "manifest.json").read_text())
        assert manifest["error"]["message"] == cap.err.split(": ", 2)[2][:-1]
        assert manifest["outputs"] == {}

    def test_far_wall_run_publishes_no_table(self, tmp_path, capsys):
        # the packet reaches the far wall in its third block of steps,
        # after 2,048 rows of its time series went to timeseries.csv
        code, out, cap = run_cli(tmp_path, capsys, "scatter-wavepacket",
                                 parameters={"length": 60.0,
                                             "grid_points": 256})
        assert code == 3
        assert cap.err.startswith(
            "phaselab: computation-error: GeometryError: packet reached "
            "the far wall")
        outdir = out / "scatter-wavepacket"
        assert sorted(p.name for p in outdir.iterdir()) == ["manifest.json"]
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["error"]["kind"] == "computation-error"
        assert manifest["outputs"] == {}

    def test_interrupted_run_leaves_no_staging_directory(
            self, tmp_path, capsys, monkeypatch):
        def interrupt(inputs, seed, emit):
            raise KeyboardInterrupt

        monkeypatch.setitem(SCENARIOS, "ab-electric", dataclasses.replace(
            SCENARIOS["ab-electric"], runner=interrupt))
        with pytest.raises(KeyboardInterrupt):
            run_cli(tmp_path, capsys, "ab-electric")
        assert list((tmp_path / "out").iterdir()) == []

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
        # nor its tables, nor the staging directory the rerun wrote into
        assert sorted(p.name for p in outdir.iterdir()) == ["manifest.json"]
        assert sorted(p.name for p in out.iterdir()) == ["scatter-phase"]


    @pytest.mark.parametrize("root", ["long-name", "file"])
    def test_uncreatable_root_hands_its_manifest_on(self, tmp_path, capsys,
                                                    root):
        # a 300-character name is past the file system's name limit, and a
        # file stands where the root would be, so the --out root cannot be
        # created; the manifest goes to ./phaselab-out
        cfg = write_config(tmp_path, scenario="scatter-phase")
        if root == "file":
            (tmp_path / "blocker").write_text("")
        out = {"long-name": "x" * 300, "file": "blocker"}[root]
        assert main(["run", "--config", cfg, "--out", out]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.startswith(
            "phaselab: config-error: output directory not writable")
        assert cap.err.count("\n") == 1
        manifest = json.loads((tmp_path / "phaselab-out" / "scatter-phase" /
                               "manifest.json").read_text())
        assert manifest["error"]["kind"] == "config-error"
        assert manifest["outputs"] == {}
        assert sorted(str(p.relative_to(tmp_path))
                      for p in tmp_path.rglob("*") if p.is_file()) == sorted(
            ["config.json", "phaselab-out/scatter-phase/manifest.json"]
            + (["blocker"] if root == "file" else []))
        if root == "file":
            assert (tmp_path / "blocker").read_text() == ""

    def test_no_root_can_take_the_run(self, tmp_path, capsys):
        # with --out blocked and ./phaselab-out/<scenario> a file too, the
        # run has nowhere to go: it exits 2 with one stderr line and
        # writes nothing
        (tmp_path / "phaselab-out").mkdir()
        (tmp_path / "phaselab-out" / "scatter-phase").write_text("")
        cfg = write_config(tmp_path, scenario="scatter-phase")
        assert main(["run", "--config", cfg, "--out", "x" * 300]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.startswith(
            "phaselab: config-error: output directory not writable")
        assert cap.err.count("\n") == 1
        assert sorted(str(p.relative_to(tmp_path))
                      for p in tmp_path.rglob("*")) == [
            "config.json", "phaselab-out", "phaselab-out/scatter-phase"]


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
        # at epsilon 1e-10 no stratum of 200,000 is trapped: every net is
        # +2p, n eps is below 1 and the dwell has no sample
        code, out, cap = run_cli(tmp_path, capsys, "scatter-bounce",
                                 parameters={"epsilon": 1e-10})
        assert code == 1
        assert cap.err.startswith("phaselab: assertion-failure:")
        summary = json.loads(
            (out / "scatter-bounce" / "summary.json").read_text())
        results = summary["results"]
        assert results["mc_trapped"] == 0
        assert results["mc_net_momentum"] == 2.0
        assert results["mc_net_bound"] > 2.0
        assert math.isnan(results["mc_dwell_deviation"])
        assert results["mc_dwell_bound"] == math.inf
        verdicts = {c["name"]: c["passed"] for c in summary["checks"]}
        assert verdicts == {
            "expected net momentum cancels exactly": True,
            "monte carlo net momentum within its bound of zero, "
            "n eps >= 1": False,
            "monte carlo dwell within its bound of (1-eps)/eps": False,
            "monte carlo dwell second moment within its bound of "
            "(1-eps)(2-eps)/eps^2": False}


class TestCheckCommand:
    @pytest.mark.parametrize("failure", ["check", "raise"])
    def test_failed_check_scenario_exits_one(self, tmp_path, capsys,
                                             monkeypatch, failure):
        # check runs each check scenario into a scratch root; a failed
        # check or a runner that raises fails it, and nothing outlives it
        def runner(inputs, seed, emit):
            if failure == "raise":
                raise RuntimeError("runner broke")
            return {}, [("forced", False)]

        monkeypatch.setitem(SCENARIOS, "scatter-phase", dataclasses.replace(
            SCENARIOS["scatter-phase"], runner=runner))
        scratch, cwd = tmp_path / "tmp", tmp_path / "cwd"
        scratch.mkdir()
        cwd.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        monkeypatch.chdir(cwd)
        assert main(["check"]) == 1
        cap = capsys.readouterr()
        assert cap.out.count("checks passed") == 5
        reason = {"check": "assertion-failure: 1 of 1 built-in checks "
                           "failed: forced",
                  "raise": "computation-error: RuntimeError: runner broke"}
        assert cap.err.splitlines() == [
            f"phaselab: {reason[failure]}",
            "phaselab: assertion-failure: 1 of 6 check scenarios failed: "
            "scatter-phase"]
        assert list(scratch.iterdir()) == []
        assert list(cwd.iterdir()) == []


class TestChecksOnTheCircle:
    def test_wilson_phases_either_side_of_the_cut(self, tmp_path, capsys):
        # both loop phases are pi, rounded to opposite ends of (-pi, pi]:
        # their difference is measured on the circle
        code, out, _ = run_cli(tmp_path, capsys, "berry-wilson-sweep",
                               parameters={"amplitude": 4.565, "factor": 27.4})
        assert code == 0
        results = json.loads(
            (out / "berry-wilson-sweep" / "summary.json").read_text())["results"]
        assert results["wilson_base"] > 0.0 > results["wilson_scaled"]
        assert results["wilson_difference"] < 1e-12

    def test_large_start_angle_is_its_reduced_angle(self, tmp_path, capsys):
        # phi0 + omega_j t beside phi0 = 1e15 would lose t to rounding and
        # stop the perturber (ratio 0.26 against its 0.15 bound); the run
        # reads phi0 as the same angle in (-pi, pi]
        summaries = []
        for k, phi0 in enumerate((1e15, math.atan2(math.sin(1e15),
                                                    math.cos(1e15)))):
            (tmp_path / str(k)).mkdir()
            code, out, _ = run_cli(tmp_path / str(k), capsys,
                                   "celestial-residual",
                                   parameters={"phi0": phi0})
            assert code == 0
            summaries.append(
                (out / "celestial-residual" / "summary.json").read_bytes())
        assert summaries[0] == summaries[1]


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

    @staticmethod
    def write(path, *blocks):
        """Emit each block of columns to path; returns its sha256."""
        emit = cli._CsvWriter(path.parent)
        for columns in blocks:
            emit(path.name, columns)
        return emit.close()[path.name]

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
            digest = self.write(path, columns)
            assert path.read_bytes() == self.reference(columns)
            assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_row_blocks_write_the_one_block_bytes(self, tmp_path):
        n = 3 * 1024 + 5
        columns = [("t", "time", np.linspace(0.0, 1.0, n)),
                   ("step", "count", np.arange(n))]
        whole = self.write(tmp_path / "whole.csv", columns)
        cuts = [0, 1, 700, 700, 2048, 3000, n]
        blocks = [[(name, units, values[a:b]) for name, units, values in columns]
                  for a, b in zip(cuts, cuts[1:])]
        assert self.write(tmp_path / "blocks.csv", *blocks) == whole
        assert (tmp_path / "blocks.csv").read_bytes() == \
            (tmp_path / "whole.csv").read_bytes()

    @pytest.mark.parametrize("block", [
        [("t", "time", [0.5]), ("step", "index", [1])],
        [("t", "time", [0.5]), ("k", "count", [1])],
        [("t", "time", [0.5]), ("step", "count", [1.5])],
        [("t", "time", [0.5])]])
    def test_block_that_changes_the_columns_rejected(self, tmp_path, block):
        emit = cli._CsvWriter(tmp_path)
        emit("table.csv", [("t", "time", [0.0]), ("step", "count", [0])])
        with pytest.raises(cli.PhaseLabError, match="do not match"):
            emit("table.csv", block)
        emit.discard()
        assert list(tmp_path.iterdir()) == []

    def test_emit_memory_does_not_grow_with_rows(self, tmp_path,
                                                 monkeypatch):
        # each block is hashed as it is written, so no output is read back
        peaks = {}

        def runner(rows, seed, emit):
            columns = [("t", "time", np.linspace(0.0, 1.0, rows))]
            tracemalloc.start()
            try:
                emit(f"rows{rows}.csv", columns)
                peaks[rows] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return {}, []

        monkeypatch.setitem(SCENARIOS, "scatter-phase", dataclasses.replace(
            SCENARIOS["scatter-phase"], runner=runner))
        for rows in (10 ** 4, 10 ** 5):
            _, _, outputs, _ = cli._execute("scatter-phase", rows, 0, tmp_path)
            name = f"rows{rows}.csv"
            data = (tmp_path / name).read_bytes()
            assert len(data) > 20 * rows
            assert outputs[name] == hashlib.sha256(data).hexdigest()
        # a writer that kept its rows would hold 1.8 MB more text at 10^5
        assert peaks[10 ** 5] - peaks[10 ** 4] < 100_000

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(cli.PhaseLabError, match="unequal length"):
            cli._CsvWriter(tmp_path)("table.csv",
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
        cfg_a = write_config(tmp_path, "a.json", scenario="ab-electric",
                             seed=7)
        cfg_b = write_config(tmp_path, "b.json", scenario="ab-electric",
                             seed=8)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg_a, "--out", str(out_a)]) == 0
        assert main(["run", "--config", cfg_b, "--out", str(out_b)]) == 0
        capsys.readouterr()
        sa = json.loads(
            (out_a / "ab-electric" / "summary.json").read_text())
        sb = json.loads(
            (out_b / "ab-electric" / "summary.json").read_text())
        assert sa["seed"] == 7 and sb["seed"] == 8
        assert sa["results"] != sb["results"]

    @pytest.mark.parametrize("seed, csv_digest, summary_digest", [
        (0, "c3a76302ccb382c87374416b5527e22acba34508f5f1a63a66ded5586e3110ba",
         "6277d480bf0e730e3546199b4d52c67aa1e1eafe4e2d224269ae4b91cbb707b0"),
        (1, "8d7beceb4583f82abaa4dfd8b19f136021df9ca937a72162c665bf8543e1401f",
         "f13c5c8dc6bb640669213fe98b40f46a5e0793e0983dcf1680ce612e228e554a"),
        (7, "421df2a05ca88efe308b8e03b022d2413cdb6a3f163ec24bd0500528df0aedc0",
         "95ee5a7098b1bcdb3f0c0366a8437067968e677e0d42cfcef364f5198402d0c4"),
    ], ids=["seed0", "seed1", "seed7"])
    def test_capacitor_draws_frozen(self, tmp_path, capsys, seed, csv_digest,
                                    summary_digest):
        # the CSV digests are those of the one-draw-per-setting loop the
        # array pass replaced; the summaries gained the sampled-overlap
        # visibility check since
        code, out, _ = run_cli(tmp_path, capsys, "ab-electric", seed=seed)
        assert code == 0
        manifest = json.loads(
            (out / "ab-electric" / "manifest.json").read_text())
        assert manifest["outputs"]["scenarios.csv"] == csv_digest
        assert manifest["outputs"]["summary.json"] == summary_digest


class TestOutputRootPrecedence:
    def test_out_else_phaselab_out(self, tmp_path, capsys, monkeypatch):
        # --out is the one way to choose the root; $PHASELAB_OUT is
        # nothing to phaselab
        monkeypatch.setenv("PHASELAB_OUT", str(tmp_path / "env-root"))
        cfg = write_config(tmp_path, scenario="scatter-phase")
        assert main(["run", "--config", cfg]) == 0
        assert main(["run", "--config", cfg, "--out", "flag-root"]) == 0
        capsys.readouterr()
        for root in ("phaselab-out", "flag-root"):
            assert (tmp_path / root / "scatter-phase" / "summary.json").exists()
        assert not (tmp_path / "env-root").exists()

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
    codes = [phaselab.cli.main(["list"]), phaselab.cli.main(["check"])] + [
        phaselab.cli.main(["run", "--config", cfg, "--out", sys.argv[1]])
        for cfg in sys.argv[2:]]
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


class TestStartup:
    def test_scipy_loads_only_where_a_kernel_calls_it(self, tmp_path):
        # scipy takes longer to import than most scenarios take to run;
        # only scatter-wavepacket and the celestial scenarios call it, so
        # nothing else may import it
        src = Path(cli.__file__).resolve().parents[1]
        names = ("scatter-phase", "monopole-angmom")
        cfgs = [write_config(tmp_path, f"{name}.json", scenario=name)
                for name in names]
        out = tmp_path / "out"
        # TMPDIR holds the scratch dirs of `check`
        env = dict(os.environ, PYTHONPATH=str(src), TMPDIR=str(tmp_path))
        proc = subprocess.run(
            [sys.executable, "-c", _STARTUP_PROBE, str(out), *cfgs],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["codes"] == [0, 0, 0, 0]
        assert report["scipy"] == []
        for name in names:
            assert (out / name / "summary.json").is_file()


# bounded floats and short list texts: no draw starts a large allocation
_FUZZ_VALUES = st.one_of(st.floats(-1e6, 1e6, allow_nan=False),
                         st.text(alphabet="0123456789.,:-e ", max_size=12),
                         # JSON integers that overflow a float
                         st.integers(2 ** 1024, 10 ** 400),
                         st.integers(-10 ** 400, -2 ** 1024))


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
