"""Command line contract: exit codes, artifacts, determinism."""

import hashlib
import json
import math

import pytest

from phaselab.cli import main, render_listing
from phaselab.scenarios import SCENARIOS


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


class TestListing:
    def test_every_scenario_and_parameter_listed(self):
        text = render_listing()
        for name, sc in SCENARIOS.items():
            assert name in text
            for key in sc.parameters:
                assert key in text

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
                                     ("berry-latitude", {"samples": True})):
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

    def test_out_of_domain_scalar_parameter(self, tmp_path, capsys):
        # scalar bounds are config errors too, not library ValueErrors
        for scenario, parameters in (
                ("berry-latitude", {"samples": 2}),
                ("rect-loop", {"samples": 4}),
                ("two-level-sweep", {"step_scale": 0})):
            code, out, cap = run_cli(tmp_path, capsys, scenario,
                                     parameters=parameters)
            assert code == 2, f"{parameters!r} accepted"
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
        # parameter passes schema coercion, construction then rejects it
        code, out, cap = run_cli(tmp_path, capsys, "celestial-residual",
                                 parameters={"m_jupiter": 0.2})
        assert code == 3
        assert cap.err.startswith("phaselab: computation-error:")
        manifest = json.loads(
            (out / "celestial-residual" / "manifest.json").read_text())
        assert manifest["error"]["kind"] == "computation-error"
        assert "m_j" in manifest["error"]["message"]

    def test_runner_crash(self, tmp_path, capsys):
        # any exception out of a runner is a computation error, not exit 1
        code, out, cap = run_cli(tmp_path, capsys, "ab-electric",
                                 parameters={"count": 0})
        assert code == 3
        assert cap.err.startswith("phaselab: computation-error:")
        manifest = json.loads(
            (out / "ab-electric" / "manifest.json").read_text())
        assert manifest["error"]["kind"] == "computation-error"

    def test_failed_rerun_drops_stale_summary(self, tmp_path, capsys):
        code, out, _ = run_cli(tmp_path, capsys, "scatter-phase")
        assert code == 0
        code, out, _ = run_cli(tmp_path, capsys, "scatter-phase",
                               parameters={"p": 0})
        assert code == 3
        outdir = out / "scatter-phase"
        assert not (outdir / "summary.json").exists()
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["error"]["kind"] == "computation-error"


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
        assert manifest["duration_seconds"] > 0.0

    def test_list_parameter_echoed_as_text(self, tmp_path, capsys):
        code, out, _ = run_cli(tmp_path, capsys, "berry-latitude",
                               parameters={"colatitudes_deg": "45, 90"})
        assert code == 0
        manifest = json.loads(
            (out / "berry-latitude" / "manifest.json").read_text())
        assert manifest["config"]["parameters"]["colatitudes_deg"] == "45, 90"

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
