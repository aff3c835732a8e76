import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hhv.cli import main

FAST = ["--grid-x", "9", "--grid-t", "5", "--samples", "32"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


class TestExitCodes:
    def test_holds_is_zero(self, capsys):
        code, payload, _ = run_json(
            capsys, "check", "--class", "log-phi-convex", "--f", "exp(x)",
            "--phi", "x^2", "--a", "0", "--b", "1", "--seed", "7", *FAST)
        assert code == 0
        assert payload["verdict"] == "holds_on_samples"

    def test_violation_is_one(self, capsys):
        code, payload, _ = run_json(
            capsys, "check", "--class", "convex", "--f", "sqrt(x)",
            "--a", "0", "--b", "1", *FAST)
        assert code == 1
        assert payload["verdict"] == "violated"
        assert payload["witness"] is not None

    def test_usage_error_is_two(self, capsys):
        code, _, _ = run_cli(capsys, "check", "--f", "exp(x)", "--a", "0", "--b", "1")
        assert code == 2

    def test_bad_interval_is_two(self, capsys):
        code, payload, _ = run_json(
            capsys, "check", "--class", "convex", "--f", "x", "--a", "2", "--b", "1")
        assert code == 2
        assert payload["error"]["type"] == "ConfigError"

    @pytest.mark.parametrize("flag", ["--tol", "--quad-tol"])
    def test_nan_tolerance_is_two(self, capsys, flag):
        code, payload, _ = run_json(
            capsys, "check", "--class", "convex", "--f", "x^2",
            "--a", "-1", "--b", "1", flag, "nan", *FAST)
        assert code == 2
        assert payload["error"]["type"] == "ConfigError"

    def test_parse_error_is_two(self, capsys):
        code, payload, _ = run_json(
            capsys, "check", "--class", "convex", "--f", "exp(", "--a", "0", "--b", "1")
        assert code == 2
        assert payload["error"]["type"] == "ParseError"

    def test_numeric_failure_is_three(self, capsys):
        code, payload, _ = run_json(
            capsys, "chain", "--id", "dragomir_mond", "--f", "ln(x)",
            "--a", "0", "--b", "1")
        assert code == 3
        assert payload["error"]["type"] == "PositivityViolated"

    def test_exit_matches_verdict_field(self, capsys):
        code, payload, _ = run_json(
            capsys, "chain", "--id", "classic_hh", "--f", "sqrt(x)",
            "--a", "0", "--b", "1")
        assert code == 1
        assert payload["verdict"] == "link_violated"


class TestChainCommand:
    def test_theorem2_closed_form(self, capsys):
        code, payload, _ = run_json(
            capsys, "chain", "--id", "theorem2", "--f", "exp(x)", "--g", "exp(x)",
            "--phi", "x", "--a", "0", "--b", "1")
        assert code == 0
        vals = [t["value"] for t in payload["terms"]]
        assert vals == pytest.approx([3.19452805] * 3, abs=1e-6)

    def test_theorem2_requires_g(self, capsys):
        code, payload, _ = run_json(
            capsys, "chain", "--id", "theorem2", "--f", "exp(x)",
            "--a", "0", "--b", "1")
        assert code == 2

    def test_diagnostics_flag(self, capsys):
        code, payload, _ = run_json(
            capsys, "chain", "--id", "theorem1", "--f", "exp(x)",
            "--a", "0", "--b", "1", "--diagnostics")
        assert "diagnostics" in payload
        assert "mean_arithmetic_reflected" in payload["diagnostics"]

    def test_hyphenated_chain_id_accepted(self, capsys):
        code, payload, _ = run_json(
            capsys, "chain", "--id", "classic-hh", "--f", "x^2", "--a", "0", "--b", "1")
        assert code == 0
        assert payload["chain_id"] == "classic_hh"


class TestSchema:
    REQUIRED = {"tool_version", "command", "config_echo", "verdict", "seed", "timings"}

    def test_check_schema_fields(self, capsys):
        _, payload, _ = run_json(
            capsys, "check", "--class", "convex", "--f", "x^2",
            "--a", "-1", "--b", "1", *FAST)
        assert self.REQUIRED <= payload.keys()
        assert {"samples_tested", "witness", "min_margin"} <= payload.keys()

    def test_keys_sorted(self, capsys):
        _, out, _ = run_cli(
            capsys, "check", "--class", "convex", "--f", "x^2",
            "--a", "-1", "--b", "1", *FAST)
        payload = json.loads(out)
        assert list(payload) == sorted(payload)

    def test_schema_document_validates(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(
            (Path(__file__).resolve().parent.parent / "docs" / "report_schema.json")
            .read_text())
        for argv in (
            ["check", "--class", "convex", "--f", "x^2", "--a", "-1", "--b", "1", *FAST],
            ["chain", "--id", "dragomir_mond", "--f", "exp(x)", "--a", "0", "--b", "1"],
            ["search", "--target", "check:log-convex", "--f-family", "positive_poly",
             "--a", "1", "--b", "2", "--budget", "5", *FAST],
        ):
            _, payload, _ = run_json(capsys, *argv)
            jsonschema.validate(payload, schema)


class TestDeterminism:
    def _strip_timings(self, text: str) -> str:
        payload = json.loads(text)
        payload.pop("timings")
        return json.dumps(payload, sort_keys=True)

    @pytest.mark.parametrize("argv", [
        ["check", "--class", "log-convex", "--f", "exp(x^2)", "--a", "0", "--b", "1",
         "--seed", "13", *FAST],
        ["chain", "--id", "theorem1", "--f", "exp(x)", "--phi", "x^2",
         "--a", "0", "--b", "1", "--seed", "13"],
        ["search", "--target", "check:log-convex", "--f-family", "positive_poly",
         "--a", "1", "--b", "2", "--budget", "10", "--seed", "13", *FAST],
    ])
    def test_reruns_identical_apart_from_timings(self, capsys, argv):
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert self._strip_timings(out1) == self._strip_timings(out2)

    def test_seed_env_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("HHV_SEED", "123")
        _, payload, _ = run_json(
            capsys, "check", "--class", "convex", "--f", "x^2",
            "--a", "-1", "--b", "1", *FAST)
        assert payload["seed"] == 123
        assert payload["config_echo"]["seed"] == 123


class TestConfigFile:
    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "f_text": "x^2", "a": -1.0, "b": 1.0, "seed": 5,
            "check_class": "convex", "samples": 32, "grid_x": 9, "grid_t": 5,
        }))
        code, payload, _ = run_json(
            capsys, "check", "--config", str(cfg), "--seed", "9")
        assert code == 0
        assert payload["seed"] == 9  # explicit flag wins
        assert payload["config_echo"]["f_text"] == "x^2"

    def test_missing_config_is_usage_error(self, capsys):
        code, payload, _ = run_json(
            capsys, "check", "--config", "/nonexistent.json",
            "--class", "convex", "--f", "x", "--a", "0", "--b", "1")
        assert code == 2

    @pytest.mark.parametrize("values", [
        {"tolerance": "abc"},
        {"tolerance": "nan"},
        {"output_format": "yaml"},
        {"samples": 2.5},
        {"samples": True},
        {"diagnostics": "false"},
        {"a": [0.0]},
        {"phi_family": "polynomial"},
        {"f_family": "polynomial"},
        {"check_class": "concave"},
    ])
    def test_bad_config_value_is_usage_error(self, capsys, tmp_path, values):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        # a class named only in the file is the file's to get right
        class_flag = [] if "check_class" in values else ["--class", "convex"]
        code, payload, _ = run_json(
            capsys, "check", "--config", str(cfg),
            *class_flag, "--f", "x^2", "--a", "-1", "--b", "1", *FAST)
        assert code == 2
        assert payload["error"]["type"] == "ConfigError"

    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tolerance": 5, "sampels": 3}))
        code, payload, _ = run_json(
            capsys, "check", "--config", str(cfg),
            "--class", "convex", "--f", "x^2", "--a", "-1", "--b", "1", *FAST)
        assert code == 2
        assert payload["error"]["type"] == "ConfigError"
        assert "'sampels'" in payload["error"]["message"]
        assert "'tolerance'" not in payload["error"]["message"]

    def test_config_values_take_field_types(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "tolerance": "1e-9", "samples": 32.0, "seed": "5", "b": 1,
            "output_format": "csv", "budget": None,
        }))
        code, out, _ = run_cli(
            capsys, "check", "--config", str(cfg),
            "--class", "convex", "--f", "x^2", "--a", "-1",
            "--grid-x", "9", "--grid-t", "5")
        assert code == 0
        header, row = csv.reader(io.StringIO(out))
        row = dict(zip(header, row))
        assert row["tolerance"] == "1e-09"
        assert row["seed"] == "5"


class TestDefaults:
    def test_phi_defaults_to_identity(self, capsys):
        code, payload, _ = run_json(
            capsys, "check", "--class", "log-phi-convex", "--f", "exp(x)",
            "--a", "0", "--b", "1", *FAST)
        assert code == 0
        assert payload["config_echo"]["phi_text"] is None

    def test_even_grid_t_rejected(self, capsys):
        code, payload, _ = run_json(
            capsys, "check", "--class", "convex", "--f", "x^2",
            "--a", "-1", "--b", "1", "--grid-t", "8")
        assert code == 2

    def test_check_default_tolerance_echoed(self, capsys):
        _, payload, _ = run_json(
            capsys, "check", "--class", "convex", "--f", "x^2",
            "--a", "-1", "--b", "1", *FAST)
        assert payload["tolerance"] == 1e-9


class TestFormats:
    def test_csv_for_check_is_single_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--class", "convex", "--f", "x^2",
            "--a", "-1", "--b", "1", "--format", "csv", *FAST)
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert "verdict" in lines[0]

    def test_csv_flattens_chain_terms(self, capsys):
        code, out, _ = run_cli(
            capsys, "chain", "--id", "dragomir_mond", "--f", "exp(x)",
            "--a", "0", "--b", "1", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "index,name,value,margin_to_next"
        assert len(lines) == 7  # header + six terms
        assert lines[1].split(",")[1] == "f_at_midpoint"

    def test_human_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--class", "convex", "--f", "sqrt(x)",
            "--a", "0", "--b", "1", "--format", "human", *FAST)
        assert "verdict: violated" in out
        assert "witness" in out

    def test_stderr_summary_always_present(self, capsys):
        _, _, err = run_cli(
            capsys, "check", "--class", "convex", "--f", "x^2",
            "--a", "-1", "--b", "1", *FAST)
        assert "hhv check" in err


class TestSearchCommand:
    def test_chain_target_with_witness_report(self, capsys):
        code, payload, _ = run_json(
            capsys, "search", "--target", "chain:classic_hh",
            "--f-family", "power", "--a", "0.5", "--b", "2",
            "--budget", "50", "--seed", "3", *FAST)
        assert code == 1
        assert payload["verdict"] == "violation_found"
        assert payload["witness"]["report"]["verdict"] == "link_violated"

    def test_clean_family_exits_zero(self, capsys):
        code, payload, _ = run_json(
            capsys, "search", "--target", "check:log-convex",
            "--f-family", "exp_of_poly", "--f-degree", "1",
            "--f-coeff-min", "-2", "--f-coeff-max", "2",
            "--a", "1", "--b", "2", "--budget", "50", "--seed", "42", *FAST)
        assert code == 0
        assert payload["verdict"] == "no_violation_found"
        assert payload["trials"] == 50

    def test_tol_reaches_chain_targets(self, capsys):
        # at the default 1e-8 this search reports a rounding-level violation
        code, payload, _ = run_json(
            capsys, "search", "--target", "chain:theorem1",
            "--f-family", "exp_of_poly", "--f-degree", "1",
            "--f-coeff-min", "-30", "--f-coeff-max", "30",
            "--a", "0", "--b", "1", "--budget", "5", "--tol", "1e6")
        assert code == 0
        assert payload["found"] is False


class TestReportCommand:
    def test_rerender_and_exit_code(self, capsys, tmp_path):
        _, out, _ = run_cli(
            capsys, "chain", "--id", "classic_hh", "--f", "sqrt(x)",
            "--a", "0", "--b", "1")
        saved = tmp_path / "report.json"
        saved.write_text(out)
        code, rendered, _ = run_cli(capsys, "report", "--input", str(saved),
                                    "--format", "csv")
        assert code == 1  # mirrors the saved link_violated verdict
        assert rendered.splitlines()[0] == "index,name,value,margin_to_next"

    def test_invalid_input_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        code, _, _ = run_cli(capsys, "report", "--input", str(bad))
        assert code == 2


class TestSubprocessEntry:
    def test_module_execution(self):
        # the child does not see pytest's sys.path, so point it at src/
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "hhv", "check", "--class", "convex",
             "--f", "x^2", "--a", "-1", "--b", "1", *FAST],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["verdict"] == "holds_on_samples"
