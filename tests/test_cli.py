import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hhv import cli
from hhv.chains import CHAIN_IDS, ChainReport
from hhv.cli import main
from hhv.convexity import ConvexityReport, SampleTriple
from hhv.errors import HHVError, OpenPanelLimitExceeded, ParseError
from hhv.search import FamilySpec

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

    def test_oversized_sample_plan_is_two(self, capsys):
        # 100000^2 * 17 triples would need terabytes
        code, payload, _ = run_json(
            capsys, "check", "--class", "convex", "--f", "x^2",
            "--a", "0", "--b", "1", "--grid-x", "100000")
        assert code == 2
        assert payload["error"]["type"] == "ValueError"
        assert "more than 4194304" in payload["error"]["message"]

    @pytest.mark.parametrize("flag", ["--tol", "--quad-tol"])
    def test_nan_tolerance_is_two(self, capsys, flag):
        # check takes no --quad-tol; chain takes both flags; an infinite
        # tolerance would let every margin hold
        for value in ("nan", "inf"):
            code, payload, _ = run_json(
                capsys, "chain", "--id", "classic_hh", "--f", "x^2",
                "--a", "-1", "--b", "1", flag, value)
            assert code == 2
            assert payload["error"]["type"] == "ConfigError"

    @pytest.mark.parametrize("argv, message", [
        (["check"], "--f is required"),
        (["check", "--f", "x"], "--a and --b are required"),
        (["check", "--f", "x", "--a", "2", "--b", "1"], "need a < b, got a=2.0, b=1.0"),
        (["chain", "--f", "x", "--a", "0", "--b", "1"], "--id must be one of"),
        (["chain", "--id", "theorem2", "--f", "x", "--a", "0", "--b", "1"],
         "--g is required"),
        (["search", "--budget", "0"], "--target is required"),
        (["search", "--target", "check:convex", "--a", "0"], "--f-family is required"),
        (["search", "--target", "check:convex", "--f-family", "power", "--budget", "0"],
         "--a and --b are required"),
        (["search", "--target", "check:convex", "--f-family", "power",
          "--a", "1", "--b", "1", "--budget", "0"], "need a < b"),
        (["search", "--target", "check:convex", "--f-family", "power",
          "--a", "0", "--b", "1", "--budget", "0"], "--budget must be >= 1"),
        (["report"], "--input is required"),
    ])
    def test_first_missing_input_is_reported(self, capsys, argv, message):
        code, payload, _ = run_json(capsys, *argv)
        assert code == 2
        assert payload["error"]["type"] == "ConfigError"
        assert payload["error"]["message"].startswith(message)

    @pytest.mark.parametrize("argv", [
        ["check", "--class", "convex", "--f", "x"],
        ["chain", "--id", "theorem1", "--f", "exp(x)"],
        ["chain", "--id", "dragomir_mond", "--f", "exp(x)"],
        ["search", "--target", "check:convex", "--f-family", "power", "--budget", "2"],
    ])
    def test_overflowing_interval_width_is_two(self, capsys, argv):
        # b - a overflows: rejected before linspace warns about it
        code, payload, err = run_json(capsys, *argv, "--a=-1e308", "--b", "1e308")
        assert code == 2
        assert payload["error"] == {
            "type": "ValueError",
            "message": "interval width b - a must be finite, got [-1e+308, 1e+308]"}
        assert err.startswith(f"hhv {argv[0]}: error: interval width")

    def test_ends_whose_sum_overflows(self, capsys):
        # the midpoint is finite; the integral of x, about 1e616, is not
        argv = ["chain", "--id", "classic_hh", "--a", "1e308", "--b", "1.7e308"]
        code, payload, _ = run_json(capsys, *argv, "--f", "1")
        assert (code, payload["verdict"]) == (0, "chain_holds")
        code, payload, _ = run_json(capsys, *argv, "--f", "x")
        assert code == 3
        assert payload["error"] == {
            "type": "ChainTermError",
            "message": "term 'integral_mean_f' failed: non-finite result"}

    def test_negative_seed_is_a_valid_key(self, capsys):
        # seed -1 is the key word 2**64 - 1, which numpy used to round
        code, payload, err = run_json(
            capsys, "check", "--class", "convex", "--f", "x", "--a", "0", "--b", "1",
            "--seed=-1", *FAST)
        assert code == 0
        assert payload["seed"] == -1
        assert err == "hhv check: holds_on_samples (min margin 0.0)\n"

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

    def test_positivity_message_prints_a_float(self, capsys):
        code, payload, _ = run_json(
            capsys, "check", "--class", "log-convex", "--f", "x - 0.5", "--a", "0", "--b", "1")
        assert code == 3
        assert payload["error"]["message"] == (
            "positivity hypothesis violated at x=0.0 (f(x) = -0.5 is not positive)")

    def test_tiny_domain_identity_phi_is_not_degenerate(self, capsys):
        code, payload, _ = run_json(
            capsys, "chain", "--id", "theorem1", "--f", "exp(x)", "--a", "0", "--b", "1e-13")
        assert code == 0
        assert payload["verdict"] == "chain_holds"

    def test_exit_matches_verdict_field(self, capsys):
        code, payload, _ = run_json(
            capsys, "chain", "--id", "classic_hh", "--f", "sqrt(x)",
            "--a", "0", "--b", "1")
        assert code == 1
        assert payload["verdict"] == "link_violated"


class TestDeepExpressions:
    """Text nested deeper than MAX_DEPTH is a usage error, as is a degree
    bound whose drawn trees would be; neither runs out of recursion."""

    DEEP = ["+".join(["x"] * 1200), "(" * 400 + "x" + ")" * 400]

    @pytest.mark.parametrize("f", DEEP)
    def test_deep_f_is_a_parse_error(self, capsys, f):
        code, payload, _ = run_json(capsys, "check", "--class", "convex", "--a", "0", "--b", "1",
                                    "--f", f)
        assert code == 2
        assert payload["error"]["type"] == "ParseError"
        assert "nests deeper than MAX_DEPTH = 100" in payload["error"]["message"]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_degree_beyond_the_bound_is_a_usage_error(self, capsys, seed):
        code, payload, _ = run_json(
            capsys, "search", "--target", "check:convex", "--f-family", "positive_poly",
            "--f-degree", "3000", "--a", "1", "--b", "2", "--budget", "3", "--seed", str(seed))
        assert code == 2
        assert payload["error"] == {
            "type": "ValueError",
            "message": "degree_bound must be <= 90, got 3000: its trees would nest deeper "
                       "than MAX_DEPTH = 100"}


class TestSubcommandFlags:
    UNIT = ["--f", "x^2", "--a", "0", "--b", "1"]

    @pytest.mark.parametrize("argv", [
        ["chain", "--id", "classic_hh", "--grid-t", "8"],
        ["chain", "--id", "classic_hh", "--grid-x", "9"],
        ["chain", "--id", "classic_hh", "--samples", "32"],
        ["check", "--class", "convex", "--g", "bad("],
        ["check", "--class", "convex", "--quad-tol", "1e-3"],
        ["check", "--class", "convex", "--diagnostics"],
        ["chain", "--id", "classic_hh", "--seed", "5"],
    ])
    def test_flag_a_subcommand_ignores_is_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, *self.UNIT)
        assert code == 2
        # argparse's usage error: unrecognized, or for --g on check an
        # ambiguous prefix of --grid-x and --grid-t
        assert out == "" and "error: " in err

    @pytest.mark.parametrize("flag", [["--diagnostics"], ["--f", "x"], ["--g", "x"],
                                      ["--phi", "x"]])
    def test_search_rejects_flags_it_ignores(self, capsys, flag):
        code, out, err = run_cli(
            capsys, "search", "--target", "chain:theorem1", "--f-family", "power",
            "--a", "0", "--b", "1", "--budget", "1", *flag)
        assert code == 2
        assert out == "" and "error: " in err

    def test_every_field_has_one_flag(self):
        flagged = [field for _, _, field, _, _ in cli._FLAGS]
        assert sorted(flagged) == sorted(set(cli._FIELD_TYPES) - {"command"} | {"config"})

    def test_undeclared_flags_resolve_to_defaults(self, capsys):
        code, payload, _ = run_json(capsys, "chain", "--id", "classic_hh", *self.UNIT)
        assert code == 0
        echo = payload["config_echo"]
        defaults = cli.RunConfig(command="chain")
        assert (echo["grid_x"], echo["grid_t"], echo["samples"]) \
            == (defaults.grid_x, defaults.grid_t, defaults.samples)
        _, payload, _ = run_json(capsys, "check", "--class", "convex", *self.UNIT, *FAST)
        assert payload["config_echo"]["quad_tol"] == defaults.quad_tol
        assert payload["config_echo"]["diagnostics"] is False


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
        unit = ["--a", "0", "--b", "1"]
        diag = ["--phi", "1 - x", "--diagnostics", *unit]
        for argv, code, keys in (
            (["check", "--class", "convex", "--f", "x^2", "--a", "-1", "--b", "1", *FAST],
             0, {"witness"}),
            (["chain", "--id", "classic_hh", "--f", "x^2", *unit], 0, {"terms"}),
            (["chain", "--id", "dragomir_mond", "--f", "exp(x)", *unit], 0, {"terms"}),
            (["chain", "--id", "theorem1", "--f", "exp(x^2)", *diag], 0, {"diagnostics"}),
            (["chain", "--id", "theorem2", "--f", "exp(x)", "--g", "exp(2*x)", *diag],
             0, {"diagnostics"}),
            (["search", "--target", "check:log-convex", "--f-family", "positive_poly",
              "--a", "1", "--b", "2", "--budget", "5", *FAST], 1, {"witness"}),
            (["check", "--class", "convex", "--f", "x", "--a", "2", "--b", "1"], 2, {"error"}),
            (["chain", "--id", "theorem1", "--f", "ln(x)", *unit], 3, {"error"}),
        ):
            got, payload, _ = run_json(capsys, *argv)
            assert got == code and keys <= payload.keys()
            if "diagnostics" in keys:
                assert payload["notes"]
            if argv[0] == "search":
                assert payload["found"] and payload["witness"] is not None
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
         "--a", "0", "--b", "1"],
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
        {"tolerance": "inf"},
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

    def test_config_that_is_not_utf8_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(b'\xff{"seed": 5}')
        code, payload, _ = run_json(
            capsys, "check", "--config", str(cfg),
            "--class", "convex", "--f", "x", "--a", "0", "--b", "1")
        assert code == 2
        assert payload["error"]["type"] == "ConfigError"
        assert payload["error"]["message"].startswith(
            f"cannot read config file {cfg}: 'utf-8' codec can't decode byte 0xff")

    def test_deeply_nested_config_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("[" * 200_000)
        code, payload, _ = run_json(
            capsys, "check", "--config", str(cfg),
            "--class", "convex", "--f", "x", "--a", "0", "--b", "1")
        assert code == 2
        assert payload["error"]["type"] == "ConfigError"
        assert payload["error"]["message"].startswith(
            f"cannot read config file {cfg}: maximum recursion depth exceeded")

    def test_config_must_be_an_object(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]")
        code, payload, _ = run_json(
            capsys, "check", "--config", str(cfg),
            "--class", "convex", "--f", "x^2", "--a", "-1", "--b", "1", *FAST)
        assert code == 2
        assert payload["error"]["message"] == "config file must hold a JSON object"

    def test_config_sets_diagnostics(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"diagnostics": True}))
        code, payload, _ = run_json(
            capsys, "chain", "--config", str(cfg),
            "--id", "theorem1", "--f", "exp(x)", "--a", "0", "--b", "1")
        assert code == 0
        assert "mean_arithmetic_reflected" in payload["diagnostics"]

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

    @pytest.mark.parametrize("fmt", ["json", "csv", "human"])
    def test_error_report_is_json_in_every_format(self, capsys, fmt):
        code, out, err = run_cli(
            capsys, "check", "--class", "convex", "--f", "x", "--a", "2", "--b", "1",
            "--format", fmt)
        assert code == 2
        payload = json.loads(out)
        assert payload["verdict"] == "error" and "config_echo" not in payload
        assert err == f"hhv check: error: {payload['error']['message']}\n"
        assert err == "hhv check: error: need a < b, got a=2.0, b=1.0\n"

    def test_stderr_summary_always_present(self, capsys):
        _, _, err = run_cli(
            capsys, "check", "--class", "convex", "--f", "x^2",
            "--a", "-1", "--b", "1", *FAST)
        assert "hhv check" in err


def _ref_report_payload(report):
    """The payload as it was built before it was taken from the report
    fields: every field copied by hand."""
    if isinstance(report, ChainReport):
        payload = {
            "verdict": report.verdict,
            "chain_id": report.chain_id,
            "terms": [{"name": n, "value": v} for n, v in report.terms],
            "margins": list(report.pair_margins),
            "violated_links": list(report.violated_links),
            "tolerance": report.tolerance,
            "quad_tol": report.quad_tol,
            "notes": list(report.notes),
        }
        if report.diagnostics is not None:
            payload["diagnostics"] = report.diagnostics
        return payload
    return {
        "verdict": report.verdict,
        "class": report.class_checked,
        "min_margin": report.min_margin,
        "samples_tested": report.samples_tested,
        "tolerance": report.tolerance,
        "witness": None if report.witness is None else asdict(report.witness),
        "failure_kind": report.failure_kind,
    }


_values = st.floats()
_texts = st.text(max_size=12)
_convexity_reports = st.builds(
    ConvexityReport, st.sampled_from(sorted(cli._CHECKS)),
    st.sampled_from(["holds_on_samples", "violated"]), st.integers(0, 10**6), _values,
    st.none() | st.builds(SampleTriple, _values, _values, _values), _values,
    st.sampled_from([None, "inequality", "domain"]), st.none() | _texts)
_chain_reports = st.builds(
    ChainReport, st.sampled_from(CHAIN_IDS),
    st.lists(st.tuples(_texts, _values), min_size=1, max_size=6).map(tuple),
    st.lists(_values, max_size=5).map(tuple),
    st.sampled_from(["chain_holds", "link_violated"]),
    st.lists(st.integers(0, 5), max_size=5).map(tuple), _values, _values,
    st.none() | st.dictionaries(_texts, _values, max_size=3),
    st.lists(_texts, max_size=3).map(tuple))


class TestReportPayload:
    @given(st.one_of(_convexity_reports, _chain_reports))
    @settings(max_examples=300, deadline=None)
    def test_matches_hand_listed_payload(self, report):
        got, want = cli._report_payload(report), _ref_report_payload(report)
        assert (json.dumps(got, sort_keys=True, indent=2)
                == json.dumps(want, sort_keys=True, indent=2))
        assert cli._to_csv(got) == cli._to_csv(want)
        assert cli._to_human(got) == cli._to_human(want)


class TestSearchCommand:
    def test_poly_phi_family_draws_phi(self, capsys):
        argv = ["search", "--target", "check:log-phi-convex", "--f-family", "positive_poly",
                "--a", "1", "--b", "2", "--budget", "5", "--seed", "1", *FAST]
        _, identity, _ = run_json(capsys, *argv)
        code, poly, _ = run_json(capsys, *argv, "--phi-family", "poly")
        assert code == 1
        assert identity["witness"]["phi"] is None
        assert poly["witness"]["phi"].startswith("1.0 + 1.0*(")

    @pytest.mark.parametrize("degree", ["-3", "0"])
    def test_poly_phi_degree_below_one_is_two(self, capsys, degree):
        code, payload, _ = run_json(
            capsys, "search", "--target", "check:log-phi-convex", "--f-family", "positive_poly",
            "--phi-family", "poly", "--phi-degree", degree, "--a", "0.5", "--b", "2",
            "--budget", "20", "--seed", "3")
        assert code == 2
        assert payload["error"] == {"type": "ConfigError",
                                    "message": f"--phi-degree must be >= 1, got {degree}"}

    def test_phi_degree_reaches_the_phi_family(self, capsys, monkeypatch):
        specs = []
        search = cli.find_counterexample

        def recording(target, f_spec, phi_spec, *args, **kwargs):
            specs.append(phi_spec)
            return search(target, f_spec, phi_spec, *args, **kwargs)

        monkeypatch.setattr(cli, "find_counterexample", recording)
        argv = ["search", "--target", "check:log-phi-convex", "--f-family", "positive_poly",
                "--a", "1", "--b", "2", "--budget", "2", "--seed", "1", *FAST]
        run_json(capsys, *argv, "--phi-family", "poly", "--phi-degree", "3")
        run_json(capsys, *argv, "--phi-family", "poly", "--phi-degree", "1",
                 "--f-coeff-max", "0.05")
        # the degree is read only for a poly phi
        code, _, _ = run_json(capsys, *argv, "--phi-degree", "-3")
        assert code in (0, 1)
        assert specs == [FamilySpec("positive_poly", 3, (0.1, 2.0)),
                         FamilySpec("positive_poly", 1, (0.1, 0.2)), None]

    def test_human_format_of_a_witness(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--target", "check:log-convex", "--f-family", "positive_poly",
            "--a", "1", "--b", "2", "--budget", "5", "--seed", "1", "--format", "human",
            *FAST)
        assert code == 1
        assert "found: True after 1 trials\n" in out
        assert ("witness f: 0.4380460605423866*x^2 + 1.9070819188647323*x"
                " + 0.8047675820038185\n") in out

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

    THEOREM1 = ["chain", "--id", "theorem1", "--b", "1"]

    @pytest.mark.parametrize("fmt", ["json", "csv", "human"])
    @pytest.mark.parametrize("argv, code, error_type", [
        pytest.param(THEOREM1 + ["--f", "ln(x)", "--a", "0"], 3, "PositivityViolated",
                     id="ln(x)-0-3-PositivityViolated"),
        pytest.param(THEOREM1 + ["--f", "ln(", "--a", "0"], 2, "ParseError",
                     id="ln(-0-2-ParseError"),
        pytest.param(THEOREM1 + ["--f", "lg(x)", "--a", "0"], 2, "UnknownIdentifierError",
                     id="lg(x)-0-2-UnknownIdentifierError"),
        pytest.param(THEOREM1 + ["--f", "x", "--a", "2"], 2, "ConfigError",
                     id="x-2-2-ConfigError"),
        pytest.param(THEOREM1 + ["--f", "exp(x)", "--phi", "0.5", "--a", "0"], 3,
                     "DegeneratePhi", id="DegeneratePhi"),
        # no chain lets this error escape unwrapped; the target raises it
        pytest.param(THEOREM1 + ["--f", "exp(x)", "--a", "0"], 3, "OpenPanelLimitExceeded",
                     id="OpenPanelLimitExceeded"),
        pytest.param(["check", "--class", "convex", "--f", "x^2", "--a", "0", "--b", "1",
                      "--grid-x", "100000"], 2, "ValueError", id="oversized-plan"),
        pytest.param(["check", "--class", "convex", "--f", "x^2", "--a", "0", "--b", "1",
                      "--seed", "7", *FAST], 0, None, id="check-holds"),
        pytest.param(["check", "--class", "convex", "--f", "sqrt(x)", "--a", "0", "--b", "1",
                      *FAST], 1, None, id="check-violated"),
        pytest.param(["chain", "--id", "classic_hh", "--f", "x^2", "--a", "0", "--b", "1"],
                     0, None, id="chain-holds"),
        pytest.param(["chain", "--id", "classic_hh", "--f", "sqrt(x)", "--a", "0", "--b", "1"],
                     1, None, id="chain-violated"),
        pytest.param(["search", "--target", "check:log-convex", "--f-family", "exp_of_poly",
                      "--f-degree", "1", "--f-coeff-min", "-2", "--f-coeff-max", "2",
                      "--a", "1", "--b", "2", "--budget", "5", "--seed", "42", *FAST],
                     0, None, id="search-clean"),
        pytest.param(["search", "--target", "chain:classic_hh", "--f-family", "power",
                      "--a", "0.5", "--b", "2", "--budget", "50", "--seed", "3", *FAST],
                     1, None, id="search-found"),
    ])
    def test_error_report_keeps_its_exit_code(self, capsys, tmp_path, monkeypatch, argv,
                                              code, error_type, fmt):
        if error_type == "OpenPanelLimitExceeded":
            def run_target(*args, **kwargs):
                raise OpenPanelLimitExceeded(0.25, 0.5, 20, 2**16)
            monkeypatch.setattr(cli, "run_target", run_target)
        saved_code, out, _ = run_cli(capsys, *argv)
        saved = json.loads(out)
        assert saved_code == code
        assert saved.get("error", {}).get("type") == error_type
        path = tmp_path / "report.json"
        path.write_text(out)
        got, rendered, err = run_cli(capsys, "report", "--input", str(path),
                                     "--format", fmt)
        assert got == saved_code
        if error_type is not None:
            assert err == "hhv report: error\n"
        else:
            assert err.startswith(f"hhv report: {saved['verdict']}")
        if fmt == "json":
            rendered = json.loads(rendered)
            # every saved field comes out as saved; a success report is whole
            assert {k: rendered[k] for k in saved} == saved
            if error_type is None:
                assert rendered == saved
        elif error_type is not None:
            assert "error" in rendered

    def test_usage_error_names_hold_no_numeric_error(self):
        # live errors are mapped to their exit code by name as saved ones are,
        # so no numeric error may carry the name of a usage error
        numeric, todo = set(), [HHVError]
        while todo:
            cls = todo.pop()
            if not issubclass(cls, ParseError):
                numeric.add(cls.__name__)
                todo += cls.__subclasses__()
        assert {"HHVError", "OpenPanelLimitExceeded", "ChainTermError"} <= numeric
        assert {"ParseError", "UnknownIdentifierError", "ValueError",
                "ConfigError"} <= cli._usage_error_names()
        assert not numeric & cli._usage_error_names()

    @pytest.mark.parametrize("error", [
        None, [], {"type": ["ValueError"]}, {"message": "no type"}, {"type": "NoSuchError"},
    ])
    def test_malformed_error_report_is_three(self, capsys, tmp_path, error):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"verdict": "error", "error": error}))
        code, _, _ = run_cli(capsys, "report", "--input", str(path))
        assert code == 3

    def test_report_that_is_not_utf8_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        path.write_bytes(b'\xff{"verdict": "chain_holds"}')
        code, payload, _ = run_json(capsys, "report", "--input", str(path))
        assert code == 2
        assert payload["error"]["type"] == "ConfigError"
        assert payload["error"]["message"].startswith(
            "cannot read report: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
    def test_deeply_nested_report_is_usage_error(self, capsys, tmp_path, monkeypatch,
                                                 from_stdin):
        deep = "[" * 200_000
        path = tmp_path / "report.json"
        path.write_text(deep)
        if from_stdin:
            monkeypatch.setattr(sys, "stdin", io.StringIO(deep))
        code, payload, _ = run_json(capsys, "report", "--input",
                                    "-" if from_stdin else str(path))
        assert code == 2
        assert payload["error"]["type"] == "ConfigError"
        assert payload["error"]["message"].startswith(
            "cannot read report: maximum recursion depth exceeded")

    def test_invalid_input_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        code, _, _ = run_cli(capsys, "report", "--input", str(bad))
        assert code == 2

    def test_missing_input_is_usage_error(self, capsys, tmp_path):
        code, payload, _ = run_json(capsys, "report", "--input", str(tmp_path / "none.json"))
        assert code == 2
        assert payload["error"]["message"].startswith("cannot read report: ")

    def test_input_from_stdin(self, capsys, monkeypatch):
        _, out, _ = run_cli(
            capsys, "chain", "--id", "classic_hh", "--f", "sqrt(x)", "--a", "0", "--b", "1")
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, rendered, _ = run_cli(capsys, "report", "--input", "-", "--format", "csv")
        assert code == 1
        assert rendered.splitlines()[0] == "index,name,value,margin_to_next"


class TestSubprocessEntry:
    @staticmethod
    def run_module(*argv):
        # the child does not see pytest's sys.path, so point it at src/
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              timeout=120, env=env)

    def test_module_execution(self):
        proc = self.run_module("-m", "hhv", "check", "--class", "convex",
                               "--f", "x^2", "--a", "-1", "--b", "1", *FAST)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["verdict"] == "holds_on_samples"

    @pytest.mark.parametrize("f", TestDeepExpressions.DEEP)
    def test_deep_expression_exits_two_without_traceback(self, f):
        proc = self.run_module("-m", "hhv", "check", "--class", "convex", "--a", "0", "--b", "1",
                               "--f", f)
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["type"] == "ParseError"
        assert "Traceback" not in proc.stderr

    def test_overflowing_panel_sum_exits_three_without_warning(self):
        # f itself stays finite; its integral over [0, 10], 1e309, overflows
        proc = self.run_module("-W", "error", "-m", "hhv", "chain", "--id", "classic_hh",
                               "--f", "1e308 + 0*x", "--a", "0", "--b", "10")
        assert proc.returncode == 3
        assert json.loads(proc.stdout)["error"] == {
            "type": "ChainTermError",
            "message": "term 'integral_mean_f' failed: non-finite result"}
        assert "Traceback" not in proc.stderr

    def test_endpoint_product_underflow_exits_three(self):
        # f*g underflows to 0 at b: a term failure, not a usage error
        proc = self.run_module("-W", "error", "-m", "hhv", "chain", "--id", "theorem2",
                               "--f", "exp(-1)", "--g", "exp(-745*x)", "--a", "0", "--b", "1")
        assert proc.returncode == 3
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == "ChainTermError"
        assert error["message"].startswith("term 'log_mean_product_endpoints' failed")
        assert "Traceback" not in proc.stderr
