"""Command-line surface: certifiers, chain evaluators, and search.

JSON reports go to stdout (keys sorted, deterministic apart from the
``timings`` field); a one-line human summary goes to stderr.  Exit codes:
0 the property or chain holds, 1 a violation was found, 2 usage or config
error, 3 numeric failure (domain error, positivity, non-convergence).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields

from . import __version__
from .chains import CHAIN_IDS, ChainReport, VERDICT_CHAIN_HOLDS
from .convexity import ConvexityReport, PhiMap, SamplePlan, VERDICT_HOLDS
from .errors import HHVError, ParseError
from .expr import Interval, parse
from .quadrature import DEFAULT_TOL
from .search import (
    _CHECKS, FAMILIES, FamilySpec, SearchTarget, find_counterexample, run_target,
)

EXIT_HOLDS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_HOLD_VERDICTS = (VERDICT_HOLDS, VERDICT_CHAIN_HOLDS, "no_violation_found")
# errors that exit EXIT_USAGE, subclasses included; any other error exits
# EXIT_NUMERIC.  A ConfigError is a ValueError.
_USAGE_ERRORS = (ParseError, ValueError)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    f_text: str | None = None
    g_text: str | None = None
    phi_text: str | None = None
    a: float | None = None
    b: float | None = None
    check_class: str | None = None
    chain_id: str | None = None
    target: str | None = None
    f_family: str | None = None
    f_degree: int = 2
    f_coeff_min: float = 0.0
    f_coeff_max: float = 2.0
    phi_family: str = "identity"
    phi_degree: int = 2
    grid_x: int = SamplePlan.x_points
    grid_t: int = SamplePlan.t_points
    samples: int = SamplePlan.random_count
    seed: int = 0
    quad_tol: float = DEFAULT_TOL
    tolerance: float | None = None
    budget: int = 100
    output_format: str = "json"
    diagnostics: bool = False
    input_path: str | None = None


# base type of each field, read from its annotation: "float | None" -> "float"
_FIELD_TYPES = {fld.name: fld.type.split(" | ")[0] for fld in fields(RunConfig)}


# ----------------------------- argument handling ------------------------------

_SUBCOMMANDS = {
    "check": "certify a convexity class on samples",
    "chain": "evaluate an inequality chain term by term",
    "search": "seeded counterexample search",
    "report": "re-render a saved JSON report",
}
_RUN = ("check", "chain", "search")
# every flag, once, in the order of --help: (the subcommands that read it, so
# that argparse rejects it on the others; the flag; its RunConfig field, whose
# annotation gives its type; its help; its choices).  Class names are
# hyphenated on the command line and mapped back by _resolve_config.
_FLAGS = (
    (("check",), "--class", "check_class", "convexity class to certify",
     sorted(name.replace("_", "-") for name in _CHECKS)),
    (("chain",), "--id", "chain_id", f"chain id: {', '.join(CHAIN_IDS)}", None),
    (("search",), "--target", "target", "check:<class> or chain:<id>", None),
    (("search",), "--f-family", "f_family", None, FAMILIES),
    (("search",), "--f-degree", "f_degree", None, None),
    (("search",), "--f-coeff-min", "f_coeff_min", None, None),
    (("search",), "--f-coeff-max", "f_coeff_max", None, None),
    (("search",), "--phi-family", "phi_family", None, ("identity", "poly")),
    (("search",), "--phi-degree", "phi_degree", None, None),
    (("search",), "--budget", "budget", "number of trials", None),
    (("report",), "--input", "input_path", "report path, or '-' for stdin", None),
    (("check", "chain"), "--f", "f_text", "expression for f(x)", None),
    (("chain",), "--g", "g_text", "expression for g(x)", None),
    (("check", "chain"), "--phi", "phi_text", "deformation map (default: identity 'x')", None),
    (_RUN, "--a", "a", "left endpoint", None),
    (_RUN, "--b", "b", "right endpoint", None),
    (("check", "search"), "--seed", "seed", "seed (default: $HHV_SEED or 0)", None),
    (("chain", "search"), "--quad-tol", "quad_tol", "quadrature tolerance (default 1e-10)",
     None),
    (_RUN, "--tol", "tolerance", "margin tolerance (default 1e-9 checks, 1e-8 chains)", None),
    (("check", "search"), "--grid-x", "grid_x", "x lattice size", None),
    (("check", "search"), "--grid-t", "grid_t", "t lattice size (odd)", None),
    (("check", "search"), "--samples", "samples", "random triples per check", None),
    (_RUN + ("report",), "--format", "output_format", "stdout format", ("json", "csv", "human")),
    (("chain",), "--diagnostics", "diagnostics", "include proof-intermediate diagnostic terms",
     None),
    # the one flag without a field: _resolve_config reads the file it names
    (_RUN, "--config", "config", "JSON config file merged under explicit flags", None),
)
_CHOICES = {field: choices for _, _, field, _, choices in _FLAGS if choices}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hhv",
        description="Numerical certifiers for generalized convexity classes and "
                    "Hermite-Hadamard-type inequality chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {name: sub.add_parser(name, help=text) for name, text in _SUBCOMMANDS.items()}
    for commands, flag, field, help_text, choices in _FLAGS:
        kind = _FIELD_TYPES.get(field)
        # a bool flag defaults to None, so that a config file can still set it
        options = (dict(action="store_true", default=None) if kind == "bool" else
                   dict(type={"int": int, "float": float}.get(kind), choices=choices))
        for command in commands:
            subparsers[command].add_argument(flag, dest=field, help=help_text, **options)
    return parser


def _file_value(field: str, value):
    """Convert a config-file value to the type of its :class:`RunConfig` field.

    Numbers may be given as JSON numbers or numeric strings; booleans are not
    numbers here.  A field whose flag has choices takes only those; a class
    may also be named with underscores, as the chain ids may.
    """
    kind = _FIELD_TYPES[field]
    if kind == "str":
        if isinstance(value, str):
            choices = _CHOICES.get(field)
            name = value.replace("_", "-") if field == "check_class" else value
            if choices is None or name in choices:
                return value
            raise ConfigError(f"config value for {field!r} must be one of "
                              f"{', '.join(choices)}, got {value!r}")
    elif kind == "bool":
        if isinstance(value, bool):
            return value
    elif not isinstance(value, bool):
        try:
            if kind == "float":
                return float(value)
            if not isinstance(value, float):
                return int(value)
            if value.is_integer():
                return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"config value for {field!r} must be of type {kind}, got {value!r}")


def _read_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    if not isinstance(file_cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = [k for k in file_cfg if k not in _FIELD_TYPES]
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
    # null leaves a field at its default, as an absent key does
    return {k: _file_value(k, v) for k, v in file_cfg.items() if v is not None}


def _resolve_config(ns: argparse.Namespace) -> RunConfig:
    """Merge precedence: explicit flag > config file > built-in default.

    ``seed`` falls back to ``$HHV_SEED`` before its default.  A field whose
    flag the subcommand does not declare counts as an unset flag.
    """
    cfg_path = getattr(ns, "config", None)
    file_cfg = _read_config(cfg_path) if cfg_path else {}
    values = {}
    for fld in fields(RunConfig):
        value = getattr(ns, fld.name, None)
        if value is None:
            value = file_cfg.get(fld.name)
        if value is None and fld.name == "seed":
            value = int(os.environ.get("HHV_SEED", "0"))
        if value is None:
            value = fld.default
        if fld.name in ("check_class", "chain_id") and isinstance(value, str):
            value = value.replace("-", "_")
        values[fld.name] = value
    cfg = RunConfig(**values)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.command in ("check", "chain") and cfg.f_text is None:
        raise ConfigError("--f is required")
    if cfg.command == "search":
        if cfg.target is None:
            raise ConfigError("--target is required (check:<class> or chain:<id>)")
        if cfg.f_family is None:
            raise ConfigError("--f-family is required")
    if cfg.command != "report":
        if cfg.a is None or cfg.b is None:
            raise ConfigError("--a and --b are required")
        if not cfg.a < cfg.b:
            raise ConfigError(f"need a < b, got a={cfg.a}, b={cfg.b}")
    if cfg.command == "check" and cfg.check_class is None:
        raise ConfigError("--class is required")
    if cfg.command == "chain":
        if cfg.chain_id not in CHAIN_IDS:
            raise ConfigError(f"--id must be one of {', '.join(CHAIN_IDS)}")
        if SearchTarget("chain", cfg.chain_id).takes_g and cfg.g_text is None:
            raise ConfigError("--g is required for the theorem2 chain")
    if cfg.command == "search" and cfg.budget < 1:
        raise ConfigError(f"--budget must be >= 1, got {cfg.budget}")
    if cfg.command == "report" and cfg.input_path is None:
        raise ConfigError("--input is required")
    # "not > 0" also rejects NaN
    if not cfg.quad_tol > 0:
        raise ConfigError("--quad-tol must be positive")
    if cfg.tolerance is not None and not cfg.tolerance > 0:
        raise ConfigError("--tol must be positive")


# ----------------------------- command execution ------------------------------

def _sampler(cfg: RunConfig) -> SamplePlan:
    return SamplePlan(x_points=cfg.grid_x, t_points=cfg.grid_t,
                      random_count=cfg.samples, seed=cfg.seed)


_RENAMED = {"class_checked": "class", "pair_margins": "margins"}


def _report_payload(report: ConvexityReport | ChainReport) -> dict:
    """The report's fields, renamed as the schema names them, with a chain's
    terms as ``{name, value}`` objects; the failure detail and absent
    diagnostics are left out."""
    payload = {_RENAMED.get(k, k): v for k, v in asdict(report).items()
               if k != "failure_detail" and not (k == "diagnostics" and v is None)}
    if "terms" in payload:
        payload["terms"] = [{"name": n, "value": v} for n, v in report.terms]
    return payload


def _run_target(cfg: RunConfig) -> tuple[dict, int]:
    """``check`` and ``chain``: parse f, and phi and g where the target takes
    them, and run the target once."""
    name = cfg.check_class if cfg.command == "check" else cfg.chain_id
    target = SearchTarget(cfg.command, name)
    f = parse(cfg.f_text)
    interval = Interval(cfg.a, cfg.b)
    # the sample plan's sizes are checked only where a plan is used
    sampler = _sampler(cfg) if cfg.command == "check" else SamplePlan()
    phi = PhiMap(parse(cfg.phi_text or "x"), interval) if target.takes_phi else None
    g = parse(cfg.g_text) if target.takes_g else None
    report, violated = run_target(target, f, g, phi, interval, sampler,
                                  tolerance=cfg.tolerance, quad_tol=cfg.quad_tol,
                                  diagnostics=cfg.diagnostics)
    return _report_payload(report), EXIT_VIOLATION if violated else EXIT_HOLDS


def _run_search(cfg: RunConfig) -> tuple[dict, int]:
    kind, _, name = cfg.target.partition(":")
    name = name.replace("-", "_")
    target = SearchTarget(kind, name)
    domain = Interval(cfg.a, cfg.b)
    f_spec = FamilySpec(cfg.f_family, cfg.f_degree,
                        (cfg.f_coeff_min, cfg.f_coeff_max))
    phi_spec = None
    if cfg.phi_family == "poly":
        phi_spec = FamilySpec("positive_poly", max(1, cfg.phi_degree),
                              (0.1, max(0.2, cfg.f_coeff_max)))
    outcome = find_counterexample(
        target, f_spec, phi_spec, domain, cfg.budget, cfg.seed,
        sampler=_sampler(cfg), tolerance=cfg.tolerance, quad_tol=cfg.quad_tol,
    )
    payload: dict = {
        "verdict": "violation_found" if outcome.found else "no_violation_found",
        "found": outcome.found,
        "trials": outcome.trials,
        "budget": cfg.budget,
        "skipped": outcome.skipped,
        "witness": None,
    }
    if outcome.witness is not None:
        w = outcome.witness
        payload["witness"] = {
            "f": w.f_text, "phi": w.phi_text, "g": w.g_text,
            "trial": w.trial, "report": _report_payload(w.report),
        }
    return payload, EXIT_VIOLATION if outcome.found else EXIT_HOLDS


def _run_report(cfg: RunConfig) -> tuple[dict, int]:
    try:
        if cfg.input_path == "-":
            saved = json.load(sys.stdin)
        else:
            with open(cfg.input_path, encoding="utf-8") as fh:
                saved = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read report: {err}") from err
    if not isinstance(saved, dict) or "verdict" not in saved:
        raise ConfigError("input is not a report produced by this tool")
    if saved["verdict"] == "error":  # the code main gave when it saved the report
        error = saved.get("error")
        name = error.get("type") if isinstance(error, dict) else None
        return saved, EXIT_USAGE if name in _usage_error_names() else EXIT_NUMERIC
    return saved, EXIT_HOLDS if saved["verdict"] in _HOLD_VERDICTS else EXIT_VIOLATION


def _usage_error_names() -> set[str]:
    """The names of ``_USAGE_ERRORS`` and of every subclass of them."""
    names, todo = set(), list(_USAGE_ERRORS)
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo += cls.__subclasses__()
    return names


# ----------------------------- output ----------------------------------------

def _to_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if "terms" in payload and payload["terms"]:
        writer.writerow(["index", "name", "value", "margin_to_next"])
        margins = payload.get("margins", [])
        for i, term in enumerate(payload["terms"]):
            margin = margins[i] if i < len(margins) else ""
            writer.writerow([i, term["name"], repr(term["value"]),
                             repr(margin) if margin != "" else ""])
    else:
        keys = [k for k in sorted(payload) if not isinstance(payload[k], (dict, list))]
        writer.writerow(keys)
        writer.writerow([payload[k] for k in keys])
    return buf.getvalue()


def _to_human(payload: dict) -> str:
    lines = [f"verdict: {payload.get('verdict')}"]
    if "class" in payload:
        lines.append(f"class: {payload['class']}")
        lines.append(f"min margin: {payload.get('min_margin')!r} "
                     f"over {payload.get('samples_tested')} samples")
        if payload.get("witness"):
            w = payload["witness"]
            lines.append(f"witness: x={w['x']!r} y={w['y']!r} t={w['t']!r}")
    for term in payload.get("terms", []):
        lines.append(f"  {term['name']:32s} {term['value']!r}")
    if payload.get("margins"):
        lines.append(f"margins: {[repr(m) for m in payload['margins']]}")
    if "found" in payload:
        lines.append(f"found: {payload['found']} after {payload.get('trials')} trials")
        if payload.get("witness"):
            lines.append(f"witness f: {payload['witness'].get('f')}")
    for note in payload.get("notes", []):
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def _emit(payload: dict, command: str, started: float, cfg: RunConfig | None) -> None:
    """Write ``payload`` in its envelope to stdout and a summary to stderr.

    An error report has no ``cfg``: it is JSON whatever ``--format`` says,
    and carries no ``config_echo`` or ``seed``.
    """
    payload = dict(payload, tool_version=__version__, command=command,
                   timings={"total_s": round(time.perf_counter() - started, 6)})
    if cfg is not None:
        payload.update(config_echo=asdict(cfg), seed=cfg.seed)
    output_format = "json" if cfg is None else cfg.output_format
    if output_format == "csv":
        sys.stdout.write(_to_csv(payload))
    elif output_format == "human":
        sys.stdout.write(_to_human(payload))
    else:
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    summary = f"hhv {command}: {payload['verdict']}"
    if cfg is None:
        summary += f": {payload['error']['message']}"
    if "min_margin" in payload:
        summary += f" (min margin {payload['min_margin']!r})"
    print(summary, file=sys.stderr)


# ----------------------------- entry point ------------------------------------

_RUNNERS = {
    "check": _run_target,
    "chain": _run_target,
    "search": _run_search,
    "report": _run_report,
}


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage to stderr
        return int(exc.code or 0)
    try:
        cfg = _resolve_config(ns)
        payload, code = _RUNNERS[ns.command](cfg)
    except (ValueError, HHVError) as err:
        payload = {"verdict": "error", "error": {"type": type(err).__name__,
                                                 "message": str(err)}}
        cfg = None
        code = EXIT_USAGE if isinstance(err, _USAGE_ERRORS) else EXIT_NUMERIC
    _emit(payload, ns.command, started, cfg)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
