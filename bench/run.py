#!/usr/bin/env python3
"""hhv benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload certify|chains|search --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; ``hhv`` is imported from ``src/``.
With ``--trace 0`` it prints every end-to-end metric of BENCHMARK.json, with
``--trace 1`` every per-layer metric.  Human-readable lines come first; the
last line of stdout is the JSON result.  Workloads, metrics and the
reference are described in bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
from worker import Calibration, child_env  # noqa: E402

SETUP_PROBES = 9
CLI_PROBES = 7
WORKER_TIMEOUT_S = 170
PROBE_TIMEOUT_S = 60


def declared_units(section: str) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _worker(mode: str, args, extra=()) -> dict:
    cmd = [sys.executable, str(WORKER), "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=WORKER_TIMEOUT_S, check=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _spawn(cmd, stdout=subprocess.DEVNULL, stderr=None, ok=(0,)) -> tuple[float, bytes]:
    """Run one fresh process to its end: its wall seconds and standard
    output.  The wait blocks in waitpid: a wait with a timeout polls in
    steps of up to 50 ms, which would quantize the times."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=stdout, stderr=stderr)
    timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read() if proc.stdout else b""
        _, status = os.waitpid(proc.pid, 0)
    finally:
        timer.cancel()
        if proc.stdout:
            proc.stdout.close()
    wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code not in ok:
        raise subprocess.CalledProcessError(code, cmd)
    return wall, out


def setup_seconds(args, n: int) -> list[float]:
    """CPU seconds of ``n`` fresh set-up processes, one after another, each
    scaled like job times by a calibration at its end."""
    cmd = [sys.executable, str(WORKER), "--mode", "setup", "--workload", args.workload,
           "--seed", str(args.seed)]
    probes = [json.loads(_spawn(cmd, subprocess.PIPE)[1]) for _ in range(n)]
    return [p["cpu_s"] * Calibration.NOMINAL_S / p["cal_s"] for p in probes]


def cli_layer(seed: int) -> dict[str, float]:
    """The cli layer from outside, on every workload: whole ``python -m hhv``
    processes against the report's own ``timings.total_s``, and bare
    interpreter and ``import hhv`` processes.  Wall times, medians of
    ``CLI_PROBES`` processes each."""
    med = statistics.median
    interp = med(_spawn([sys.executable, "-c", "pass"])[0] for _ in range(CLI_PROBES))
    imp = med(_spawn([sys.executable, "-c", "import hhv"])[0] for _ in range(CLI_PROBES))
    # exit codes 1 and 3 are the CLI's violated verdict and numeric failures
    runs = [_spawn([sys.executable, "-m", "hhv", *argv], subprocess.PIPE,
                   subprocess.DEVNULL, (0, 1, 3))
            for argv in catalog.cli(seed)[:CLI_PROBES]]
    process = med(wall for wall, _ in runs)
    main = med(json.loads(out)["timings"]["total_s"] for _, out in runs)
    return {"cli.interpreter_ms": interp * 1e3, "cli.import_ms": (imp - interp) * 1e3,
            "cli.process_ms": process * 1e3, "cli.main_ms": main * 1e3,
            "cli.start_import_ms": (process - main) * 1e3}


def shares(tally: dict, jobs: int) -> tuple[float, float]:
    wrong = (tally["wrong"] + tally["known"]) / jobs
    error = tally["error"] / jobs
    return wrong, error


def report_cases(cases: list[dict]) -> None:
    """The first disagreements, one line each."""
    for c in cases[:12]:
        spec = c["spec"]
        what = spec.get("cls") or spec.get("chain") or spec.get("target") or spec["job"]
        f = spec.get("f") or f"{spec.get('family')} [{spec.get('lo')}, {spec.get('hi')}]"
        print(f"  {c['status']:5s} {spec['job']}:{what} f={f} on [{spec['a']}, {spec['b']}]")
    if len(cases) > 12:
        print("  ...")


def run_untraced(args) -> tuple[dict, dict, int, int, bool]:
    # probes before and after the timed process, so they sample two moments
    setups = setup_seconds(args, SETUP_PROBES // 2)
    res = _worker("run", args)
    setups += setup_seconds(args, SETUP_PROBES - SETUP_PROBES // 2)
    tally, attempted = res["tally"], res["attempted"]
    wrong_share, error_share = shares(tally, attempted)
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": res["jobs_per_s"],
        "job_p50_ms": res["job_p50_ms"],
        "job_p90_ms": res["job_p90_ms"],
        "trials_per_s": res["trials_per_s"],
        "agree_share": 1.0 - wrong_share,
        "clean_share": 1.0 - error_share,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 caller, "
          f"{res['passes']} timed passes: {res['jobs']} jobs, {res['cpu_s']:.2f} s of job "
          f"CPU time in {res['wall_s']:.2f} s; the CPU ran {res['mean_slowdown']:.2f}x "
          f"slower than undisturbed on average, up to {res['slowdown']:.2f}x its fastest")
    print(f"  samples: setup_s {SETUP_PROBES} processes; job latency {res['jobs']} jobs; "
          f"judged {attempted} jobs, the warm-up pass included")
    print(f"  wrong_share {wrong_share:.4f} ({tally['known']} known item-1 defects, "
          f"{tally['wrong']} other), error_share {error_share:.4f}")
    report_cases(res["cases"])
    correct = tally["wrong"] == 0 and tally["error"] == 0
    return metrics, declared_units("end_to_end"), attempted, tally["error"], correct


def run_traced(args) -> tuple[dict, dict, int, int, bool]:
    half = argparse.Namespace(**{**vars(args), "seconds": max(1.0, args.seconds / 2)})
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
    first = _worker("trace", half, ("--spans", str(spans)))
    second = _worker("trace", half)
    # the two processes run the same passes in the same order
    common = min(len(first["passes"]), len(second["passes"]))
    repeat_ok = first["passes"][:common] == second["passes"][:common]
    metrics = dict(first["metrics"])
    metrics.update(cli_layer(args.seed))
    units = declared_units("per_layer")
    tally = {k: first["tally"][k] + second["tally"][k] for k in first["tally"]}
    attempted = first["attempted"] + second["attempted"]
    print(f"workload {args.workload}  seed {args.seed}  traced: {attempted} jobs judged in "
          f"two processes; work counts and outputs identical over their {common} common "
          f"traced passes: {repeat_ok}")
    counts = first["passes"][0]["counts"]
    for k in sorted(counts):
        print(f"  {k} = {counts[k]}")
    print(f"  spans written to {spans.relative_to(ROOT)}")
    report_cases(first["cases"])
    correct = repeat_ok and tally["wrong"] == 0 and tally["error"] == 0
    return metrics, units, attempted, tally["error"], correct


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=catalog.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "hhv" / "__init__.py").is_file():
        print(f"no hhv sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        run = run_traced if args.trace else run_untraced
        metrics, units, attempted, failed, correct = run(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        print(f"benchmark worker failed: {err}", file=sys.stderr)
        return 3
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 4
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
