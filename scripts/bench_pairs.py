#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs of runs.

    python3 scripts/bench_pairs.py --parent REF --seeds 1201 1202 \
        --workloads certify chains --seconds 20 --out BENCH_12.json \
        [--trace-seed 921] [--change "what the change does"] [--workdir DIR]

The parent side is the committed tree of REF, exported with ``git archive``
into a fresh directory, so the run leaves nothing in the repository's git
metadata.  The change side is this checkout as it is on disk.  For every
workload and seed, ``bench/run.py --trace 0`` runs once on each side; the
side that runs first alternates from pair to pair.  ``runs`` holds every
result line, in the shape of BENCH_10.json.  ``summary`` gives, for each
workload and end-to-end metric of BENCHMARK.json, the parent's median and
quartiles, the change's median and the pairs in which the change is ahead.
Each run's record also holds ``cpu_us_per_job``, the job CPU time per job
that ``bench/run.py`` prints, unscaled by its calibration, and ``summary``
compares it as ``<workload>.cpu_us_per_job`` (lower is better).
With ``--trace-seed N``, one traced run per workload and side adds its
result line under ``traced_seed_N``.

Exits 1 when a run is not ``correct`` or failed a job, after writing the file.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# bench/run.py's timed summary: "... N jobs, C s of job CPU time in ..."
CPU_LINE = re.compile(r"(\d+) jobs, (\d+(?:\.\d+)?) s of job CPU time")


def export(ref: str, dest: Path) -> Path:
    """The committed tree of ``ref``, extracted under ``dest``."""
    tree = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                          stdout=subprocess.PIPE, check=True).stdout
    target = dest / "parent"
    with tarfile.open(fileobj=io.BytesIO(tree)) as tar:
        tar.extractall(target, filter="data")
    return target


def bench(root: Path, workload: str, seed: int, seconds: float,
          trace: int) -> tuple[dict, str]:
    """The JSON result line of one ``bench/run.py`` run in ``root``, and all
    that the run printed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, check=True, text=True).stdout
    return json.loads(out.splitlines()[-1]), out


def cpu_us_per_job(out: str) -> float:
    """Job CPU time per job, in µs, from a timed run's printed summary."""
    jobs, cpu_s = CPU_LINE.search(out).groups()
    return float(cpu_s) / int(jobs) * 1e6


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                values = {k: m["value"] for k, m in r["result"]["metrics"].items()}
                values["cpu_us_per_job"] = r["cpu_us_per_job"]
                pairs.setdefault(r["seed"], {})[r["side"]] = values
        for name, direction in {**better, "cpu_us_per_job": "lower"}.items():
            parent = [p["parent"][name] for p in pairs.values()]
            change = [p["change"][name] for p in pairs.values()]
            sign = 1 if direction == "higher" else -1
            q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                         if len(parent) > 1 else parent * 3)
            summary[f"{workload}.{name}"] = {
                "parent_median": statistics.median(parent), "parent_q1": q1, "parent_q3": q3,
                "change_median": statistics.median(change),
                "change_ahead": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                "pairs": len(pairs),
            }
    return summary


def cpu_name() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent side")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+", default=["certify", "chains", "search"])
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--change", default="", help="one line saying what the change does")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workdir", type=Path, default=None,
                    help="where to export the parent (default: a temporary directory)")
    args = ap.parse_args()

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        sides = {"parent": export(args.parent, Path(tmp)), "change": ROOT}
        runs = []
        for workload in args.workloads:
            for p, seed in enumerate(args.seeds):
                order = ("parent", "change") if p % 2 == 0 else ("change", "parent")
                for first, side in enumerate(order, start=1):
                    result, out = bench(sides[side], workload, seed, args.seconds, 0)
                    cpu = cpu_us_per_job(out)
                    print(f"{workload} seed {seed} {side}: jobs_per_s "
                          f"{result['metrics']['jobs_per_s']['value']:.1f} cpu_us_per_job "
                          f"{cpu:.1f} correct {result['correct']}", file=sys.stderr)
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "order_in_pair": first, "cpu_us_per_job": cpu,
                                 "result": result})
        traced = {}
        if args.trace_seed is not None:
            for workload in args.workloads:
                traced[workload] = {side: bench(root, workload, args.trace_seed,
                                                args.seconds, 1)[0]
                                    for side, root in sides.items()}

    record = {
        "change": args.change,
        "parent": args.parent,
        "command": "python3 bench/run.py --workload W --seed N "
                   f"--seconds {args.seconds:g} --trace 0",
        "hardware": f"{os.cpu_count()} x {cpu_name()}; Python {platform.python_version()}, "
                    f"numpy {version('numpy')}",
        "pairs": "alternating parent/change pairs; order_in_pair 1 ran first",
        "runs": runs,
        "summary": summarize(runs, better),
    }
    if traced:
        record[f"traced_seed_{args.trace_seed}"] = traced
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    results = [r["result"] for r in runs] + [r for t in traced.values() for r in t.values()]
    return 0 if all(r["correct"] and r["failed"] == 0 for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
