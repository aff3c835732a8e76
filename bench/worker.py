"""One workload in one fresh, single-threaded process.

    python3 bench/worker.py --mode setup|run|trace --workload W --seed N --seconds S

Every pass runs a job list of its own, built from the seed and the pass
number, so no input repeats in a process: a cache keyed on an expression or
its text pays its full cost in every timed job, as in one-shot use.  Pass 0
is the warm-up; the fixed anchors join pass 1.

``setup`` imports ``hhv`` and builds pass 0's inputs, prints its CPU time
and a calibration, then exits; ``run.py`` runs processes of this kind for
``setup_s``.  ``run`` is a closed loop with one caller: the warm-up pass,
then passes until ``--seconds`` of timed passes have gone by.  ``trace``
alternates traced and untraced passes and reports work counts, per-layer
times and tracing overhead.  Either mode judges every job's output against
the reference after each pass, outside the timed region, and prints one
JSON line.

A job's time is the CPU time of this thread (``time.thread_time``).  The
jobs are single-threaded and do no I/O, so that is their wall time less the
time the host of a virtual machine hands the CPU to other guests (steal
time), which the guest kernel charges to no thread.  ``Calibration`` and
``scaled`` deal with the CPU itself running slower at times.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_JOBS = 100


# ----------------------------- set-up -----------------------------------------

def prepare(spec: dict):
    """Parse the spec's expressions and build its PhiMaps; return the job."""
    import catalog
    import hhv

    if spec["job"] == "search":
        return _search_call(spec)
    f = hhv.parse(spec["f"])
    interval = hhv.Interval(spec["a"], spec["b"])
    phi = hhv.PhiMap(hhv.parse(spec["phi"]), interval) if spec.get("phi") else None
    # every call looks its function up on the package at call time, so the
    # tracer's wrappers see the benchmark's own calls too
    if spec["job"] == "check":
        plan = hhv.SamplePlan(seed=spec["seed"])
        cls = spec["cls"]
        name = "check_implication_chain" if cls == "implication" else f"check_{cls}"
        target = phi if cls in catalog.PHI_CLASSES else interval
        return lambda: getattr(hhv, name)(f, target, plan)
    if spec["job"] == "chord":
        plan = hhv.SamplePlan(seed=spec["seed"])
        name = ("check_log_phi_chord_equivalence" if spec["log"]
                else "check_phi_chord_equivalence")
        return lambda: getattr(hhv, name)(f, phi, spec["pairs"], plan, spec["seed"])
    chain, diag = spec["chain"], spec["diag"]
    if chain == "classic_hh":
        return lambda: hhv.eval_classic_hh(f, interval)
    if chain == "dragomir_mond":
        return lambda: hhv.eval_dragomir_mond(f, interval)
    if chain == "theorem1":
        return lambda: hhv.eval_theorem1(f, phi, include_diagnostics=diag)
    g = hhv.parse(spec["g"])
    return lambda: hhv.eval_theorem2(f, g, phi, include_diagnostics=diag)


def _search_call(spec: dict):
    import catalog
    import hhv

    kind, _, name = spec["target"].partition(":")
    target = hhv.SearchTarget(kind, name)
    f_spec = hhv.FamilySpec(spec["family"], spec["degree"], (spec["lo"], spec["hi"]))
    # the CLI's --phi-family poly spec
    phi_spec = (hhv.FamilySpec("positive_poly", 2, (0.1, max(0.2, spec["hi"])))
                if spec["phi_poly"] else None)
    domain = hhv.Interval(spec["a"], spec["b"])
    plan = hhv.SamplePlan(**catalog.HUNT_PLAN, seed=spec["seed"])
    return lambda: hhv.find_counterexample(target, f_spec, phi_spec, domain,
                                           spec["budget"], spec["seed"], sampler=plan)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def build(workload: str, seed: int, rep: int):
    """Specs and prepared calls of pass ``rep``."""
    import catalog

    specs = catalog.BUILDERS[workload](seed, rep, rep == 1)
    if len(specs) < MIN_JOBS:
        raise ValueError(f"{workload} has {len(specs)} jobs per pass, fewer than {MIN_JOBS}")
    return specs, [prepare(s) for s in specs]


# ----------------------------- records ----------------------------------------

def _triple(w):
    return None if w is None else [w.x, w.y, w.t]


def record(out) -> dict:
    """Normalize a report, outcome or exception to a JSON-able record."""
    from hhv import ChainReport, ConvexityReport, EquivalenceReport, ImplicationLatticeReport
    from hhv import SearchOutcome

    if isinstance(out, BaseException):
        return {"kind": "error", "type": type(out).__name__}
    if isinstance(out, ConvexityReport):
        return {"kind": "check", "verdict": out.verdict, "min_margin": out.min_margin,
                "witness": _triple(out.witness), "failure_kind": out.failure_kind,
                "samples": out.samples_tested}
    if isinstance(out, ImplicationLatticeReport):
        return {"kind": "implication", "samples": out.samples_tested,
                "links": [[l.name, l.verdict, l.min_margin, _triple(l.witness)]
                          for l in out.links]}
    if isinstance(out, EquivalenceReport):
        return {"kind": "chord", "agree": out.agree, "pairs": out.pairs_tested,
                "direct": out.direct_verdict, "segment": out.segment_verdict,
                "disagreeing": None if out.disagreeing_pair is None
                else list(out.disagreeing_pair)}
    if isinstance(out, ChainReport):
        return {"kind": "chain", "verdict": out.verdict,
                "terms": [[n, v] for n, v in out.terms], "margins": list(out.pair_margins),
                "diagnostics": out.diagnostics}
    if isinstance(out, SearchOutcome):
        w = out.witness
        return {"kind": "search", "found": out.found, "trials": out.trials,
                "skipped": dict(sorted(out.skipped.items())),
                "witness": None if w is None else {
                    "f": w.f_text, "phi": w.phi_text, "g": w.g_text, "trial": w.trial,
                    "report": record(w.report)}}
    raise TypeError(f"unexpected job output {type(out).__name__}")


def trials_of(rec: dict) -> int:
    """Target evaluations behind one job: a search job's trials, else one."""
    return rec["trials"] if rec.get("kind") == "search" else 1


# ----------------------------- passes -----------------------------------------

CHUNK_S = 0.1  # job CPU seconds between two calibrations
SLOW = 1.2     # a calibration this much slower than the fastest marks a disturbed CPU


class Calibration:
    """A fixed kernel that never touches ``hhv``: interpreter work on small
    objects, 64-point and 22 609-point numpy expressions, the kinds of work
    the workloads do.  Its CPU time measures how fast the core runs at that
    moment.  On the machine the benchmark was tuned on, other guests slow
    each virtual CPU by up to 2x, independently, for a fraction of a second
    to minutes; that slows this kernel and the jobs alike.

    When the kernel runs ``SLOW`` times slower than its fastest so far, the
    process moves to the next CPU it may use and measures again there, so
    the jobs run on an undisturbed CPU whenever there is one.  The process
    stays single-threaded."""

    NOMINAL_S = 0.0022  # the kernel's CPU time on an undisturbed core there

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        self.small = np.linspace(0.1, 2.0, 64)
        self.large = np.linspace(0.1, 2.0, 22609)
        self.cpus = sorted(os.sched_getaffinity(0))
        self.fastest = float("inf")

    def kernel(self) -> float:
        np, xs, xl = self.np, self.small, self.large
        t0 = time.thread_time()
        acc = 0.0
        for i in range(300):
            d = {"i": i, "pair": [i, i + 1]}
            acc += (i * 0.5) ** 2 % 3.0 + len(d["pair"])
            acc += float((np.exp(0.3 * xs) * xs + np.sqrt(xs)).min())
        for _ in range(4):
            acc += float((np.exp(0.3 * xl) * xl - np.sqrt(xl)).min())
        return time.thread_time() - t0

    def warm(self) -> float:
        """Kernel time with the kernel's data in cache: the first run after
        a job pays for what the job evicted, which would tie the
        calibration to the program's memory use."""
        self.kernel()
        t = self.kernel()
        self.fastest = min(self.fastest, t)
        return t

    def __call__(self) -> tuple[float, float]:
        """Kernel time on this CPU, and on the CPU the next jobs will run on."""
        here = there = self.warm()
        if here > SLOW * self.fastest and len(self.cpus) > 1:
            cpu = min(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {self.cpus[(self.cpus.index(cpu) + 1) % len(self.cpus)]})
            there = self.warm()
        return here, there


def run_pass(calls, calibrate, tracer=None):
    """Run every call once.  Return the outputs, each job's CPU seconds and
    the mean calibration time of the two calibrations around its chunk."""
    outs, lat, cal = [], [], []
    before, chunk = calibrate()[1], 0.0
    for i, call in enumerate(calls):
        t0 = time.thread_time()
        try:
            if tracer is None:
                out = call()
            else:
                tracer.job = i
                out = tracer.span("job", call, (), {})
        except Exception as err:  # the loop must go on; the record keeps the type
            out = err
        dt = time.thread_time() - t0
        lat.append(dt)
        outs.append(out)
        chunk += dt
        if chunk >= CHUNK_S or i == len(calls) - 1:
            after, nxt = calibrate()
            cal += [(before + after) / 2] * (len(lat) - len(cal))
            before, chunk = nxt, 0.0
    return outs, lat, cal


def scaled(lat, cal) -> list[float]:
    """Times on the undisturbed core: each scaled by ``NOMINAL_S`` over the
    calibration around it."""
    return [t * Calibration.NOMINAL_S / c for t, c in zip(lat, cal)]


def digest(records: list) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True, default=repr)
                          .encode()).hexdigest()


MAX_CASES = 50


class Judge:
    """Judges each pass's outputs against the reference right after the
    pass, outside the timed region, and keeps only the counts and the first
    ``MAX_CASES`` disagreements, so that the process's memory does not grow
    with the number of passes."""

    def __init__(self) -> None:
        import reference

        self.reference = reference
        self.tally = {"right": 0, "known": 0, "wrong": 0, "error": 0}
        self.cases: list[dict] = []
        self.attempted = 0

    def add(self, specs: list, records: list) -> None:
        for spec, rec in zip(specs, records):
            status = self.reference.judge(spec, rec)
            self.tally[status] += 1
            self.attempted += 1
            if status != "right" and len(self.cases) < MAX_CASES:
                self.cases.append({"status": status, "spec": spec, "output": rec})

    def result(self) -> dict:
        return {"tally": self.tally, "cases": self.cases, "attempted": self.attempted}


def quantile(values, q: float) -> float:
    """Nearest-rank quantile."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(-(-q * len(s) // 1)) - 1))]


def run_mode(workload: str, seed: int, calls, specs, seconds: float) -> dict:
    """The warm-up pass, then fresh passes until ``seconds`` of timed passes
    have gone by.  Latency percentiles are over the scaled times of every
    timed job."""
    calibrate, judge = Calibration(), Judge()
    outs, _, _ = run_pass(calls, calibrate)
    judge.add(specs, [record(o) for o in outs])
    lat, cal, trials, passes, wall = [], [], [], 0, 0.0
    while passes == 0 or wall < seconds:
        passes += 1
        specs, calls = build(workload, seed, passes)
        t0 = time.perf_counter()
        outs, pass_lat, pass_cal = run_pass(calls, calibrate)
        wall += time.perf_counter() - t0
        recs = [record(o) for o in outs]
        del outs
        lat += pass_lat
        cal += pass_cal
        trials += [trials_of(r) for r in recs]
        judge.add(specs, recs)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    times = scaled(lat, cal)
    busy = sum(times)
    return {
        "jobs": len(lat), "passes": passes, "wall_s": wall, "cpu_s": sum(lat),
        "slowdown": max(cal) / min(cal), "mean_slowdown": sum(lat) / busy,
        "jobs_per_s": len(times) / busy, "trials_per_s": sum(trials) / busy,
        "job_p50_ms": quantile(times, 0.5) * 1e3, "job_p90_ms": quantile(times, 0.9) * 1e3,
        "peak_rss_mb": peak_kb / 1024.0, **judge.result(),
    }


# ----------------------------- traced mode ------------------------------------

def trace_mode(workload: str, seed: int, calls, specs, seconds: float,
               spans_path: str | None) -> dict:
    """Traced passes on odd pass numbers, untraced ones on even numbers, so
    both see fresh inputs of one family mix.  Work counts and output digests
    are kept per traced pass, so that two processes with one seed can be
    compared pass by pass; times are medians over the traced passes."""
    from tracing import LAYERS, Tracer

    calibrate, judge = Calibration(), Judge()
    outs, _, _ = run_pass(calls, calibrate)
    judge.add(specs, [record(o) for o in outs])
    plain, traced, tracers, compared = ([], []), ([], []), [], []
    rep, t0 = 0, time.perf_counter()
    while rep < 2 or time.perf_counter() - t0 < seconds:
        rep += 1
        specs, calls = build(workload, seed, rep)
        tracer = Tracer() if rep % 2 else None
        if tracer is not None:
            tracer.install()
        try:
            outs, lat, cal = run_pass(calls, calibrate, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        recs = [record(o) for o in outs]
        side = plain if tracer is None else traced
        side[0].extend(lat)
        side[1].extend(cal)
        if tracer is not None:
            tracers.append(tracer)
            compared.append({"counts": tracer.work_counts(), "digest": digest(recs)})
        judge.add(specs, recs)

    def ms(key, table="ms"):
        return statistics.median(getattr(t, table).get(key, 0.0) for t in tracers)

    counts = compared[0]["counts"]
    metrics = {}
    for key in ("expr.parse", "expr.check_positive", "expr.evaluate_array.small",
                "expr.evaluate_array.large", "quadrature.integrate", "means.logarithmic",
                "convexity.check", "convexity.chord_equivalence", "convexity.PhiMap",
                "chains.eval", "search.generate"):
        metrics[f"{key}.calls"] = counts.get(f"{key}.calls", 0)
        metrics[f"{key}.ms"] = ms(key)
    for key in ("quadrature.integrate", "convexity.check", "chains.eval",
                "search.find_counterexample"):
        metrics[f"{key}.self_ms"] = ms(key, "self_ms")
    for key in ("expr.evaluate_array.small.points", "expr.evaluate_array.large.points",
                "quadrature.integrate.evals", "convexity.check.samples",
                "convexity.chord_equivalence.pairs", "search.trials", "search.skipped",
                "chains.classic_hh.quad_evals", "chains.dragomir_mond.quad_evals",
                "chains.theorem1.quad_evals", "chains.theorem2.quad_evals"):
        metrics[key] = counts.get(key, 0)
    metrics["search.generate.accept_ratio"] = (
        counts.get("search.generate.accepted", 0)
        / max(1, counts.get("search.generate.candidates", 0)))
    metrics["search.target.ms"] = ms("search.target")
    job_ms = sum(t.ms.get("job", 0.0) for t in tracers)
    layer = {name: sum(t.layer_self_ms().get(name, 0.0) for t in tracers) for name in LAYERS}
    for name in LAYERS:
        metrics[f"{name}.self_share"] = layer[name] / job_ms if job_ms else 0.0
    traced_s, plain_s = scaled(*traced), scaled(*plain)
    metrics["trace.jobs_per_s_ratio"] = ((len(traced_s) / sum(traced_s))
                                         / (len(plain_s) / sum(plain_s)))
    if spans_path:
        tracers[0].dump(spans_path)
    return {"metrics": metrics, "passes": compared, **judge.result()}


# ----------------------------- entry ------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--spans", help="write the first traced pass's spans here (JSONL)")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    specs, calls = build(args.workload, args.seed, 0)
    import hhv

    if Path(hhv.__file__).resolve().parent != (SRC / "hhv").resolve():
        print(f"hhv imported from {hhv.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.mode == "setup":
        usage = resource.getrusage(resource.RUSAGE_SELF)
        cal = min(Calibration().kernel() for _ in range(5))  # the first warms it
        print(json.dumps({"cpu_s": usage.ru_utime + usage.ru_stime, "cal_s": cal}))
        return 0
    if args.mode == "run":
        result = run_mode(args.workload, args.seed, calls, specs, args.seconds)
    else:
        result = trace_mode(args.workload, args.seed, calls, specs, args.seconds, args.spans)
    print(json.dumps(result, default=repr))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
