#!/usr/bin/env python3
"""Judge every job of a benchmark workload's first passes against the reference.

    python3 scripts/judge_tally.py --workload certify --seeds 301 921

For each seed, builds passes 0-2 (``PASSES``) of the workload through
``bench/worker.py``, runs every job once, untimed, and judges its output with
``bench/reference.judge``.  Prints the ``right``/``known``/``wrong``/``error``
counts for each job class (a check's class, a chord check's space, a chain's
id, a search's target), the totals, and the first few jobs that are not
``right``.  ``known`` is the rounding-band defect class the reference names
apart from ``wrong``.  Then prints, for each seed, ``worker.digest`` of the
records of its jobs in run order: two trees whose digests match gave the
same record, bit for bit, on every job.  Last, for each seed, prints
``verdicts seed N: <sha256>``, a digest of the verdict fields alone (a
check's or a chain's verdict, each link's verdict, a chord check's direct,
segment and agree, a search's outcome without its witness's margins, an
error's type): two runs whose margins differ in their last bits, as on CPUs
with different SIMD code, still print the same line when every verdict
agrees.
Exits 1 when any job is ``wrong`` or ``error``.

Runs from the root of a source checkout; ``hhv`` is imported from ``src/``.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import reference  # noqa: E402
import worker  # noqa: E402

STATUSES = ("right", "known", "wrong", "error")
PASSES = (0, 1, 2)
SHOWN = 5


def job_class(spec: dict) -> str:
    job = spec["job"]
    if job == "check":
        return f"check:{spec['cls']}"
    if job == "chord":
        return "chord:log_phi" if spec["log"] else "chord:phi"
    if job == "chain":
        return f"chain:{spec['chain']}" + (":diag" if spec["diag"] else "")
    return f"search:{spec['target']}"


def verdicts(rec: dict):
    """The verdict fields of a record: a check's or a chain's verdict, each
    link's verdict, a chord check's direct, segment and agree, a search's
    found, trials and skips with its witness's texts, trial and report's
    verdicts, and an error's type."""
    if rec["kind"] in ("check", "chain"):
        return rec["verdict"]
    if rec["kind"] == "implication":
        return [link[1] for link in rec["links"]]
    if rec["kind"] == "chord":
        return [rec["direct"], rec["segment"], rec["agree"]]
    if rec["kind"] == "search":
        w = rec["witness"]
        return [rec["found"], rec["trials"], rec["skipped"], None if w is None else
                [w["f"], w["phi"], w["g"], w["trial"], verdicts(w["report"])]]
    if rec["kind"] == "error":
        return rec["type"]
    raise TypeError(f"unexpected record kind {rec['kind']!r}")


def judge_pass(workload: str, seed: int, rep: int, tally: dict, cases: list,
               records: list) -> None:
    specs, calls = worker.build(workload, seed, rep)
    for spec, call in zip(specs, calls):
        try:
            out = call()
        except Exception as err:  # the reference judges the error's type
            out = err
        records.append(worker.record(out))
        status = reference.judge(spec, records[-1])
        tally.setdefault(job_class(spec), Counter())[status] += 1
        if status != "right":
            cases.append({"seed": seed, "pass": rep, "status": status, "spec": spec})


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("certify", "chains", "search"), required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()

    tally: dict[str, Counter] = {}
    cases: list[dict] = []
    digests: dict[int, str] = {}
    verdict_digests: dict[int, str] = {}
    for seed in args.seeds:
        records: list[dict] = []
        for rep in PASSES:
            judge_pass(args.workload, seed, rep, tally, cases, records)
        digests[seed] = worker.digest(records)
        verdict_digests[seed] = worker.digest([verdicts(rec) for rec in records])

    total = sum(tally.values(), Counter())
    width = max(len(name) for name in [*tally, "total"])
    print(f"{'class':<{width}}  " + "  ".join(f"{s:>6}" for s in STATUSES))
    for name in sorted(tally) + ["total"]:
        counts = total if name == "total" else tally[name]
        print(f"{name:<{width}}  " + "  ".join(f"{counts[s]:>6}" for s in STATUSES))
    for seed, digest in digests.items():
        print(f"digest seed {seed}: {digest}")
    for seed, digest in verdict_digests.items():
        print(f"verdicts seed {seed}: {digest}")
    bad = [c for c in cases if c["status"] in ("wrong", "error")]
    for case in (bad or cases)[:SHOWN]:
        print(json.dumps(case))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
