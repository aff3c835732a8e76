#!/usr/bin/env python3
"""Survey the four inequality chains over a small function catalog.

Prints one CSV row per (function, chain) with the worst adjacent margin,
so the equality cases and the violations are easy to eyeball:

    python3 scripts/chain_survey.py
    python3 scripts/chain_survey.py --a 0.5 --b 2 --quad-tol 1e-9
"""
import argparse
import csv
import sys

from hhv.chains import CHAIN_IDS
from hhv.convexity import PhiMap
from hhv.errors import HHVError
from hhv.expr import Interval, parse
from hhv.search import SearchTarget, run_target

CATALOG = [
    "exp(x)",          # equality case of the log-convex chains
    "exp(x^2)",        # log-convex, strict margins
    "x^2 + 0.5",       # convex but not log-convex on [0, 1]
    "2*x + 1",         # affine: classic chain is tight
    "sqrt(x + 0.25)",  # concave: classic chain breaks
    "1/(1 + x)",       # log-convex on positive domains
]

PHI_TEXTS = ["x", "x^2"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a", type=float, default=0.0)
    ap.add_argument("--b", type=float, default=1.0)
    ap.add_argument("--quad-tol", type=float, default=1e-10)
    args = ap.parse_args()

    interval = Interval(args.a, args.b)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["function", "chain", "phi", "verdict", "worst_margin"])

    targets = [SearchTarget("chain", chain_id) for chain_id in CHAIN_IDS]
    # the chains without phi once, then those with phi once per map; theorem2
    # takes f as its second integrand too
    runs = ([(t, None) for t in targets if not t.takes_phi]
            + [(t, pt) for pt in PHI_TEXTS for t in targets if t.takes_phi])
    for text in CATALOG:
        f = parse(text)
        for target, phi_text in runs:
            try:
                phi = PhiMap(parse(phi_text), interval) if phi_text else None
                rep, _ = run_target(target, f, f, phi, interval, quad_tol=args.quad_tol)
                worst = min(rep.pair_margins)
                writer.writerow([text, target.name, phi_text or "", rep.verdict, repr(worst)])
            except HHVError as err:
                writer.writerow([text, target.name, phi_text or "", "error", str(err)])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
