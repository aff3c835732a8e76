"""Spans and work counts around ``hhv``'s public functions, from outside.

Each wrapper is installed at every module attribute through which callers
look the function up (``hhv.expr.evaluate_array`` catches every
``Expr.eval_array`` and ``evaluate`` call, ``hhv.quadrature.integrate``
catches ``mean_value``, ``hhv.search._CHECKS`` holds the certifiers the
search layer calls), and removed again afterwards, so untraced passes in the
same process run the plain code.

A span is ``(id, name, start, end, parent id, job id)``, its times read from
the thread's CPU clock like the untraced job times; spans stay in memory and
are written out once at the end.  Self time is a span's duration minus the
durations of the wrapped calls nested directly inside it.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict

SMALL_POINTS = 64

# the layers traced in process; the cli layer is measured from outside
LAYERS = ("expr", "quadrature", "means", "convexity", "chains", "search")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.job = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.ms: dict[str, float] = defaultdict(float)
        self.self_ms: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn, args, kwargs, on_result=None, tag=None):
        frame = [name, 0.0, len(self.spans), tag]  # name, child seconds, id, tag
        self.spans.append(None)
        parent = self.stack[-1][2] if self.stack else -1
        self.stack.append(frame)
        t0 = time.thread_time()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.thread_time()
            self.stack.pop()
            dur = t1 - t0
            if self.stack:
                self.stack[-1][1] += dur
            self.spans[frame[2]] = (frame[2], name, t0, t1, parent, self.job)
            self.calls[name] += 1
            self.ms[name] += dur * 1e3
            self.self_ms[name] += (dur - frame[1]) * 1e3
        if on_result is not None:
            on_result(result)
        return result

    def enclosing(self, prefix: str):
        for frame in reversed(self.stack):
            if frame[0].startswith(prefix):
                return frame
        return None

    def wrap(self, fn, name, on_result=None, name_of=None, tag=None):
        def wrapper(*args, **kwargs):
            key = name_of(args, kwargs) if name_of is not None else name
            return self.span(key, fn, args, kwargs, on_result, tag)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------------

    def patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_everywhere(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def install(self) -> None:
        import hhv
        from hhv import chains, cli, convexity, expr, means, quadrature, search

        mods = (hhv, expr, quadrature, means, convexity, chains, search, cli)
        count = self.counts

        def size(args, kwargs):
            xs = args[1] if len(args) > 1 else kwargs["xs"]
            return getattr(xs, "size", None) or len(xs)

        def eval_name(args, kwargs):
            n = size(args, kwargs)
            key = "small" if n <= SMALL_POINTS else "large"
            count[f"expr.evaluate_array.{key}.points"] += n
            return f"expr.evaluate_array.{key}"

        self.patch_everywhere(mods, expr.evaluate_array,
                              self.wrap(expr.evaluate_array, None, name_of=eval_name))
        self.patch_everywhere(mods, expr.parse, self.wrap(expr.parse, "expr.parse"))
        self.patch_everywhere(mods, expr.check_positive,
                              self.wrap(expr.check_positive, "expr.check_positive"))

        def integrated(res):
            count["quadrature.integrate.evals"] += res.evaluations
            chain = self.enclosing("chains.eval")
            if chain is not None:
                count[f"chains.{chain[3]}.quad_evals"] += res.evaluations

        self.patch_everywhere(mods, quadrature.integrate,
                              self.wrap(quadrature.integrate, "quadrature.integrate", integrated))
        self.patch_everywhere(mods, means.logarithmic,
                              self.wrap(means.logarithmic, "means.logarithmic"))

        def sampled(rep):
            count["convexity.check.samples"] += rep.samples_tested

        def check_wrapper(fn):
            # the chord checks call the certifiers once per pair; those calls
            # stay inside the chord span, so convexity.check is the certifiers
            # called on their own
            traced = self.wrap(fn, "convexity.check", sampled)

            def wrapper(*args, **kwargs):
                if self.enclosing("convexity.chord_equivalence") is not None:
                    return fn(*args, **kwargs)
                return traced(*args, **kwargs)

            return wrapper

        checks = {}
        for name in ("check_convex", "check_log_convex", "check_phi_convex",
                     "check_log_phi_convex", "check_log_phi_midconvex",
                     "check_implication_chain"):
            fn = getattr(convexity, name)
            checks[fn] = check_wrapper(fn)
            self.patch_everywhere(mods, fn, checks[fn])

        def paired(rep):
            count["convexity.chord_equivalence.pairs"] += rep.pairs_tested

        for name in ("check_phi_chord_equivalence", "check_log_phi_chord_equivalence"):
            fn = getattr(convexity, name)
            self.patch_everywhere(mods, fn, self.wrap(fn, "convexity.chord_equivalence", paired))
        post_init = convexity.PhiMap.__post_init__
        self.patch(convexity.PhiMap, "__post_init__",
                   self.wrap(post_init, "convexity.PhiMap"))

        for cid in chains.CHAIN_IDS:
            fn = getattr(chains, f"eval_{cid}")
            self.patch_everywhere(mods, fn, self.wrap(fn, "chains.eval", tag=cid))

        # the names the search layer calls, wrapped once more as its target span
        for attr in [a for a in vars(search) if a.startswith("eval_")]:
            self.patch(search, attr, self.wrap(getattr(search, attr), "search.target"))
        for cls, (style, fn) in list(search._CHECKS.items()):
            inner = checks.get(fn, fn)
            self._undo.append((search._CHECKS, cls, (style, fn)))
            search._CHECKS[cls] = (style, self.wrap(inner, "search.target"))

        def generated(_):
            count["search.generate.accepted"] += 1

        # generate and generate_phi draw one random stream per candidate
        philox = search._philox

        def drawn(*args, **kwargs):
            if self.enclosing("search.generate") is not None:
                count["search.generate.candidates"] += 1
            return philox(*args, **kwargs)

        self.patch(search, "_philox", drawn)

        for name in ("generate", "generate_phi"):
            fn = getattr(search, name)
            self.patch_everywhere(mods, fn, self.wrap(fn, "search.generate", generated))

        def searched(outcome):
            count["search.trials"] += outcome.trials
            count["search.skipped"] += sum(outcome.skipped.values())

        fc = search.find_counterexample
        self.patch_everywhere(mods, fc, self.wrap(fc, "search.find_counterexample", searched))

    # -- results ---------------------------------------------------------------

    def work_counts(self) -> dict[str, int]:
        """Machine-independent counts; two runs with one seed must match."""
        out = {f"{k}.calls": v for k, v in self.calls.items() if k != "job"}
        out.update(self.counts)
        return dict(sorted(out.items()))

    def layer_self_ms(self) -> dict[str, float]:
        totals = defaultdict(float)
        for key, v in self.self_ms.items():
            totals[key.split(".")[0]] += v
        return totals

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                                     "parent": s[4], "job": s[5]}) + "\n")

