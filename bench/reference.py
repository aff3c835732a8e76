"""Reference outcomes for every job, independent of ``hhv``'s own numerics.

* Check and chord verdicts come from how each case was built (``expect`` in
  the spec); every reported witness is re-evaluated in mpmath.
* Chain terms are recomputed with mpmath's tanh-sinh quadrature, in double
  precision (within 1e-14 relative of the same at 30 digits on these
  catalogs), and compared at ``TERM_RTOL``.  Where the theorem's hypothesis holds by
  construction the expected verdict is ``chain_holds``; otherwise it follows
  from the sign of the high-precision margins.
* Search witnesses are re-verified: a witness is wrong when its true margin
  is not a violation, or when the target's theorem rules out any
  counterexample for the family (``protected`` in the spec).

Judging a job gives one of ``right``, ``known`` (a false violation inside
the rounding band of f's magnitude, the defect class of ROADMAP item 1),
``wrong`` (any other disagreement) or ``error`` (an exception other than
the expected one).
"""
from __future__ import annotations

import functools
import math

import mpmath as mp

mp.mp.dps = 30

TERM_RTOL = 1e-8  # chain terms against mpmath, relative to the term
QUAD_MISS_RTOL = 1e-5  # a term off by less than this is a quadrature tolerance miss
QUAD_FLOOR = 1e-8      # ... or off by less than integrate()'s absolute budget floor
BAND = 1e-7       # |false margin| <= BAND * scale is rounding at f's magnitude
CHECK_TOL = 1e-9  # the certifiers' default margin tolerance
CHAIN_TOL = 1e-8  # the chains' default link tolerance

HOLDS = {"holds_on_samples": "holds", "chain_holds": "holds",
         "violated": "violated", "link_violated": "violated"}


class Fn:
    """Expression text evaluated in one of mpmath's contexts: ``mp.mp`` for
    point values at ``mp.dps`` digits, ``mp.fp`` (double precision) for the
    integrands.  The grammar's ``^`` binds like Python's ``**`` (tighter
    than unary minus, right-associative), and the texts come from this
    benchmark or from ``hhv``'s generators."""

    def __init__(self, text: str, ctx=mp.mp):
        self.text, self.ctx = text, ctx
        self.isfinite = math.isfinite if ctx is mp.fp else mp.isfinite
        ns = {"__builtins__": {}, "exp": ctx.exp, "ln": ctx.log, "sqrt": ctx.sqrt,
              "abs": abs, "e": ctx.e, "pi": ctx.pi}
        self.fn = eval(f"lambda x: {text.replace('^', '**')}", ns)  # noqa: S307 - restricted namespace

    def __call__(self, x):
        ctx = self.ctx
        v = self.fn(ctx.mpf(x))
        if isinstance(v, (int, float)):
            v = ctx.mpf(v)
        if not isinstance(v, ctx.mpf) or not self.isfinite(v):
            raise ArithmeticError(f"{self.text} is not real at x={x!r}")
        return v


@functools.lru_cache(maxsize=256)
def fn(text: str, ctx=mp.mp) -> Fn:
    return Fn(text, ctx)


def _phi(text: str | None) -> Fn:
    return fn(text or "x")


def log_mean(p, q):
    return p if p == q else (p - q) / (mp.log(p) - mp.log(q))


@functools.lru_cache(maxsize=1024)
def _mean(kind: str, f_text: str, g_text: str | None, lo, hi):
    """Integral mean over [lo, hi] of one of the chains' integrands, by
    mpmath's tanh-sinh quadrature in double precision (about 1e-15 relative
    on these smooth integrands, far inside ``TERM_RTOL``).  The six chain
    jobs of one f run back to back and share most integrals, so each is
    computed once."""
    f, g = fn(f_text, mp.fp), fn(g_text or f_text, mp.fp)
    lo, hi = float(lo), float(hi)
    c = lo + hi
    integrand = {
        "f": f,
        "log_f": lambda x: mp.fp.log(f(x)),
        "reflected": lambda x: mp.fp.sqrt(f(x) * f(c - x)),
        "fg": lambda x: f(x) * g(x),
        "square_sum": lambda x: f(x) ** 2 + g(x) ** 2,
    }[kind]
    # scaled to order one: mpmath's error estimate divides by the log of the
    # difference of two estimates, which is 0 when that difference is 1.0.
    # Mapped onto [-1, 1]: mpmath caches its nodes per interval, for good.
    scale = max(abs(integrand(x)) for x in (lo, c / 2, hi)) or 1.0
    mid, half = c / 2, (hi - lo) / 2
    mean = mp.fp.quad(lambda u: integrand(mid + half * u) / scale, [-1.0, 1.0]) / 2
    return mp.mpf(mean) * scale


# ----------------------------- checks -----------------------------------------

def point_margins(f: Fn, phi: Fn, x, y, t):
    """Exact-arithmetic margins at one sampled triple, keyed like the
    certifiers and the implication links, with the scale of f there."""
    px, py = phi(x), phi(y)
    t = mp.mpf(t)
    fx, fy, fm = f(px), f(py), f(t * px + (1 - t) * py)
    out = {"additive": (t * fx + (1 - t) * fy - fm, max(1, abs(fx), abs(fy), abs(fm)))}
    if fx > 0 and fy > 0 and fm > 0:
        lx, ly, lm = mp.log(fx), mp.log(fy), mp.log(fm)
        log_scale = max(1, abs(lx), abs(ly), abs(lm))
        am = t * fx + (1 - t) * fy
        out["log"] = (t * lx + (1 - t) * ly - lm, log_scale)
        out["weighted_am_gm"] = (am - mp.exp(t * lx + (1 - t) * ly), max(1, fx, fy))
        out["max_bound"] = (max(fx, fy) - am, max(1, fx, fy))
    return out


_LINK_KEY = {"multiplicative_bound": "log"}


def _judge_margin(expect: str, verdict: str, min_margin, witness, margins_at, key):
    """One inequality: ``expect`` from construction against the report."""
    got = HOLDS[verdict]
    if expect == "holds" and got == "holds":
        return "right"
    if expect == "violated" and got == "holds":
        return "wrong"
    true, scale = margins_at(witness)[key]
    if expect == "violated":
        return "right" if true < -BAND * scale else "wrong"
    # a violation of a true inequality: rounding at f's scale, or a real bug
    inside_band = abs(min_margin) <= BAND * float(scale) and true >= -BAND * scale
    return "known" if inside_band else "wrong"


def judge_check(spec: dict, rec: dict) -> str:
    f, phi = fn(spec["f"]), _phi(spec.get("phi"))

    def margins_at(w):
        return point_margins(f, phi, w[0], w[1], w[2])

    if rec["kind"] == "implication":
        expects = {"multiplicative_bound": spec["expect"], "weighted_am_gm": "holds",
                   "max_bound": "holds"}
        results = [_judge_margin(expects[name], verdict, m, w, margins_at,
                                 _LINK_KEY.get(name, name))
                   for name, verdict, m, w in rec["links"]]
        return _worst(results)
    if rec.get("failure_kind") == "domain":
        return "wrong"
    key = "log" if spec["cls"].startswith("log") else "additive"
    return _judge_margin(spec["expect"], rec["verdict"], rec["min_margin"], rec["witness"],
                         margins_at, key)


def max_abs(f: Fn, a: float, b: float, n: int = 65):
    return max(abs(f(mp.mpf(a) + (mp.mpf(b) - a) * i / (n - 1))) for i in range(n))


SCALE_KNOWN = 1e4


def judge_chord(spec: dict, rec: dict) -> str:
    expect = spec["expect"]
    if (rec["agree"] and HOLDS[rec["direct"]] == expect
            and HOLDS[rec["segment"]] == expect and rec["pairs"] == spec["pairs"]):
        return "right"
    # the report carries no margins: a false violation on a large-magnitude
    # f is the scale defect, anything else is a real disagreement
    falsely_violated = expect == "holds" and "violated" in (HOLDS[rec["direct"]],
                                                            HOLDS[rec["segment"]])
    if falsely_violated and max_abs(fn(spec["f"]), spec["a"], spec["b"]) >= SCALE_KNOWN:
        return "known"
    return "wrong"


# ----------------------------- chains -----------------------------------------

def chain_terms(chain: str, f_text: str, g_text: str | None, phi_text: str | None,
                a: float, b: float, diag: bool):
    """Term names and values of one chain, as the chain module orders them."""
    f = fn(f_text)
    if chain in ("classic_hh", "dragomir_mond"):
        lo, hi = mp.mpf(a), mp.mpf(b)
        fa, fb = f(lo), f(hi)
        mean_f = _mean("f", f_text, None, lo, hi)
        if chain == "classic_hh":
            return [("f_at_midpoint", f((lo + hi) / 2)), ("integral_mean_f", mean_f),
                    ("endpoint_arithmetic_mean", (fa + fb) / 2)], None
        return [("f_at_midpoint", f((lo + hi) / 2)),
                ("exp_mean_log_f", mp.exp(_mean("log_f", f_text, None, lo, hi))),
                ("mean_geometric_reflected", _mean("reflected", f_text, None, lo, hi)),
                ("integral_mean_f", mean_f),
                ("log_mean_endpoints", log_mean(fa, fb)),
                ("arithmetic_mean_endpoints", (fa + fb) / 2)], None
    phi = _phi(phi_text)
    pa, pb = phi(a), phi(b)
    lo, hi = min(pa, pb), max(pa, pb)
    if chain == "theorem1":
        fpa, fpb = f(pa), f(pb)
        mean_f = _mean("f", f_text, None, lo, hi)
        terms = [("f_at_phi_midpoint", f((pa + pb) / 2)),
                 ("mean_geometric_reflected", _mean("reflected", f_text, None, lo, hi)),
                 ("integral_mean_f", mean_f),
                 ("log_mean_phi_endpoints", log_mean(fpb, fpa)),
                 ("arithmetic_mean_phi_endpoints", (fpa + fpb) / 2)]
        # the reflected arithmetic mean averages to the plain mean
        return terms, ({"mean_arithmetic_reflected": mean_f} if diag else None)
    g_text = g_text or f_text
    g = fn(g_text)
    fpa, fpb, gpa, gpb = f(pa), f(pb), g(pa), g(pb)
    terms = [("integral_mean_fg", _mean("fg", f_text, g_text, lo, hi)),
             ("log_mean_product_endpoints", log_mean(fpb * gpb, fpa * gpa)),
             ("quarter_sum_log_mean_bound",
              (fpb + fpa) * log_mean(fpb, fpa) / 4 + (gpb + gpa) * log_mean(gpb, gpa) / 4)]
    if not diag:
        return terms, None
    half_sq = _mean("square_sum", f_text, g_text, lo, hi) / 2
    return terms, {"half_mean_square_sum": half_sq,
                   "half_mean_square_sum_minus_term2": half_sq - terms[1][1],
                   "term3_minus_half_mean_square_sum": terms[2][1] - half_sq}


def chain_truth(terms) -> str | None:
    """Verdict of the exact margins under the chain's absolute tolerance;
    None when a margin sits inside the rounding band of that threshold."""
    values = [v for _, v in terms]
    scale = max(abs(v) for v in values)
    margins = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    if any(m < -CHAIN_TOL - BAND * scale for m in margins):
        return "violated"
    if all(m >= -CHAIN_TOL + BAND * scale for m in margins):
        return "holds"
    return None


def _value_status(v, ref, base) -> str:
    """Agreement within ``TERM_RTOL * base``; a miss within ``QUAD_MISS_RTOL *
    base`` or integrate()'s absolute budget floor is the quadrature
    tolerance miss on steep or tiny integrands, the scale dependence of
    ROADMAP item 1."""
    err = abs(mp.mpf(v) - ref)
    if err <= TERM_RTOL * base:
        return "right"
    return "known" if err <= QUAD_MISS_RTOL * base + QUAD_FLOOR else "wrong"


def judge_chain_report(rec: dict, terms, diagnostics, expect: str | None) -> str:
    scale = max(abs(v) for _, v in terms)
    if [n for n, _ in rec["terms"]] != [n for n, _ in terms]:
        return "wrong"
    results = [_value_status(v, r, abs(r) + 1e-6 * scale)
               for (_, v), (_, r) in zip(rec["terms"], terms)]
    if diagnostics is not None:
        got = rec.get("diagnostics") or {}
        if sorted(got) != sorted(diagnostics):
            return "wrong"
        # the diagnostic differences inherit the error of the larger terms
        diag_scale = max([scale] + [abs(v) for v in diagnostics.values()])
        results += [_value_status(got[k], diagnostics[k], diag_scale) for k in diagnostics]
    truth = chain_truth(terms)
    expect = expect or truth
    got = HOLDS[rec["verdict"]]
    if expect is not None and got != expect:
        falsely_violated = expect == "holds" and truth != "violated"
        if falsely_violated and abs(min(rec["margins"])) <= BAND * float(scale):
            results.append("known")
        else:
            results.append("wrong")
    return _worst(results)


def judge_chain(spec: dict, rec: dict) -> str:
    terms, diagnostics = chain_terms(spec["chain"], spec["f"], spec["g"], spec["phi"],
                                     spec["a"], spec["b"], spec["diag"])
    return judge_chain_report(rec, terms, diagnostics, spec["expect"])


# ----------------------------- search -----------------------------------------

def judge_search(spec: dict, rec: dict) -> str:
    w = rec["witness"]
    if not rec["found"]:
        return "right" if w is None and rec["trials"] == spec["budget"] else "wrong"
    kind, _, name = spec["target"].partition(":")
    inner = w["report"]
    if kind == "check":
        # the plain classes take no phi, even when the search drew one
        f, phi = fn(w["f"]), _phi(w["phi"] if "phi" in name else None)
        if inner.get("failure_kind") == "domain":
            # a domain failure is a true witness only if f really leaves its domain there
            try:
                point_margins(f, phi, *inner["witness"])
                return "wrong"
            except (ArithmeticError, ValueError, ZeroDivisionError):
                return "right"
        key = "log" if name.startswith("log") else "additive"
        true, scale = point_margins(f, phi, *inner["witness"])[key]
        if true < -CHECK_TOL and not spec["protected"]:
            return "right"
        inside_band = abs(inner["min_margin"]) <= BAND * float(scale)
        return "known" if inside_band and true >= -BAND * scale else "wrong"
    terms, _ = chain_terms(name, w["f"], w["g"], w["phi"], spec["a"], spec["b"], False)
    if chain_truth(terms) == "violated" and not spec["protected"]:
        return "right"
    scale = max(abs(v) for _, v in terms)
    return "known" if abs(min(inner["margins"])) <= BAND * float(scale) else "wrong"


# ----------------------------- dispatch ---------------------------------------

_JUDGES = {"check": judge_check, "chord": judge_chord, "chain": judge_chain,
           "search": judge_search}


def expected_error(spec: dict) -> str | None:
    expect = spec.get("expect")
    return expect if expect not in (None, "holds", "violated") else None


def judge(spec: dict, rec: dict) -> str:
    """Classify one job's output; ``rec`` is the normalized record."""
    want_error = expected_error(spec)
    if rec["kind"] == "error":
        return "right" if rec["type"] == want_error else "error"
    if want_error is not None:
        return "wrong"
    return _JUDGES[spec["job"]](spec, rec)


def _worst(results: list[str]) -> str:
    for status in ("error", "wrong", "known"):
        if status in results:
            return status
    return "right"
