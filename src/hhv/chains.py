"""Term-by-term evaluation of the Hermite-Hadamard-type inequality chains.

Four chains are supported:

* ``classic_hh``       midpoint <= integral mean <= endpoint average, for
                       convex integrands.
* ``dragomir_mond``    the six-term refinement for log-convex integrands,
                       through the geometric-mean integral and the
                       logarithmic mean of the endpoint values.
* ``theorem1``         the five-term analogue along a deformation map phi,
                       with every average taken over [phi(a), phi(b)].
* ``theorem2``         the product chain bounding the mean of f*g through
                       logarithmic means of the endpoint products.

Each evaluator checks its hypotheses, including positive values at both
chain ends, then hands ``_finish`` its terms as ``(name, thunk)`` pairs.
``_finish`` calls them in chain order, each under a wrapper that names a
failing term in a ChainTermError, then the optional diagnostics, which may
read the term values.  Each report lists the ordered term values, adjacent
margins (terms[i+1] - terms[i]), and the indices of any violated links.

Integral means go through ``_mean``, which keeps the ``_MEANS_SIZE`` newest,
keyed on the integrand's kind, the trees it reads, its reflection centre,
the span and ``quad_tol``: the chains of one f share means, and a hit is the
float a fresh integration gives.  A failing integration is not kept.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .convexity import PhiMap, _require_positive_values, _require_positivity
from .errors import ChainTermError, DegeneratePhi, HHVError, PositivityViolated
from .expr import Expr, Interval
from .means import PositivePair, arithmetic, logarithmic
from .quadrature import DEFAULT_TOL as DEFAULT_QUAD_TOL, mean_value

__all__ = [
    "ChainReport", "CHAIN_IDS",
    "eval_classic_hh", "eval_dragomir_mond", "eval_theorem1", "eval_theorem2",
    "VERDICT_CHAIN_HOLDS", "VERDICT_LINK_VIOLATED",
]

VERDICT_CHAIN_HOLDS = "chain_holds"
VERDICT_LINK_VIOLATED = "link_violated"

CHAIN_IDS = ("classic_hh", "dragomir_mond", "theorem1", "theorem2")

DEFAULT_CHAIN_TOL = 1e-8
DEGENERATE_PHI_EPS = 1e-12

_MEANS_SIZE = 32
_means: dict = {}
_means_lock = threading.Lock()


@dataclass(frozen=True)
class ChainReport:
    chain_id: str
    terms: tuple[tuple[str, float], ...]
    pair_margins: tuple[float, ...]
    verdict: str  # VERDICT_CHAIN_HOLDS | VERDICT_LINK_VIOLATED
    violated_links: tuple[int, ...]
    tolerance: float
    quad_tol: float
    diagnostics: dict[str, float] | None = None
    notes: tuple[str, ...] = ()


def _finish(chain_id, terms, tolerance, quad_tol, diagnostics=None, notes=()):
    if not tolerance >= 0:  # NaN would make every link hold
        raise ValueError(f"tolerance must be a non-negative number, got {tolerance}")
    # a list, not a generator, which raised the chains benchmark's peak RSS by 3 MB
    named = tuple([(name, _term(name, thunk)) for name, thunk in terms])
    values = [v for _, v in named]
    margins = tuple(values[i + 1] - values[i] for i in range(len(values) - 1))
    violated = tuple(i for i, m in enumerate(margins) if m < -tolerance)
    verdict = VERDICT_LINK_VIOLATED if violated else VERDICT_CHAIN_HOLDS
    return ChainReport(
        chain_id=chain_id, terms=named, pair_margins=margins,
        verdict=verdict, violated_links=violated, tolerance=tolerance,
        quad_tol=quad_tol, notes=tuple(notes),
        diagnostics=None if diagnostics is None else diagnostics(values),
    )


def _term(name: str, thunk):
    try:
        return thunk()
    except HHVError as err:
        raise ChainTermError(name, str(err)) from err


def _mean(key: tuple, integrand, span: Interval, quad_tol: float) -> float:
    """``mean_value(integrand, span, quad_tol)``; ``key`` names the integrand."""
    key = (*key, span, quad_tol)
    value = _means.get(key)
    if value is None:
        value = mean_value(integrand, span, quad_tol)
        with _means_lock:
            if len(_means) >= _MEANS_SIZE:  # the first key is the oldest
                del _means[next(iter(_means))]
            _means[key] = value
    return value


def _positive_ends(f, xa: float, xb: float, label: str) -> list[float]:
    """[f(xa), f(xb)], each required positive; ``label`` has a {} for a or b."""
    ends = []
    for x, end in ((xa, "a"), (xb, "b")):
        ends.append(f.eval(x))
        if not ends[-1] > 0:
            raise PositivityViolated(x, f"{label.format(end)} = {ends[-1]!r} is not positive")
    return ends


def _positive_product(u: float, v: float, label: str) -> float:
    if not 0 < u * v < math.inf:  # positive factors may underflow or overflow
        raise PositivityViolated(None, f"{label} = {u * v!r} is not finite and positive")
    return u * v


def _geometric_reflected(f, center: float):
    # pointwise geometric mean of f(x) and f(center - x), in exp/log form
    # so that large values cannot overflow in the product
    def integrand(xs: np.ndarray) -> np.ndarray:
        fx = _require_positive_values(f.eval_array(xs), xs, "f(x)")
        rs = center - xs
        fr = _require_positive_values(f.eval_array(rs), rs, "f(reflected x)")
        return np.exp(0.5 * (np.log(fx) + np.log(fr)))

    return integrand


# ----------------------------- chain evaluators -------------------------------

def eval_classic_hh(f: Expr, interval: Interval,
                    quad_tol: float = DEFAULT_QUAD_TOL,
                    tolerance: float = DEFAULT_CHAIN_TOL) -> ChainReport:
    """Midpoint value, integral mean, endpoint average."""
    return _finish("classic_hh", [
        ("f_at_midpoint", lambda: f.eval(interval.midpoint)),
        ("integral_mean_f", lambda: _mean(("f", f.root), f.eval_array, interval, quad_tol)),
        ("endpoint_arithmetic_mean",
         lambda: 0.5 * (f.eval(interval.a) + f.eval(interval.b))),
    ], tolerance, quad_tol)


def eval_dragomir_mond(f: Expr, interval: Interval,
                       quad_tol: float = DEFAULT_QUAD_TOL,
                       tolerance: float = DEFAULT_CHAIN_TOL) -> ChainReport:
    """Six-term chain for positive f, ordered from the midpoint value up to
    the arithmetic mean of the endpoint values."""
    _require_positivity(f, interval, "dragomir_mond integrand")
    fa, fb = _positive_ends(f, interval.a, interval.b, "f({})")
    return _finish("dragomir_mond", [
        ("f_at_midpoint", lambda: f.eval(interval.midpoint)),
        ("exp_mean_log_f", lambda: float(np.exp(_mean(("ln f", f.root),
            lambda xs: np.log(_require_positive_values(f.eval_array(xs), xs, "f(x)")),
            interval, quad_tol)))),
        ("mean_geometric_reflected", lambda: _mean(
            ("geometric", f.root, interval.a + interval.b),
            _geometric_reflected(f, interval.a + interval.b), interval, quad_tol)),
        ("integral_mean_f", lambda: _mean(("f", f.root), f.eval_array, interval, quad_tol)),
        ("log_mean_endpoints", lambda: logarithmic(PositivePair(fa, fb))),
        ("arithmetic_mean_endpoints", lambda: arithmetic(PositivePair(fa, fb))),
    ], tolerance, quad_tol)


def _phi_endpoints(phi: PhiMap) -> tuple[float, float, Interval, tuple[str, ...]]:
    pa, pb = phi.at_a, phi.at_b
    if abs(pb - pa) < DEGENERATE_PHI_EPS * phi.domain.width:
        raise DegeneratePhi(
            f"phi({phi.domain.a!r}) = {pa!r} and phi({phi.domain.b!r}) = {pb!r} coincide"
        )
    notes: tuple[str, ...] = ()
    if pa > pb:
        notes = ("phi(a) > phi(b); integrals taken over the reversed interval "
                 f"[{pb!r}, {pa!r}], which leaves every mean unchanged",)
    span = Interval(min(pa, pb), max(pa, pb))
    return pa, pb, span, notes


def eval_theorem1(f: Expr, phi: PhiMap,
                  quad_tol: float = DEFAULT_QUAD_TOL,
                  tolerance: float = DEFAULT_CHAIN_TOL,
                  include_diagnostics: bool = False) -> ChainReport:
    """Five-term chain along phi for positive f.

    All averages run over [phi(a), phi(b)]; the optional diagnostic is the
    average of the pointwise arithmetic mean of f(x) and its reflection,
    which dominates the geometric-mean term but is not part of the chain.
    """
    _require_positivity(f, phi.domain, "theorem1 integrand")
    pa, pb, span, notes = _phi_endpoints(phi)
    center = pa + pb
    fpa, fpb = _positive_ends(f, pa, pb, "f(phi({}))")

    def diagnostics(values):
        mean_arith = _term("mean_arithmetic_reflected", lambda: _mean(
            ("arithmetic", f.root, center),
            lambda xs: 0.5 * (f.eval_array(xs) + f.eval_array(center - xs)), span, quad_tol))
        return {"mean_arithmetic_reflected": mean_arith}

    return _finish("theorem1", [
        ("f_at_phi_midpoint", lambda: f.eval(0.5 * center)),
        ("mean_geometric_reflected", lambda: _mean(
            ("geometric", f.root, center), _geometric_reflected(f, center), span, quad_tol)),
        ("integral_mean_f", lambda: _mean(("f", f.root), f.eval_array, span, quad_tol)),
        ("log_mean_phi_endpoints", lambda: logarithmic(PositivePair(fpb, fpa))),
        ("arithmetic_mean_phi_endpoints", lambda: arithmetic(PositivePair(fpa, fpb))),
    ], tolerance, quad_tol, diagnostics if include_diagnostics else None, notes)


def eval_theorem2(f: Expr, g: Expr, phi: PhiMap,
                  quad_tol: float = DEFAULT_QUAD_TOL,
                  tolerance: float = DEFAULT_CHAIN_TOL,
                  include_diagnostics: bool = False) -> ChainReport:
    """Product chain along phi for positive f and g.

    The diagnostic half-mean of f^2 + g^2 sits between the proof's bounds;
    its margins against terms 2 and 3 are reported but never folded into
    the verdict, since only the outer chain is asserted.
    """
    _require_positivity(f, phi.domain, "theorem2 integrand f")
    _require_positivity(g, phi.domain, "theorem2 integrand g")
    pa, pb, span, notes = _phi_endpoints(phi)
    fpa, fpb = _positive_ends(f, pa, pb, "f(phi({}))")
    gpa, gpb = _positive_ends(g, pa, pb, "g(phi({}))")

    def diagnostics(values):
        half_sq = _term("half_mean_square_sum", lambda: 0.5 * _mean(("f^2+g^2", f.root, g.root),
            lambda xs: f.eval_array(xs) ** 2 + g.eval_array(xs) ** 2, span, quad_tol))
        return {
            "half_mean_square_sum": half_sq,
            "half_mean_square_sum_minus_term2": half_sq - values[1],
            "term3_minus_half_mean_square_sum": values[2] - half_sq,
        }

    return _finish("theorem2", [
        ("integral_mean_fg", lambda: _mean(("f*g", f.root, g.root),
            lambda xs: f.eval_array(xs) * g.eval_array(xs), span, quad_tol)),
        # the label names the end: a witness would capture pa and pb in this
        # closure, and those two cells moved the cyclic collector enough to
        # raise the chains benchmark's peak RSS by 2 MB on some seeds
        ("log_mean_product_endpoints", lambda: logarithmic(PositivePair(
            _positive_product(fpb, gpb, "f(phi(b))*g(phi(b))"),
            _positive_product(fpa, gpa, "f(phi(a))*g(phi(a))")))),
        ("quarter_sum_log_mean_bound", lambda:
         0.25 * (fpb + fpa) * logarithmic(PositivePair(fpb, fpa))
         + 0.25 * (gpb + gpa) * logarithmic(PositivePair(gpb, gpa))),
    ], tolerance, quad_tol, diagnostics if include_diagnostics else None, notes)
