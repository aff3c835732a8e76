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

Each report lists the ordered term values, adjacent margins
(terms[i+1] - terms[i]), and the indices of any violated links.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convexity import PhiMap, _require_positivity
from .errors import ChainTermError, DegeneratePhi, HHVError, PositivityViolated
from .expr import Expr, Interval
from .means import PositivePair, arithmetic, logarithmic
from .quadrature import mean_value

__all__ = [
    "ChainReport", "CHAIN_IDS",
    "eval_classic_hh", "eval_dragomir_mond", "eval_theorem1", "eval_theorem2",
    "VERDICT_CHAIN_HOLDS", "VERDICT_LINK_VIOLATED",
]

VERDICT_CHAIN_HOLDS = "chain_holds"
VERDICT_LINK_VIOLATED = "link_violated"

CHAIN_IDS = ("classic_hh", "dragomir_mond", "theorem1", "theorem2")

DEFAULT_CHAIN_TOL = 1e-8
DEFAULT_QUAD_TOL = 1e-10
DEGENERATE_PHI_EPS = 1e-12


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


def _finish(chain_id, named_terms, tolerance, quad_tol, diagnostics=None, notes=()):
    values = [v for _, v in named_terms]
    margins = tuple(values[i + 1] - values[i] for i in range(len(values) - 1))
    violated = tuple(i for i, m in enumerate(margins) if m < -tolerance)
    verdict = VERDICT_LINK_VIOLATED if violated else VERDICT_CHAIN_HOLDS
    return ChainReport(
        chain_id=chain_id, terms=tuple(named_terms), pair_margins=margins,
        verdict=verdict, violated_links=violated, tolerance=tolerance,
        quad_tol=quad_tol, diagnostics=diagnostics, notes=tuple(notes),
    )


def _term(name: str, fn):
    try:
        return fn()
    except HHVError as err:
        raise ChainTermError(name, str(err)) from err


def _positive_vals(f, xs: np.ndarray, label: str) -> np.ndarray:
    vals = f.eval_array(xs)
    bad = ~(vals > 0)
    if bad.any():
        i = int(np.argmax(bad))
        raise PositivityViolated(float(np.asarray(xs).ravel()[i]),
                                 f"{label} = {vals.ravel()[i]!r} is not positive")
    return vals


def _positive_point(f, x: float, label: str) -> float:
    v = f.eval(x)
    if not v > 0:
        raise PositivityViolated(x, f"{label} = {v!r} is not positive")
    return v


def _geometric_reflected(f, center: float):
    # pointwise geometric mean of f(x) and f(center - x), in exp/log form
    # so that large values cannot overflow in the product
    def integrand(xs: np.ndarray) -> np.ndarray:
        fx = _positive_vals(f, xs, "f(x)")
        fr = _positive_vals(f, center - xs, "f(reflected x)")
        return np.exp(0.5 * (np.log(fx) + np.log(fr)))

    return integrand


def _overflow_to_inf(integrand):
    # an overflowing product or sum becomes inf without a RuntimeWarning;
    # the quadrature then raises Overflow at that point
    def quiet(xs: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return integrand(xs)

    return quiet


# ----------------------------- chain evaluators -------------------------------

def eval_classic_hh(f: Expr, interval: Interval,
                    quad_tol: float = DEFAULT_QUAD_TOL,
                    tolerance: float = DEFAULT_CHAIN_TOL) -> ChainReport:
    """Midpoint value, integral mean, endpoint average."""
    terms = [
        ("f_at_midpoint", _term("f_at_midpoint", lambda: f.eval(interval.midpoint))),
        ("integral_mean_f", _term("integral_mean_f",
                                  lambda: mean_value(f.eval_array, interval, quad_tol))),
        ("endpoint_arithmetic_mean",
         _term("endpoint_arithmetic_mean",
               lambda: 0.5 * (f.eval(interval.a) + f.eval(interval.b)))),
    ]
    return _finish("classic_hh", terms, tolerance, quad_tol)


def eval_dragomir_mond(f: Expr, interval: Interval,
                       quad_tol: float = DEFAULT_QUAD_TOL,
                       tolerance: float = DEFAULT_CHAIN_TOL) -> ChainReport:
    """Six-term chain for positive f, ordered from the midpoint value up to
    the arithmetic mean of the endpoint values."""
    _require_positivity(f, interval, "dragomir_mond integrand")
    a, b = interval.a, interval.b
    center = a + b
    fa = _positive_point(f, a, "f(a)")
    fb = _positive_point(f, b, "f(b)")
    terms = [
        ("f_at_midpoint", _term("f_at_midpoint", lambda: f.eval(interval.midpoint))),
        ("exp_mean_log_f",
         _term("exp_mean_log_f", lambda: float(np.exp(mean_value(
             lambda xs: np.log(_positive_vals(f, xs, "f(x)")), interval, quad_tol))))),
        ("mean_geometric_reflected",
         _term("mean_geometric_reflected",
               lambda: mean_value(_geometric_reflected(f, center), interval, quad_tol))),
        ("integral_mean_f",
         _term("integral_mean_f", lambda: mean_value(f.eval_array, interval, quad_tol))),
        ("log_mean_endpoints",
         _term("log_mean_endpoints", lambda: logarithmic(PositivePair(fa, fb)))),
        ("arithmetic_mean_endpoints",
         _term("arithmetic_mean_endpoints", lambda: arithmetic(PositivePair(fa, fb)))),
    ]
    return _finish("dragomir_mond", terms, tolerance, quad_tol)


def _phi_endpoints(phi: PhiMap) -> tuple[float, float, Interval, tuple[str, ...]]:
    pa, pb = phi.at_a, phi.at_b
    if abs(pb - pa) < DEGENERATE_PHI_EPS:
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
    fpa = _positive_point(f, pa, "f(phi(a))")
    fpb = _positive_point(f, pb, "f(phi(b))")
    terms = [
        ("f_at_phi_midpoint",
         _term("f_at_phi_midpoint", lambda: f.eval(0.5 * center))),
        ("mean_geometric_reflected",
         _term("mean_geometric_reflected",
               lambda: mean_value(_geometric_reflected(f, center), span, quad_tol))),
        ("integral_mean_f",
         _term("integral_mean_f", lambda: mean_value(f.eval_array, span, quad_tol))),
        ("log_mean_phi_endpoints",
         _term("log_mean_phi_endpoints", lambda: logarithmic(PositivePair(fpb, fpa)))),
        ("arithmetic_mean_phi_endpoints",
         _term("arithmetic_mean_phi_endpoints",
               lambda: arithmetic(PositivePair(fpa, fpb)))),
    ]
    diagnostics = None
    if include_diagnostics:
        mean_arith = _term("mean_arithmetic_reflected", lambda: mean_value(
            _overflow_to_inf(lambda xs: 0.5 * (f.eval_array(xs) + f.eval_array(center - xs))),
            span, quad_tol))
        diagnostics = {"mean_arithmetic_reflected": mean_arith}
    return _finish("theorem1", terms, tolerance, quad_tol, diagnostics, notes)


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
    fpa = _positive_point(f, pa, "f(phi(a))")
    fpb = _positive_point(f, pb, "f(phi(b))")
    gpa = _positive_point(g, pa, "g(phi(a))")
    gpb = _positive_point(g, pb, "g(phi(b))")
    terms = [
        ("integral_mean_fg",
         _term("integral_mean_fg", lambda: mean_value(
             _overflow_to_inf(lambda xs: f.eval_array(xs) * g.eval_array(xs)),
             span, quad_tol))),
        ("log_mean_product_endpoints",
         _term("log_mean_product_endpoints",
               lambda: logarithmic(PositivePair(fpb * gpb, fpa * gpa)))),
        ("quarter_sum_log_mean_bound",
         _term("quarter_sum_log_mean_bound", lambda:
               0.25 * (fpb + fpa) * logarithmic(PositivePair(fpb, fpa))
               + 0.25 * (gpb + gpa) * logarithmic(PositivePair(gpb, gpa)))),
    ]
    diagnostics = None
    if include_diagnostics:
        half_sq = _term("half_mean_square_sum", lambda: 0.5 * mean_value(
            _overflow_to_inf(lambda xs: f.eval_array(xs) ** 2 + g.eval_array(xs) ** 2),
            span, quad_tol))
        diagnostics = {
            "half_mean_square_sum": half_sq,
            "half_mean_square_sum_minus_term2": half_sq - terms[1][1],
            "term3_minus_half_mean_square_sum": terms[2][1] - half_sq,
        }
    return _finish("theorem2", terms, tolerance, quad_tol, diagnostics, notes)
