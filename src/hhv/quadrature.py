"""Adaptive Gauss-Kronrod integration on bisected panels.

Integrands are vectorized callables ``f(xs: ndarray) -> ndarray`` (an
``Expr.eval_array`` bound method, or any numpy-compatible function).

Each panel is integrated by the QUADPACK ``qk15`` rule (Piessens et al.,
1983): the 15-point Kronrod extension K15 of the 7-point Gauss rule G7,
exact on polynomials of degree 22 and 13.  The rule is open, so it never
evaluates the interval's ends.  A panel's error bound is
``|K15 - G7| + 50*eps*M``, where ``M`` is K15 applied to ``|f|``: the second
term is the rounding floor, which ``|K15 - G7|`` does not see.

The budget is ``tol`` times the magnitude ``M`` of the whole interval, or
times ``min_magnitude`` when that is larger, or ``tol`` alone when both are
0; a panel's share of it is the budget times the panel's width over the
interval's.  Panels whose bound
exceeds their share are bisected breadth first: a level holds the open
panels of one depth, all of one width, and evaluates their 15 nodes each in
one integrand call.  A level evaluates at most ``MAX_OPEN_PANELS`` panels,
which bounds the memory of integrands that keep refining everywhere.  A
panel whose rounding floor alone exceeds its share ends the integration at
the level where it appears, since one of its children would exceed its own
share too.

The values are scaled by the panel's half-width before they are summed, so
a finite integral of finite values stays finite; a panel whose sums do not
raises :class:`~hhv.errors.Overflow` at the level where it appears.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import MaxDepthExceeded, OpenPanelLimitExceeded, Overflow
from .expr import Interval

__all__ = ["QuadratureResult", "integrate", "mean_value"]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_DEPTH = 50
MAX_OPEN_PANELS = 2**16
ROUNDING_FLOOR = 50 * np.finfo(float).eps

Integrand = Callable[[np.ndarray], np.ndarray]

# QUADPACK qk15 on [-1, 1]: the positive K15 abscissae, descending as QUADPACK
# lists them, each with its K15 weight and its G7 weight (0 off the G7 nodes);
# the rule is symmetric about the centre.  tests/test_quadrature.py checks
# every entry against mpmath.
_KRONROD = (
    (0.991455371120812639206854697526329, 0.022935322010529224963732008058970, 0.0),
    (0.949107912342758524526189684047851, 0.063092092629978553290700663189204,
     0.129484966168869693270611432679082),
    (0.864864423359769072789712788640926, 0.104790010322250183839876322541518, 0.0),
    (0.741531185599394439863864773280788, 0.140653259715525918745189590510238,
     0.279705391489276667901467771423780),
    (0.586087235467691130294144845693013, 0.169004726639267902826583426598550, 0.0),
    (0.405845151377397166906606412076961, 0.190350578064785409913256402421014,
     0.381830050505118944950369775488975),
    (0.207784955007898467600689403773245, 0.204432940075298892414161999234649, 0.0),
)
_CENTER = (0.0, 0.209482141084727828012999174891714, 0.417959183673469387755102040816327)
_TABLE = np.array([(-x, wk, wg) for x, wk, wg in _KRONROD] + [_CENTER]
                  + [(x, wk, wg) for x, wk, wg in reversed(_KRONROD)])
NODES = _TABLE[:, 0].copy()
KRONROD_WEIGHTS = _TABLE[:, 1].copy()
GAUSS_WEIGHTS = _TABLE[:, 2].copy()
# one product gives K15 and K15 - G7, another the rounding floor
_SUMS = np.stack((KRONROD_WEIGHTS, KRONROD_WEIGHTS - GAUSS_WEIGHTS), axis=1)
_FLOOR_WEIGHTS = ROUNDING_FLOOR * KRONROD_WEIGHTS
_TINY = float(np.finfo(float).tiny)  # the least normal float
for _table in (NODES, KRONROD_WEIGHTS, GAUSS_WEIGHTS, _SUMS, _FLOOR_WEIGHTS):
    _table.flags.writeable = False


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def _overflow(xs: np.ndarray, vals: np.ndarray) -> Overflow:
    """The error of a level whose bounds are not all finite: at the first
    non-finite integrand value, else in a panel sum."""
    finite = np.isfinite(vals)
    if finite.all():
        return Overflow()
    i = int(np.argmin(finite))
    return Overflow(x=float(xs[i]), index=i)


def integrate(
    f: Integrand,
    interval: Interval,
    tol: float = DEFAULT_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
    min_magnitude: float = 0.0,
) -> QuadratureResult:
    """Integrate ``f`` over ``interval`` to ``tol`` relative to ``∫|f|``.

    ``error_estimate`` is the sum of the accepted panels' bounds, at most
    ``tol * max(∫|f|, min_magnitude)``, with ``∫|f|`` as the rule estimates
    it on the whole interval (``tol`` when both are 0); ``evaluations``
    counts 15 per panel.  A caller whose integrand is known only to an
    absolute accuracy, such as ``ln f``, passes the magnitude that accuracy
    refers to as ``min_magnitude``.  Raises
    :class:`~hhv.errors.MaxDepthExceeded` if a panel of depth ``max_depth``
    (width ``(b - a) / 2**max_depth``) misses its share, or if a panel's
    rounding floor ``50*eps*M`` alone exceeds its share, while that share is
    a normal float, at that panel's depth: a ``tol`` below ``50*eps`` fails
    on the first call, and an integrable singularity fails loudly rather
    than returning a best effort.  Its
    subclass :class:`~hhv.errors.OpenPanelLimitExceeded` if the next level
    would hold more than ``MAX_OPEN_PANELS`` panels.  A non-finite integrand
    value or panel sum raises :class:`~hhv.errors.Overflow`.
    """
    if not 0 < tol < math.inf:  # also rejects NaN; inf would accept any first panel
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    centers = np.array([interval.midpoint])
    half = 0.5 * interval.b - 0.5 * interval.a  # halves first, as in Interval.midpoint
    budget = None
    total = err_total = 0.0
    evaluations = depth = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            xs = (centers[:, None] + half * NODES).ravel()
            vals = np.asarray(f(xs), dtype=float)
            evaluations += xs.size
            scaled = vals.reshape(-1, NODES.size) * half
            sums = scaled @ _SUMS
            floor = np.abs(scaled) @ _FLOOR_WEIGHTS
            err = np.abs(sums[:, 1]) + floor
            # a non-finite value of f makes its panel's bound non-finite too
            level_err = float(np.add.reduce(err))
            if not math.isfinite(level_err):
                raise _overflow(xs, vals)
            if budget is None:  # depth 0: tol times ∫|f| on the whole interval
                budget = tol * max(float(floor[0]) / ROUNDING_FLOOR, min_magnitude) or tol
            ok = err <= budget
            accepted = np.count_nonzero(ok)
            if accepted == ok.size:
                total += float(np.add.reduce(sums[:, 0]))
                err_total += level_err
                break
            # a panel whose rounding floor alone misses its share is never
            # accepted: its children's floors sum to about its own, on half
            # the share each, so one of them misses too.  A subnormal share
            # is rounded too coarsely for that, and the loop goes on.
            if budget >= _TINY and floor.max() > budget:
                i = int(np.argmax(floor > budget))
                raise MaxDepthExceeded(float(centers[i] - half), float(centers[i] + half), depth)
            if accepted:
                total += float(np.add.reduce(sums[ok, 0]))
                err_total += float(np.add.reduce(err[ok]))
            centers = centers[~ok]
            if depth >= max_depth or 2 * centers.size > MAX_OPEN_PANELS:
                first = float(centers[0] - half), float(centers[0] + half)
                if depth >= max_depth:
                    raise MaxDepthExceeded(*first, depth)
                raise OpenPanelLimitExceeded(*first, depth, MAX_OPEN_PANELS)
            half *= 0.5
            # the children of each open panel, left then right, in order
            centers = np.add.outer(centers, (-half, half)).ravel()
            budget *= 0.5
            depth += 1
    if not math.isfinite(total):
        raise Overflow()
    return QuadratureResult(value=total, error_estimate=err_total, evaluations=evaluations)


def mean_value(
    f: Integrand,
    interval: Interval,
    tol: float = DEFAULT_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
    min_magnitude: float = 0.0,
) -> float:
    """Integral mean of ``f`` over ``interval``; see :func:`integrate`."""
    return integrate(f, interval, tol, max_depth, min_magnitude).value / interval.width
