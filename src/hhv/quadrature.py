"""Adaptive Gauss-Kronrod integration on bisected panels.

Integrands are vectorized callables ``f(xs: ndarray) -> ndarray`` (an
``Expr.eval_array`` bound method, or any numpy-compatible function).

Each panel is integrated by the QUADPACK ``qk31`` rule (Piessens et al.,
1983): the 31-point Kronrod extension K31 of the 15-point Gauss rule G15,
exact on polynomials of degree 46 and 29.  The rule is open, so it never
evaluates the interval's ends.  A panel's error bound is
``|K31 - G15| + 50*eps*M``, where ``M`` is K31 applied to ``|f|``: the second
term is the rounding floor, which ``|K31 - G15|`` does not see.

The budget is ``tol`` times the magnitude ``M`` of the whole interval, or
times ``min_magnitude`` when that is larger, or ``tol`` alone when both are
0; a panel's share of it is the budget times the panel's width over the
interval's.  Panels whose bound exceeds their share are bisected breadth
first: a level holds the open panels of one depth, all of one width, and
evaluates their 31 nodes each in one integrand call.  A level evaluates at
most ``MAX_OPEN_PANELS`` panels, about a million points, which bounds the
memory of integrands that keep refining everywhere.  A panel whose rounding
floor alone exceeds its share ends the integration at the level where it
appears, since one of its children would exceed its own share too.

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
MAX_OPEN_PANELS = 2**15
ROUNDING_FLOOR = 50 * np.finfo(float).eps

Integrand = Callable[[np.ndarray], np.ndarray]

# QUADPACK qk31 on [-1, 1]: the positive K31 abscissae, descending as QUADPACK
# lists them, each with its K31 weight and its G15 weight (0 off the G15
# nodes); the rule is symmetric about the centre.  tests/test_quadrature.py
# checks every entry against mpmath.
_KRONROD = (
    (0.998002298693397060285172840152271, 0.005377479872923348987792051430128, 0.0),
    (0.987992518020485428489565718586613, 0.015007947329316122538374763075807,
     0.030753241996117268354628393577204),
    (0.967739075679139134257347978784337, 0.025460847326715320186874001019653, 0.0),
    (0.937273392400705904307758947710209, 0.035346360791375846222037948478360,
     0.070366047488108124709267416450667),
    (0.897264532344081900882509656454496, 0.044589751324764876608227299373280, 0.0),
    (0.848206583410427216200648320774217, 0.053481524690928087265343147239430,
     0.107159220467171935011869546685869),
    (0.790418501442465932967649294817947, 0.062009567800670640285139230960803, 0.0),
    (0.724417731360170047416186054613938, 0.069854121318728258709520077099147,
     0.139570677926154314447804794511028),
    (0.650996741297416970533735895313275, 0.076849680757720378894432777482659, 0.0),
    (0.570972172608538847537226737253911, 0.083080502823133021038289247286104,
     0.166269205816993933553200860481209),
    (0.485081863640239680693655740232351, 0.088564443056211770647275443693774, 0.0),
    (0.394151347077563369897207370981045, 0.093126598170825321225486872747346,
     0.186161000015562211026800561866423),
    (0.299180007153168812166780024266389, 0.096642726983623678505179907627589, 0.0),
    (0.201194093997434522300628303394596, 0.099173598721791959332393173484603,
     0.198431485327111576456118326443839),
    (0.101142066918717499027074231447392, 0.100769845523875595044946662617570, 0.0),
)
_CENTER = (0.0, 0.101330007014791549017374792767493, 0.202578241925561272880620199967519)
_TABLE = np.array([(-x, wk, wg) for x, wk, wg in _KRONROD] + [_CENTER]
                  + [(x, wk, wg) for x, wk, wg in reversed(_KRONROD)])
NODES = _TABLE[:, 0].copy()
KRONROD_WEIGHTS = _TABLE[:, 1].copy()
GAUSS_WEIGHTS = _TABLE[:, 2].copy()
# one product gives K31 and K31 - G15, another the rounding floor
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
    counts 31 per panel.  A caller whose integrand is known only to an
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
