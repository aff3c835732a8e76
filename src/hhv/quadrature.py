"""Adaptive Simpson integration with per-panel Richardson error control.

Integrands are vectorized callables ``f(xs: ndarray) -> ndarray`` (an
``Expr.eval_array`` bound method, or any numpy-compatible function).
Panels that fail their local error budget are split breadth-first, which
keeps the refinement identical to the classical recursion while letting
each level evaluate the integrand in one batched call.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import MaxDepthExceeded, Overflow
from .expr import Interval

__all__ = ["QuadratureResult", "integrate", "mean_value"]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_DEPTH = 50

Integrand = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def _eval(f: Integrand, xs: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(xs), dtype=float)
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.argmax(bad))
        raise Overflow(x=float(xs[i]), index=i)
    return vals


def integrate(
    f: Integrand,
    interval: Interval,
    tol: float = DEFAULT_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> QuadratureResult:
    """Integrate ``f`` over ``interval`` to absolute-or-relative tolerance.

    The effective budget is ``max(tol, tol * |I|)`` where ``I`` is the
    first whole-interval Simpson estimate; each split halves a panel's
    budget.  Raises :class:`~hhv.errors.MaxDepthExceeded` if some panel
    still misses its budget at ``max_depth`` (integrable endpoint
    singularities fail loudly rather than returning a best effort).
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    a, b = interval.a, interval.b
    xs0 = np.array([a, 0.5 * (a + b), b])
    f0 = _eval(f, xs0)
    evaluations = 3
    s_whole = (b - a) / 6.0 * (f0[0] + 4.0 * f0[1] + f0[2])
    budget0 = max(tol, tol * abs(s_whole))

    # parallel arrays describing all panels at the current depth
    pa = np.array([a])
    pm = np.array([xs0[1]])
    pb = np.array([b])
    fa = f0[0:1]
    fm = f0[1:2]
    fb = f0[2:3]
    s = np.array([s_whole])
    budget = np.array([budget0])

    total = 0.0
    err_total = 0.0
    depth = 0
    while pa.size:
        lm = 0.5 * (pa + pm)
        rm = 0.5 * (pm + pb)
        fnew = _eval(f, np.concatenate([lm, rm]))
        evaluations += fnew.size
        flm = fnew[: lm.size]
        frm = fnew[lm.size:]
        s_left = (pm - pa) / 6.0 * (fa + 4.0 * flm + fm)
        s_right = (pb - pm) / 6.0 * (fm + 4.0 * frm + fb)
        s2 = s_left + s_right
        err = (s2 - s) / 15.0
        ok = np.abs(err) <= budget
        total += float(np.sum((s2 + err)[ok]))
        err_total += float(np.sum(np.abs(err)[ok]))
        if not ok.all():
            if depth >= max_depth:
                j = int(np.argmax(~ok))
                raise MaxDepthExceeded(float(pa[j]), float(pb[j]), depth)
            keep = ~ok
            pa, pm, pb, fa, fm, fb, s = (
                _interleave(pa[keep], pm[keep]),
                _interleave(lm[keep], rm[keep]),
                _interleave(pm[keep], pb[keep]),
                _interleave(fa[keep], fm[keep]),
                _interleave(flm[keep], frm[keep]),
                _interleave(fm[keep], fb[keep]),
                _interleave(s_left[keep], s_right[keep]),
            )
            budget = _interleave(budget[keep] / 2.0, budget[keep] / 2.0)
            depth += 1
        else:
            break
    return QuadratureResult(value=total, error_estimate=err_total, evaluations=evaluations)


def _interleave(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    out = np.empty(2 * len(left))
    out[0::2] = left
    out[1::2] = right
    return out


def mean_value(
    f: Integrand,
    interval: Interval,
    tol: float = DEFAULT_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> float:
    """Integral mean of ``f`` over ``interval``."""
    return integrate(f, interval, tol, max_depth).value / interval.width
