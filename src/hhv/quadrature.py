"""Adaptive Simpson integration with per-panel Richardson error control.

Integrands are vectorized callables ``f(xs: ndarray) -> ndarray`` (an
``Expr.eval_array`` bound method, or any numpy-compatible function).
Panels that fail their local error budget are split breadth-first, which
keeps the refinement identical to the classical recursion while letting
each level evaluate the integrand in one batched call.

The open panels of a level form one table, a 7-row float array with one
column per panel: a, m, b, f(a), f(m), f(b) and the panel's Simpson
value.  All panels of a level share one error budget, since every split
halves it.  A level evaluates the quarter points of all panels in one
call and forms both half-panel Simpson values as one 2-row expression.
The next table is one stack of 2-row blocks, each a row of the left
children above the same row of the right children; the columns of the
rejected panels are kept and interleaved left, right.  A level may leave
at most ``MAX_OPEN_PANELS`` panels open, which bounds the memory of
integrands that keep refining everywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import MaxDepthExceeded, OpenPanelLimitExceeded, Overflow
from .expr import Interval

__all__ = ["QuadratureResult", "integrate", "mean_value"]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_DEPTH = 50
MAX_OPEN_PANELS = 2**16

Integrand = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def _eval(f: Integrand, xs: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(xs), dtype=float)
    if not np.isfinite(vals).all():
        i = int(np.argmin(np.isfinite(vals)))
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
    singularities fail loudly rather than returning a best effort), and
    its subclass :class:`~hhv.errors.OpenPanelLimitExceeded` if a level
    leaves more than ``MAX_OPEN_PANELS`` panels open.  Overflow in the
    integrand or in a Simpson sum raises :class:`~hhv.errors.Overflow`.
    """
    if not tol > 0:  # also rejects NaN
        raise ValueError(f"tolerance must be positive, got {tol}")
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = interval.a, interval.b
        xs0 = np.array([a, 0.5 * (a + b), b])
        f0 = _eval(f, xs0)
        evaluations = 3
        s_whole = (b - a) / 6.0 * (f0[0] + 4.0 * f0[1] + f0[2])
        table = np.array([a, xs0[1], b, *f0, s_whole])[:, None]
        # every panel of a level has the same budget
        budget = max(tol, tol * abs(s_whole))

        total = 0.0
        err_total = 0.0
        depth = 0
        while True:
            mids = 0.5 * (table[0:2] + table[1:3])  # rows lm, rm
            fmid = _eval(f, mids.ravel()).reshape(2, -1)
            evaluations += fmid.size
            halves = (table[1:3] - table[0:2]) / 6.0 * (table[3:5] + 4.0 * fmid + table[4:6])
            s2 = halves[0] + halves[1]
            err = (s2 - table[6]) / 15.0
            abs_err = np.abs(err)
            ok = abs_err <= budget
            accepted = np.count_nonzero(ok)
            if accepted:
                total += float(np.add.reduce((s2 + err)[ok]))
                err_total += float(np.add.reduce(abs_err[ok]))
            if accepted == ok.size:
                break
            if depth >= max_depth or ok.size - accepted > MAX_OPEN_PANELS:
                # a panel whose Simpson sum overflows never meets its budget;
                # sums are checked only here and in the total, not per level
                if not np.isfinite(s2).all():
                    raise Overflow()
                j = int(np.argmin(ok))  # the first open panel
                first = float(table[0, j]), float(table[2, j])
                if depth >= max_depth:
                    raise MaxDepthExceeded(*first, depth)
                raise OpenPanelLimitExceeded(*first, depth, MAX_OPEN_PANELS)
            # rows 2i and 2i + 1: row i of the left and of the right children
            children = np.concatenate((table[0:2], mids, table[1:3], table[3:5], fmid,
                                       table[4:6], halves)).reshape(7, 2, -1)
            table = children.compress(~ok, axis=2).transpose(0, 2, 1).reshape(7, -1)
            budget = budget / 2.0
            depth += 1
    if not np.isfinite(total):
        raise Overflow()
    return QuadratureResult(value=total, error_estimate=err_total, evaluations=evaluations)


def mean_value(
    f: Integrand,
    interval: Interval,
    tol: float = DEFAULT_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> float:
    """Integral mean of ``f`` over ``interval``."""
    return integrate(f, interval, tol, max_depth).value / interval.width
