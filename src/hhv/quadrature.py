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

The first call evaluates the integrand on all ``2**(k+1) + 1`` points of
the interval's halving grid, ``k = min(FIRST_CALL_DEPTH, max_depth)``,
each point built with the loop's own ``0.5*x + 0.5*y`` from its
neighbours, so every abscissa is the one the loop computes.  One
vectorized pass runs the loop's Richardson test on every panel of depth
below ``k``, and the loop starts at the first depth ``d`` with an
accepted panel: below ``d`` the loop would visit every panel and accept
none, so it holds the complete table of depth ``d`` there, and below
``k`` the grid already holds that level's quarter points.  Values, error
estimates, evaluation counts and errors are those of the loop started at
depth 0.  ``evaluations`` counts only the points the estimate rests on;
grid points that no visited panel uses are not counted.  If the first
call raises anything, integration starts from ``[a, m, b]`` as the loop
does, so every error is raised by the call that meets it there.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import MaxDepthExceeded, OpenPanelLimitExceeded, Overflow
from .expr import Interval

__all__ = ["QuadratureResult", "integrate", "mean_value"]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_DEPTH = 50
MAX_OPEN_PANELS = 2**16
FIRST_CALL_DEPTH = 5

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


def _halving_grid(a: float, b: float, k: int) -> np.ndarray:
    """The ``2**(k+1) + 1`` ends and midpoints of the panels of depths 0..k."""
    n = 2 ** (k + 1)
    grid = np.empty(n + 1)
    grid[0], grid[n] = a, b
    step = n
    while step > 1:  # halves first, as in the loop and Interval.midpoint
        half = 0.5 * grid[::step]
        np.add(half[:-1], half[1:], out=grid[step // 2::step])
        step //= 2
    return grid


@lru_cache(maxsize=8)
def _panels(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid indices of a, m and b (rows) of every panel of depths 0..k,
    breadth first, so that panel t has children 2t + 1 and 2t + 2; and the
    panel count of each depth below k."""
    n = 2 ** (k + 1)
    a = np.concatenate([np.arange(0, n, n >> j) for j in range(k + 1)])
    w = np.concatenate([np.full(2**j, n >> j) for j in range(k + 1)])
    idx, counts = np.stack((a, a + w // 2, a + w)), 2 ** np.arange(k)
    idx.flags.writeable = counts.flags.writeable = False
    return idx, counts


def _first_level(grid: np.ndarray, fgrid: np.ndarray, tol: float, k: int):
    """``(table, fmid, budget, depth)`` of the loop at the first depth below
    ``k`` that accepts a panel, else at depth ``k``; ``fmid`` is that level's
    quarter-point values when the grid holds them, else ``None``."""
    idx, counts = _panels(k)
    xs, fs = grid[idx], fgrid[idx]
    simpson = (xs[2] - xs[0]) / 6.0 * (fs[0] + 4.0 * fs[1] + fs[2])
    budgets = [max(tol, tol * abs(simpson[0]))]  # one per depth, as in the loop
    for _ in range(k):
        budgets.append(budgets[-1] / 2.0)
    # rows 1::2 and 2::2 are the left and right children of rows :2**k - 1
    err = (simpson[1::2] + simpson[2::2] - simpson[:2**k - 1]) / 15.0
    accepted = (np.abs(err) <= np.repeat(budgets[:k], counts)).nonzero()[0]
    depth = int(accepted[0] + 1).bit_length() - 1 if accepted.size else k
    lo, hi = 2**depth - 1, 2 ** (depth + 1) - 1
    table = np.concatenate((xs[:, lo:hi], fs[:, lo:hi], simpson[None, lo:hi]))
    fmid = fs[1, 2 * lo + 1:2 * hi + 1].reshape(-1, 2).T if depth < k else None
    return table, fmid, budgets[depth], depth


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
        k = min(FIRST_CALL_DEPTH, max(max_depth, 0))
        grid = _halving_grid(interval.a, interval.b, k)
        try:
            # a division by zero where the loop may never go must not warn
            with np.errstate(divide="raise"):
                fgrid = _eval(f, grid)
        except Exception:
            # at a point the loop may never visit: start over from [a, m, b]
            # under the caller's errstate, outside this block, so that the
            # error is neither kept nor chained
            fgrid = None
        if fgrid is None:
            k = 0
            grid = _halving_grid(interval.a, interval.b, k)
            fgrid = _eval(f, grid)
        table, fmid, budget, depth = _first_level(grid, fgrid, tol, k)
        evaluations = 2 ** (depth + 1) + 1

        total = 0.0
        err_total = 0.0
        while True:
            # rows lm, rm; halves first, as in Interval.midpoint
            half = 0.5 * table[0:3]
            mids = half[0:2] + half[1:3]
            if fmid is None:
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
            fmid = None
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
