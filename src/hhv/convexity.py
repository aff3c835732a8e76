"""Sampling-based certifiers for convexity classes and their margins.

Each certifier evaluates the defining inequality of its class on a
deterministic set of (x, y, t) triples unioned with counter-based
pseudo-random triples, reports the minimum signed margin (right side
minus left side), and returns the smallest-index witness on violation.
A positive verdict is always ``holds_on_samples``; sampling cannot prove
a universally quantified inequality.  The deterministic triples are the
dyadic second differences of one fine grid, Jensen's midpoint test at
every point and every power-of-two half-width, plus the widest chord at
every t of the plan's t axis (:class:`SampleSet`).  In exact arithmetic a
grid whose adjacent second differences are non-negative is convex, so
every chord between its points holds; f runs once per grid point.

The φ classes are the plain classes on the range of φ.  For a continuous
φ the pairs (φ(x), φ(y)) with x, y in D cover φ(D)², so f is (log-)φ-convex
on D exactly when f is (log-)convex on the interval φ(D).  Their certifiers
sample [min φ, max φ] over the grid on which :class:`PhiMap` checks φ at
construction, run the one margin engine there without φ, and map each
witness back into D (:meth:`PhiMap.preimage`).  A φ that jumps between
grid points has a range wider than φ(D); where φ misses an end of the
witness, the class is certified on the plan over D instead, with f at the
images of the sample ends under φ.  One function, :func:`_on_range`, runs
this protocol for the φ certifiers and the implication chain.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import EvalError, PhiRangeViolated, PositivityViolated
from .expr import Expr, Interval, Var, check_positive, grid, parse

__all__ = [
    "SamplePlan", "SampleSet", "SampleTriple", "PhiMap", "ConvexityReport",
    "LinkCheck", "ImplicationLatticeReport", "EquivalenceReport",
    "VERDICT_HOLDS", "VERDICT_VIOLATED",
    "check_convex", "check_log_convex", "check_phi_convex",
    "check_log_phi_convex", "check_log_phi_midconvex",
    "check_implication_chain",
    "check_log_phi_chord_equivalence", "check_phi_chord_equivalence",
]

VERDICT_HOLDS = "holds_on_samples"
VERDICT_VIOLATED = "violated"

DEFAULT_TOLERANCE = 1e-9
MAX_SAMPLES = 2**22
POSITIVITY_GRID = 257
PHI_GRID = 257

_MASK64 = (1 << 64) - 1
_STREAM_TRIPLES = 0x7472_6970  # distinct Philox streams per purpose
_STREAM_PAIRS = 0x7061_6972

_UNIT = Interval(0.0, 1.0)


@lru_cache(maxsize=1)
def _key_sequence() -> type:
    """The seed sequence that hands ``np.random.Philox`` the two words of its
    key as they are.

    ``Philox(key=...)`` would first draw an unused seed sequence from OS
    entropy, which costs more than the rest of building the stream.  The
    type is made on the first draw: importing ``numpy.random`` costs a
    process that never draws, such as one that only runs chains, about
    8 ms and 2 MB.
    """
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            assert (n_words, np.dtype(dtype)) == (2, np.uint64), (n_words, dtype)
            return self.words

    return Key


def _philox(seed: int, stream: int) -> np.random.Generator:
    # a uint64 array keeps each key word exact; numpy would turn a list that
    # holds a word >= 2**63 into float64.  operator.index turns a numpy
    # integer into the equal int, whose two's-complement word the mask takes
    key = np.array([operator.index(seed) & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_key_sequence()(key)))


# ----------------------------- plans and reports -----------------------------

@dataclass(frozen=True)
class SamplePlan:
    """The sizes of a sample set: its fine grid, its t axis and its count of
    seeded pseudo-random triples.

    The fine grid has n = (x_points - 1)*(t_points - 1) steps, and its dyadic
    second differences are the set's midpoint triples.  The t axis, which
    must be odd so that it holds 0, 1/2 and 1, is crossed with the widest
    chord (b, a).  Random triples come from a counter-based generator keyed
    on (seed, index), so a larger ``random_count`` extends rather than
    reshuffles the set.  A plan holds at most ``MAX_SAMPLES`` triples
    (:attr:`size`), so that its arrays fit in memory.  Every field is an
    integer, stored as ``operator.index`` gives it: a numpy integer becomes
    the equal int, and a fraction raises ``TypeError``.
    """

    x_points: int = 33
    t_points: int = 17
    random_count: int = 4096
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("x_points", "t_points", "random_count", "seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.x_points < 2:
            raise ValueError(f"x_points must be >= 2, got {self.x_points}")
        if self.t_points < 3 or self.t_points % 2 == 0:
            raise ValueError(f"t_points must be odd and >= 3, got {self.t_points}")
        if self.random_count < 0:
            raise ValueError(f"random_count must be >= 0, got {self.random_count}")
        if self.size > MAX_SAMPLES:
            raise ValueError(f"sample plan holds {self.size} triples, more than {MAX_SAMPLES}")

    @property
    def size(self) -> int:
        """The count of triples: the differences of the grid of n steps, which
        are n - 2k + 1 for each of the j dyadic k with 2k <= n, so
        j*(n + 1) - 2*(2**j - 1) in all; the span row; the random triples."""
        n = (self.x_points - 1) * (self.t_points - 1)
        j = n.bit_length() - 1
        return j * (n + 1) - 2 * (2**j - 1) + self.t_points + self.random_count

    def samples(self, interval: Interval) -> "SampleSet":
        """The sample set over ``interval``, stored factored, its arrays read-only.

        The last set built is kept and handed out again, so the trials of a
        search, which share the plan and the domain, build it once; the
        random draw is kept per plan, so a set over another interval costs
        only its affine map and its mixes.
        """
        return _samples(self, interval.a, interval.b)


@dataclass(frozen=True)
class SampleTriple:
    x: float
    y: float
    t: float


class SampleSet(NamedTuple):
    """Sample triples stored factored: a fine grid and a t axis, then flat triples.

    With n = len(fine) - 1, the triples, in order, are:

    * the grid's dyadic second differences, each the triple
      (fine[c - k], fine[c + k], 1/2) for k = 1, 2, 4, ... with 2k <= n, k
      ascending and then c (:func:`_differences`); its mix is fine[c];
    * the span row, (fine[n], fine[0], gt[j]) for every j;
    * every (rx[m], ry[m], rt[m]).

    ``points`` are the points f runs on, read-only: the fine grid, the span
    row's mixes, the random x, the random y, the random mixes; ``rx``,
    ``ry`` and a drawn set's ``fine`` are views of them.  Every set is built
    with its points, drawn (:func:`_draw_samples`) or flat
    (:func:`_flat_set`); a flat set, such as the chord check's direct side,
    has an empty grid and t axis.
    """

    fine: np.ndarray
    gt: np.ndarray
    rx: np.ndarray
    ry: np.ndarray
    rt: np.ndarray
    points: np.ndarray

    @property
    def size(self) -> int:
        return len(_differences(len(self.fine))[0]) + len(self.gt) + len(self.rx)

    def flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every triple's x, y, t and mix, in order, read from the set's points."""
        x, y, t, mix = (np.empty(self.size) for _ in range(4))
        for bt, bx, by, bmix, at in _blocks(self):
            x[at], y[at], t[at], mix[at] = self.points[bx], self.points[by], bt, self.points[bmix]
        return x, y, t, mix

    def point(self, i: int) -> SampleTriple:
        """The triple at index ``i``, read from its block without :meth:`flat`."""
        lo, _, hi = _differences(len(self.fine))
        i = range(len(lo) + len(self.gt) + len(self.rx))[i]
        if i < len(lo):
            return SampleTriple(float(self.fine[lo[i]]), float(self.fine[hi[i]]), 0.5)
        i -= len(lo)
        if i < len(self.gt):
            return SampleTriple(float(self.fine[-1]), float(self.fine[0]), float(self.gt[i]))
        i -= len(self.gt)
        return SampleTriple(float(self.rx[i]), float(self.ry[i]), float(self.rt[i]))


def _samples(plan: SamplePlan, a: float, b: float, pinned: bool = False) -> SampleSet:
    """The sample set of ``plan`` over [a, b]; a == b puts every point at a.
    ``pinned`` puts every t of the span row and the random triples at 1/2,
    as the midconvex class reads them."""
    # -0.0 == 0.0 as a memo key; the ends' signs tell the two apart
    return _draw_samples(plan, a, b, pinned, math.copysign(1.0, a), math.copysign(1.0, b))


@lru_cache(maxsize=1)
def _unit_draw(plan: SamplePlan) -> np.ndarray:
    """The plan's random triples on the unit cube, read-only."""
    u = _philox(plan.seed, _STREAM_TRIPLES).random((plan.random_count, 3))
    u.flags.writeable = False
    return u


# one entry: a search needs no more, and more would raise certify's peak memory
@lru_cache(maxsize=1)
def _draw_samples(plan: SamplePlan, a: float, b: float, pinned: bool,
                  *_signs: float) -> SampleSet:
    u = _unit_draw(plan)
    n, span, r = (plan.x_points - 1) * (plan.t_points - 1) + 1, plan.t_points, plan.random_count
    points = np.empty(n + span + 3 * r)
    fine, rx, ry = points[:n], points[n + span:n + span + r], points[n + span + r:n + span + 2 * r]
    for out, unit in ((fine, _unit_grid(n - 1)), (rx, u[:, 0]), (ry, u[:, 1])):
        np.multiply(unit, b - a, out=out)
        out += a  # a + (b - a)*unit
    fine[-1] = b
    if pinned:
        gt, rt = np.full(span, 0.5), np.full(r, 0.5)
    else:
        # rt contiguous, for numpy's faster loops; the values are unchanged
        gt, rt = _unit_grid(span - 1), np.ascontiguousarray(u[:, 2])
    return _write_mixes(SampleSet(fine, gt, rx, ry, rt, points))


def _flat_set(x: np.ndarray, y: np.ndarray, t: np.ndarray) -> SampleSet:
    """The triples (x[m], y[m], t[m]) as a set with an empty grid and t axis,
    its points laid out as a drawn set's random block: x, y, then the mixes.
    Its arrays, ``t`` too, are read-only."""
    r = len(t)
    points = np.empty(3 * r)
    points[:r] = x
    points[r:2 * r] = y
    none = np.empty(0)
    return _write_mixes(SampleSet(none, none, points[:r], points[r:2 * r], t, points))


@lru_cache(maxsize=8)
def _unit_grid(n: int) -> np.ndarray:
    """The floats nearest m/n, m = 0, ..., n, read-only and shared: a plan's t
    axis for n = t_points - 1, which then holds 0, 1/2 and 1 exactly, and
    the steps of its fine grid."""
    grid = np.arange(n + 1) / n
    grid.flags.writeable = False
    return grid


@lru_cache(maxsize=8)
def _differences(points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only indices (lo, mid, hi) = (c - k, c, c + k) of the dyadic second
    differences of a grid of ``points`` points, for k = 1, 2, 4, ... with
    2k <= points - 1, k ascending and then c; empty for an empty grid."""
    ks = [1 << j for j in range(max(points - 1, 1).bit_length() - 1)]
    none = [np.empty(0, np.intp)]
    mid = np.concatenate([np.arange(k, points - k) for k in ks] + none)
    half = np.concatenate([np.full(points - 2 * k, k) for k in ks] + none)
    out = mid - half, mid, mid + half
    for idx in out:
        idx.flags.writeable = False
    return out


@dataclass(frozen=True)
class PhiMap:
    """A deformation map together with the domain it must map into itself.

    Self-mapping is checked at construction on a fixed grid of ``PHI_GRID``
    points, and only there.  A value may lie outside the domain by
    :attr:`slack`, rounding at the size of the ends, so that maps
    whose range touches an endpoint survive it on a domain of any scale.
    The least and the greatest value on the grid are kept as ``range``, the
    interval the φ classes are certified on; a constant φ gives a range of
    width 0.
    """

    phi: Expr
    domain: Interval
    # [min, max] of phi on the grid; the grid's values are not kept: a
    # benchmark pass holds hundreds of maps at once, and keeping them raised
    # its peak memory
    range: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        grid, vals = self._on_grid()
        self._require_in_domain(grid, vals)
        object.__setattr__(self, "range", (float(vals.min()), float(vals.max())))

    def _on_grid(self) -> tuple[np.ndarray, np.ndarray]:
        xs = grid(self.domain.a, self.domain.b, PHI_GRID)
        return xs, self.phi.eval_array(xs)

    @property
    def slack(self) -> float:
        """Rounding at the size of the domain's ends, ``1e-9 * max(|a|, |b|)``."""
        return 1e-9 * max(abs(self.domain.a), abs(self.domain.b))

    def _require_in_domain(self, xs: np.ndarray, vals: np.ndarray) -> None:
        slack = self.slack
        bad = (vals < self.domain.a - slack) | (vals > self.domain.b + slack)
        if bad.any():
            i = int(np.argmax(bad))
            raise PhiRangeViolated(float(xs[i]), float(vals[i]), self.domain.a, self.domain.b)

    @staticmethod
    def identity(domain: Interval) -> "PhiMap":
        return PhiMap(parse("x"), domain)

    @property
    def at_a(self) -> float:
        return self.phi.eval(self.domain.a)

    @property
    def at_b(self) -> float:
        return self.phi.eval(self.domain.b)

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        vals = self.phi.eval_array(xs)
        self._require_in_domain(np.asarray(xs, dtype=float), vals)
        return vals

    def preimage(self, us) -> tuple[np.ndarray, np.ndarray]:
        """For each u of :attr:`range`, a point x of the domain with φ(x) = u,
        or, where rounding leaves no such float, one of the two neighbouring
        floats that bracket u, the one whose φ is nearer; and |φ(x) - u|,
        which is 0 where φ hits u and the size of the jump where φ jumps over u.

        The bracket is the first one along the construction grid, evaluated
        again, so x is the smallest such point the grid can tell apart.  Each
        round evaluates φ once for all u, at ``_UNIFORM`` points across each
        bracket and at ``_STEPS`` ulp offsets around its secant point, and
        keeps the first sub-bracket; the rounds end when every bracket is
        closed (φ hits u at an end, or no float lies inside), or after
        ``_PREIMAGE_ROUNDS``.  The secant point settles a smooth φ in about
        three rounds and the identity in one; the uniform points shrink any
        bracket ``len(_UNIFORM) + 1`` times per round.  A bracket that is
        still open after ``_PREIMAGE_ROUNDS`` gives its nearer end, and the
        miss is that end's |φ(x) - u|: for ``1*x`` on [-0.5, 0.5], u = -1e-100
        lies far below the scale of the rounds, and x is -8.3e-317 with miss
        1e-100, although x = u would hit.  A bracket on which φ cannot be
        evaluated stays as it is.  For φ the bare variable, x is u
        itself, clipped to the range, with no round, as the rounds find it:
        a zero is 0.0, or -0.0 where the domain ends at -0.0.
        """
        lo, hi = self.range
        us = np.minimum(np.maximum(np.asarray(us, dtype=float), lo), hi)
        if isinstance(self.phi.root, Var):
            # 0.0*hi is -0.0 only where hi is -0.0, or below 0, where no u is 0
            return np.where(us == 0, 0.0 * hi, us), np.zeros(len(us))
        us = us[:, None]
        grid, vals = self._on_grid()
        xs = np.broadcast_to(grid, (len(us), PHI_GRID))
        d = vals - us
        for _ in range(_PREIMAGE_ROUNDS):
            (a, b), (da, db) = _first_crossing(xs, d)
            if not ((da != 0) & (db != 0) & (np.nextafter(a, b) < b)).any():
                break
            # da and db differ in sign unless one is 0, and then the secant is that end
            secant = a - da * ((b - a) / np.where(db == da, 1.0, db - da))
            inner = np.concatenate([a + (b - a) * _UNIFORM, secant + np.spacing(secant) * _STEPS],
                                   axis=1)
            inner = np.sort(np.minimum(np.maximum(inner, a), b), axis=1)
            try:
                vals = self.phi.eval_array(inner.ravel()).reshape(inner.shape)
            except EvalError:
                break
            xs = np.concatenate([a, inner, b], axis=1)
            d = np.concatenate([da, vals - us, db], axis=1)
        else:
            (a, b), (da, db) = _first_crossing(xs, d)
        nearer = np.abs(da) <= np.abs(db)
        return (np.where(nearer, a, b).ravel(),
                np.where(nearer, np.abs(da), np.abs(db)).ravel())


_PREIMAGE_ROUNDS = 8
_UNIFORM = np.linspace(0.0, 1.0, 33)[1:-1]
# 0 and +-2**j ulps, j < 25: a secant point within 2**24 ulps of the root
# brackets it to within twice its error
_STEPS = np.concatenate([-(2.0 ** np.arange(24, -1, -1)), [0.0], 2.0 ** np.arange(25)])


def _first_crossing(xs: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ascending ``xs`` with ``d`` = φ(xs) - u, where d is 0 or
    changes sign somewhere: the first pair of neighbours where it does, as
    columns (lo, hi) of xs and of d."""
    sign = np.sign(d)
    k = np.argmax(sign[:, :-1] * sign[:, 1:] <= 0, axis=1)[:, None]
    rows = np.arange(len(d))[:, None]
    return (xs[rows, k], xs[rows, k + 1]), (d[rows, k], d[rows, k + 1])


@dataclass(frozen=True)
class ConvexityReport:
    class_checked: str
    verdict: str  # VERDICT_HOLDS | VERDICT_VIOLATED
    samples_tested: int
    min_margin: float
    witness: SampleTriple | None
    tolerance: float
    failure_kind: str | None = None  # "inequality" | "domain" | None
    failure_detail: str | None = None


@dataclass(frozen=True)
class LinkCheck:
    name: str
    verdict: str
    min_margin: float
    witness: SampleTriple | None


@dataclass(frozen=True)
class ImplicationLatticeReport:
    links: tuple[LinkCheck, ...]
    samples_tested: int
    tolerance: float

    @property
    def verdict(self) -> str:
        if all(link.verdict == VERDICT_HOLDS for link in self.links):
            return VERDICT_HOLDS
        return VERDICT_VIOLATED


@dataclass(frozen=True)
class EquivalenceReport:
    """The two sides of a chord check.

    ``pairs_tested`` counts the pairs drawn, each of which the direct side
    tests; the segment side stops at its first violated pair.  A
    disagreement names that pair, the first whose chord map g is violated.
    """

    kind: str  # "log_phi" | "phi"
    agree: bool
    pairs_tested: int
    direct_verdict: str
    segment_verdict: str
    disagreeing_pair: tuple[float, float] | None
    seed: int


# ----------------------------- margin engine ---------------------------------

class _Segment:
    """t -> f(t*u + (1-t)*v), the restriction of f to a deformed chord.

    ``unit`` is ``(ts, 1 - ts)`` for the points most calls run on, the
    chord check's unit set, whose ``1 - ts`` is then not computed again."""

    def __init__(self, f, u: float, v: float, unit: tuple | None = None):
        self.f = f
        self.u = float(u)
        self.v = float(v)
        self.unit = unit

    def eval_array(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        rest = self.unit[1] if self.unit is not None and ts is self.unit[0] else None
        return self.f.eval_array(_chord(ts, self.u, self.v, rest=rest))


def _require_positive_values(vals: np.ndarray, points: np.ndarray, label="f") -> np.ndarray:
    bad = ~(vals > 0)
    if bad.any():
        i = int(np.argmax(bad))
        raise PositivityViolated(float(points[i]),
                                 f"{label} = {float(vals[i])!r} is not positive")
    return vals


def _chord(t, u, v, out=None, rest=None):
    """t*u + (1-t)*v, into ``out`` when given; ``rest`` is 1 - t, if known."""
    if rest is None:
        rest = 1.0 - t
        rest *= v
    else:
        rest = rest * v
    out = np.multiply(t, u, out=out)
    out += rest
    return out


def _blocks(samples: SampleSet) -> tuple[tuple, tuple, tuple]:
    """``(t, x, y, mix, at)`` for the differences, the span row and the random
    triples: the block's t, the indices of its x, y and mix in the set's
    points (:func:`_differences`, then slices; the span row's x and y are one
    point each), and its slice of the triples.  Each value per triple is
    written into its block's slice of one array, by the arithmetic of flat
    triples, so it is the same float."""
    n, span, r = len(samples.fine), len(samples.gt), len(samples.rx)
    lo, mid, hi = _differences(n)
    d, e = len(lo), n + span
    return ((0.5, lo, hi, mid, slice(0, d)),
            (samples.gt, slice(n - 1, n), slice(0, 1), slice(n, e), slice(d, d + span)),
            (samples.rt, slice(e, e + r), slice(e + r, e + 2 * r), slice(e + 2 * r, e + 3 * r),
             slice(d + span, d + span + r)))


def _write_mixes(samples: SampleSet) -> SampleSet:
    """``samples`` with the mixes t*x + (1-t)*y of the span row and the random
    triples written into its points, and every array of it read-only: the
    callers of a memo share them.  A degenerate chord's mix is its end, as on
    the fine grid, where t*x + (1-t)*x may round off x."""
    points = samples.points
    for t, x, y, mix, _ in _blocks(samples)[1:]:
        _chord(t, points[x], points[y], points[mix])
        np.copyto(points[mix], points[x], where=points[x] == points[y])
    for arr in samples:
        arr.flags.writeable = False
    return samples


def _values(f, samples: SampleSet, log_space: bool) -> np.ndarray:
    """f at the set's points in one call of ``f.eval_array``.

    Raises what evaluating f over the flat triples raises first: f at every
    x, then every y, then every mix, an EvalError's index the triple's; then,
    in log space, the first value in that order that is not positive.  Only
    that failure path evaluates the flat triples.
    """
    try:
        vals = f.eval_array(samples.points)
        if not log_space or (vals > 0).all():
            return vals
    except EvalError:
        pass
    x, y, _, mix = samples.flat()
    flat = x, y, mix
    vals = [f.eval_array(at) for at in flat]
    for v, at in zip(vals, flat):
        if log_space:
            _require_positive_values(v, at)
    raise AssertionError("every point of a set is an end or a mix of its triples")


def _chords(samples: SampleSet, v: np.ndarray) -> np.ndarray:
    """t*v(x) + (1-t)*v(y) for every triple, from v at the set's points."""
    out = np.empty(samples.size)
    for t, x, y, _, at in _blocks(samples):
        _chord(t, v[x], v[y], out[at])
    return out


def _less_mixes(samples: SampleSet, v: np.ndarray, per_triple: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """``per_triple`` minus v at every triple's mix, into ``out``."""
    for *_, mix, at in _blocks(samples):
        np.subtract(per_triple[at], v[mix], out=out[at])
    return out


def _margins(f, samples: SampleSet, log_space: bool) -> np.ndarray:
    vals = _values(f, samples, log_space)
    if log_space:
        np.log(vals, out=vals)  # f's values are a new array, never the points
    chords = _chords(samples, vals)
    return _less_mixes(samples, vals, chords, chords)


def _tolerance_rule(tolerance: float):
    """The test of a margin against ``tolerance``: the one tolerance rule of
    the certifiers, the implication links, the chord checks and the chains.

    A margin is violated when it is below ``-tolerance * scale``.  The
    certifiers pass no scale, so their test is absolute; a chain link's
    scale is the larger magnitude of its two terms.  A NaN, negative or
    infinite tolerance raises ``ValueError`` here, before any margin is
    tested."""
    if not 0 <= tolerance < math.inf:  # NaN or inf would make every margin hold
        raise ValueError(f"tolerance must be a non-negative number below infinity, got {tolerance}")
    return lambda margin, scale=1.0: margin < -tolerance * scale


def _judge(margins: np.ndarray, samples: SampleSet,
           tolerance: float) -> tuple[str, float, SampleTriple | None]:
    """(verdict, min margin, witness) by :func:`_tolerance_rule`.

    The witness is the worst sample, the smallest index among exact ties."""
    violated = _tolerance_rule(tolerance)
    min_margin = float(margins.min())
    if violated(min_margin):
        return VERDICT_VIOLATED, min_margin, samples.point(int(np.argmin(margins)))
    return VERDICT_HOLDS, min_margin, None


def _through(phi: PhiMap, samples: SampleSet) -> SampleSet:
    """The triples of ``samples`` with every end replaced by its image under
    φ, range-checked, all as flat triples: the images of a grid are no
    grid.  An EvalError's index refers to the triples."""
    x, y, t, _ = samples.flat()
    return _flat_set(phi.eval_array(x), phi.eval_array(y), t)


def _run_check(class_checked, f, samples: SampleSet, tolerance,
               log_space, phi: PhiMap | None = None) -> ConvexityReport:
    """The report of one class on ``samples``; with ``phi``, f runs at the
    images of their ends under φ, and the witness is a triple of ``samples``."""
    try:
        margins = _margins(f, samples if phi is None else _through(phi, samples), log_space)
    except EvalError as err:
        return ConvexityReport(class_checked, VERDICT_VIOLATED, samples.size,
                               float("-inf"), samples.point(err.index or 0), tolerance,
                               failure_kind="domain", failure_detail=str(err))
    verdict, min_margin, witness = _judge(margins, samples, tolerance)
    return ConvexityReport(class_checked, verdict, samples.size, min_margin, witness,
                           tolerance, failure_kind=None if witness is None else "inequality")


def _pull_back(phi: PhiMap, witnesses: list) -> list | None:
    """Witnesses sampled on ``phi.range`` with their ends mapped into the
    domain by :meth:`PhiMap.preimage`, all in one batch; None stays None.

    None instead when φ misses an end by more than ``phi.slack``: φ jumps
    over it, so the range is not φ(D), and the witness stands for no
    triple of the domain."""
    found = [w for w in witnesses if w is not None]
    if not found:
        return witnesses
    xs, miss = phi.preimage([e for w in found for e in (w.x, w.y)])
    if (miss > phi.slack).any():
        return None
    ends = iter(xs.tolist())
    return [None if w is None else SampleTriple(next(ends), next(ends), w.t)
            for w in witnesses]


def _on_range(phi: PhiMap, sampler: SamplePlan, judge, pinned: bool = False) -> list:
    """The φ protocol: ``judge(samples, None)`` on the samples of
    ``phi.range``, each result's witness mapped into the domain; where the
    witnesses do not pull back (:func:`_pull_back`), ``judge(samples, phi)``
    on the domain's samples, with f at the images of their ends under φ, as
    the definition reads.  ``judge`` returns results that have a ``witness``.
    Both sets are drawn with ``pinned`` (:func:`_samples`)."""
    results = judge(_samples(sampler, *phi.range, pinned), None)
    witnesses = _pull_back(phi, [r.witness for r in results])
    if witnesses is None:
        return judge(_samples(sampler, phi.domain.a, phi.domain.b, pinned), phi)
    return [r if w is None else replace(r, witness=w) for r, w in zip(results, witnesses)]


def _run_phi_check(class_checked, f, phi: PhiMap, sampler: SamplePlan, tolerance,
                   log_space, half_t=False) -> ConvexityReport:
    """:func:`_run_check` by the φ protocol (:func:`_on_range`); ``half_t``
    pins every t to 1/2."""
    def judge(samples, through):
        return [_run_check(class_checked, f, samples, tolerance, log_space, through)]

    return _on_range(phi, sampler, judge, pinned=half_t)[0]


def _require_positivity(f, interval: Interval, label: str | None = None) -> None:
    res = check_positive(f, interval, POSITIVITY_GRID)
    if not res.ok:
        detail = res.detail if label is None else f"{label}: {res.detail}"
        raise PositivityViolated(res.witness, detail)


# ----------------------------- certifiers ------------------------------------

def check_convex(f, interval: Interval, sampler: SamplePlan = SamplePlan(), *,
                 tolerance: float = DEFAULT_TOLERANCE) -> ConvexityReport:
    """Margins of t*f(x) + (1-t)*f(y) - f(t*x + (1-t)*y) over the sample plan."""
    return _run_check("convex", f, sampler.samples(interval), tolerance, log_space=False)


def check_log_convex(f, interval: Interval, sampler: SamplePlan = SamplePlan(), *,
                     tolerance: float = DEFAULT_TOLERANCE) -> ConvexityReport:
    """Log-space margins of the multiplicative bound f(mix) <= f(x)^t f(y)^(1-t)."""
    _require_positivity(f, interval)
    return _run_check("log_convex", f, sampler.samples(interval), tolerance, log_space=True)


def check_phi_convex(f, phi: PhiMap, sampler: SamplePlan = SamplePlan(), *,
                     tolerance: float = DEFAULT_TOLERANCE) -> ConvexityReport:
    """Convexity along the deformation, f(t*phi(x) + (1-t)*phi(y)) against the
    chord, certified as plain convexity on ``phi.range``: the sample plan
    runs there, and the witness is mapped back into the domain.

    That holds for a continuous φ, whose range is the interval φ(D).  Where
    φ jumps over an end of the witness, the plan runs on the domain
    instead, with f at the images of the sample ends under φ."""
    return _run_phi_check("phi_convex", f, phi, sampler, tolerance, log_space=False)


def check_log_phi_convex(f, phi: PhiMap, sampler: SamplePlan = SamplePlan(), *,
                         tolerance: float = DEFAULT_TOLERANCE) -> ConvexityReport:
    """The multiplicative bound along the deformation, certified as
    log-convexity on ``phi.range`` as :func:`check_phi_convex` certifies
    convexity, on the same assumption that φ is continuous and with the
    same fallback; f must be positive on the domain."""
    _require_positivity(f, phi.domain)
    return _run_phi_check("log_phi_convex", f, phi, sampler, tolerance, log_space=True)


def check_log_phi_midconvex(f, phi: PhiMap, sampler: SamplePlan = SamplePlan(), *,
                            tolerance: float = DEFAULT_TOLERANCE) -> ConvexityReport:
    """The t = 1/2 restriction of :func:`check_log_phi_convex`, on ``phi.range``
    for a continuous φ, with its fallback where φ jumps.  Every t is 1/2: the
    differences are midpoint tests already, and the span row and the random
    triples are pinned there."""
    _require_positivity(f, phi.domain)
    return _run_phi_check("log_phi_midconvex", f, phi, sampler, tolerance, log_space=True,
                          half_t=True)


# ----------------------------- implication lattice ---------------------------

def check_implication_chain(f, phi: PhiMap, sampler: SamplePlan = SamplePlan(), *,
                            tolerance: float = DEFAULT_TOLERANCE,
                            ) -> ImplicationLatticeReport:
    """Per-link margins of the pointwise chain

    f(t*phi(x) + (1-t)*phi(y)) <= f(phi(x))^t * f(phi(y))^(1-t)
                               <= t*f(phi(x)) + (1-t)*f(phi(y))
                               <= max(f(phi(x)), f(phi(y))).

    Links 2 and 3 (weighted AM-GM, and convex combination below the max)
    hold for every positive f; only link 1 reflects the convexity class.
    As the φ classes are, the chain is sampled on ``phi.range``, with u and v
    in the place of phi(x) and phi(y), and each witness is mapped back into
    the domain; for a φ that jumps over an end of a witness, it is sampled
    on the domain as :func:`check_phi_convex` falls back.
    """
    _require_positivity(f, phi.domain)
    links = _on_range(phi, sampler,
                      lambda samples, through: _chain_links(f, samples, tolerance, through))
    return ImplicationLatticeReport(tuple(links), sampler.size, tolerance)


def _chain_links(f, samples: SampleSet, tolerance: float, phi: PhiMap | None = None) -> list:
    """The :class:`LinkCheck` of each link on ``samples``; with ``phi``, as
    :func:`_run_check` takes it."""
    on = samples if phi is None else _through(phi, samples)
    vals = _values(f, on, log_space=True)
    log_vals = np.log(vals)
    log_gm = _chords(on, log_vals)
    bound = _less_mixes(on, log_vals, log_gm, np.empty_like(log_gm))
    weighted_am = _chords(on, vals)
    am_gm = np.subtract(weighted_am, np.exp(log_gm, out=log_gm), out=log_gm)
    max_bound = np.empty_like(weighted_am)
    for _, x, y, _, at in _blocks(on):
        np.maximum(vals[x], vals[y], out=max_bound[at])
    max_bound -= weighted_am
    return [LinkCheck(name, *_judge(margins, samples, tolerance)) for name, margins in (
        ("multiplicative_bound", bound),
        ("weighted_am_gm", am_gm),
        ("max_bound", max_bound),
    )]


# ----------------------------- chord equivalences ----------------------------

def _chord_equivalence(kind: str, f, phi: PhiMap, pair_count: int,
                       sampler: SamplePlan, seed: int, tolerance: float) -> EquivalenceReport:
    """Both sides of a chord check; see :func:`check_log_phi_chord_equivalence`."""
    seed = operator.index(seed)
    if pair_count < 0:
        raise ValueError(f"pair_count must be >= 0, got {pair_count}")
    if pair_count * sampler.t_points > MAX_SAMPLES:
        raise ValueError(f"{pair_count} pairs give {pair_count * sampler.t_points} direct "
                         f"triples, more than {MAX_SAMPLES}")
    if pair_count == 0:
        return EquivalenceReport(kind, True, 0, VERDICT_HOLDS, VERDICT_HOLDS, None, seed)

    log_space = kind == "log_phi"
    dom = phi.domain
    u = _philox(seed, _STREAM_PAIRS).random((pair_count, 2))
    pair_x = dom.a + dom.width * u[:, 0]
    pair_y = dom.a + dom.width * u[:, 1]
    px = phi.eval_array(pair_x)
    py = phi.eval_array(pair_y)

    # one sample set for all pairs: each g is certified on it by the
    # certifier, and the direct side takes its t axis
    unit = sampler.samples(_UNIT)
    on_unit = (unit.points, 1.0 - unit.points)  # every segment's 1 - t, once per check
    # direct side on matched samples: the mapped pairs crossed with the t axis
    direct = _flat_set(np.repeat(px, sampler.t_points), np.repeat(py, sampler.t_points),
                       np.tile(unit.gt, pair_count))
    direct_verdict = _judge(_margins(f, direct, log_space), direct, tolerance)[0]

    # segment side: each pair induces g(t) = f(t*phi(x) + (1-t)*phi(y)) on
    # [0, 1]; the first violated g settles the side, and no later pair runs
    check = check_log_convex if log_space else check_convex
    bad_pair = None
    for i in range(pair_count):
        seg = _Segment(f, px[i], py[i], on_unit)
        if check(seg, _UNIT, sampler, tolerance=tolerance).verdict == VERDICT_VIOLATED:
            bad_pair = float(pair_x[i]), float(pair_y[i])
            break
    segment_verdict = VERDICT_HOLDS if bad_pair is None else VERDICT_VIOLATED

    # a pair's direct margins are, bit for bit, its segment margins on the
    # span row (x, y) = (1, 0): only a segment can fail alone, so it names a
    # disagreement
    agree = direct_verdict == segment_verdict
    return EquivalenceReport(kind, agree, pair_count, direct_verdict, segment_verdict,
                             None if agree else bad_pair, seed)


def check_log_phi_chord_equivalence(f, phi: PhiMap, pair_count: int,
                                    sampler: SamplePlan = SamplePlan(),
                                    seed: int = 0, *,
                                    tolerance: float = DEFAULT_TOLERANCE,
                                    ) -> EquivalenceReport:
    """Empirical biconditional: the multiplicative bound along phi holds on
    sampled triples iff every induced chord map g is log-convex on [0, 1].

    ``pair_count`` seeded pairs (x, y) of the domain are drawn.  The direct
    side tests the bound at every pair crossed with the plan's t axis.  The
    segment side certifies each g(t) = f(t*phi(x) + (1-t)*phi(y)) as
    :func:`check_log_convex` would, on the plan's samples of [0, 1], pair
    by pair, and stops at the first violated g, which is the one a
    disagreement names.  So a pair after it is not checked: where f is not
    positive only on such a pair's segment, off the domain's positivity
    grid and the direct side's points, no ``PositivityViolated`` is raised.
    ``pair_count * sampler.t_points`` may not exceed ``MAX_SAMPLES``.
    """
    _require_positivity(f, phi.domain)
    return _chord_equivalence("log_phi", f, phi, pair_count, sampler, seed, tolerance)


def check_phi_chord_equivalence(f, phi: PhiMap, pair_count: int,
                                sampler: SamplePlan = SamplePlan(),
                                seed: int = 0, *,
                                tolerance: float = DEFAULT_TOLERANCE,
                                ) -> EquivalenceReport:
    """Additive analogue of :func:`check_log_phi_chord_equivalence` (plain
    convexity, each g certified as :func:`check_convex` would), with the same
    draw, the same stop at the first violated g and the same bound on
    ``pair_count``."""
    return _chord_equivalence("phi", f, phi, pair_count, sampler, seed, tolerance)
