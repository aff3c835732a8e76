"""Sampling-based certifiers for convexity classes and their margins.

Each certifier evaluates the defining inequality of its class on a
deterministic lattice of (x, y, t) triples unioned with counter-based
pseudo-random triples, reports the minimum signed margin (right side
minus left side), and returns the smallest-index witness on violation.
A positive verdict is always ``holds_on_samples``; sampling cannot prove
a universally quantified inequality.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import EvalError, PhiRangeViolated, PositivityViolated
from .expr import Expr, Interval, check_positive, parse

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
_TINY = float(np.finfo(float).tiny)


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
    # holds a word >= 2**63 into float64
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_key_sequence()(key)))


# ----------------------------- plans and reports -----------------------------

@dataclass(frozen=True)
class SamplePlan:
    """Lattice sizes plus the count of seeded pseudo-random triples.

    The t grid must be odd so that it contains 0, 1/2, and 1; random
    triples come from a counter-based generator keyed on (seed, index),
    so a larger ``random_count`` extends rather than reshuffles the set.
    A plan holds at most ``MAX_SAMPLES`` triples, so that its arrays fit in
    memory.
    """

    x_points: int = 33
    t_points: int = 17
    random_count: int = 4096
    seed: int = 0

    def __post_init__(self) -> None:
        if self.x_points < 2:
            raise ValueError(f"x_points must be >= 2, got {self.x_points}")
        if self.t_points < 3 or self.t_points % 2 == 0:
            raise ValueError(f"t_points must be odd and >= 3, got {self.t_points}")
        if self.random_count < 0:
            raise ValueError(f"random_count must be >= 0, got {self.random_count}")
        size = self.x_points**2 * self.t_points + self.random_count
        if size > MAX_SAMPLES:
            raise ValueError(f"sample plan holds {size} triples, more than {MAX_SAMPLES}")

    def samples(self, interval: Interval) -> "SampleSet":
        """The sample set over ``interval``, stored factored, its arrays read-only.

        The last set drawn is kept and handed out again, so the trials of a
        search, which share the plan and the domain, draw it once.
        """
        # Interval equality takes -0.0 for 0.0; the ends' signs tell the two apart
        return _draw_samples(self, interval, math.copysign(1.0, interval.a),
                             math.copysign(1.0, interval.b))


@dataclass(frozen=True)
class SampleTriple:
    x: float
    y: float
    t: float


class SampleSet(NamedTuple):
    """Sample triples stored factored: the lattice axes, then flat triples.

    The triples, in order, are every (gx[i], gx[j], gt[k]) with k varying
    fastest, then every (rx[m], ry[m], rt[m]).  A lattice abscissa is a
    chord end of many triples, so functions of the ends are evaluated once
    per entry of :meth:`ends` and broadcast by :meth:`pairwise`.
    """

    gx: np.ndarray
    gt: np.ndarray
    rx: np.ndarray
    ry: np.ndarray
    rt: np.ndarray

    @property
    def lattice_size(self) -> int:
        return len(self.gx) ** 2 * len(self.gt)

    @property
    def size(self) -> int:
        return self.lattice_size + len(self.rx)

    def ends(self) -> np.ndarray:
        """The chord ends: the lattice axis, the random x, the random y."""
        return np.concatenate([self.gx, self.rx, self.ry])

    def first_index(self, k: int) -> int:
        """Index of the triple at which ``ends()[k]`` is first met when every
        x of the flat triples is visited before every y.

        The map is monotone in ``k``, so the first failing end gives the
        failing triple of that flat evaluation order.
        """
        nx, nr = len(self.gx), len(self.rx)
        if k < nx:
            return k * nx * len(self.gt)
        if k < nx + nr:
            return self.lattice_size + k - nx
        return self.lattice_size + k - nx - nr

    def point(self, i: int) -> SampleTriple:
        """The triple at index ``i``."""
        if i < self.lattice_size:
            nt = len(self.gt)
            a, rest = divmod(i, len(self.gx) * nt)
            b, k = divmod(rest, nt)
            return SampleTriple(float(self.gx[a]), float(self.gx[b]), float(self.gt[k]))
        m = i - self.lattice_size
        return SampleTriple(float(self.rx[m]), float(self.ry[m]), float(self.rt[m]))

    def pairwise(self, fn, at_ends: np.ndarray) -> np.ndarray:
        """``fn(t, v(x), v(y))`` for every triple, in order, from v at :meth:`ends`.

        ``fn`` works elementwise, so the lattice part is the same IEEE
        arithmetic on broadcast operands as on flattened ones.
        """
        nx, nr, nt = len(self.gx), len(self.rx), len(self.gt)
        g = at_ends[:nx]
        lattice = fn(self.gt[None, None, :], g[:, None, None], g[None, :, None])
        rand = fn(self.rt, at_ends[nx:nx + nr], at_ends[nx + nr:])
        return np.concatenate([np.broadcast_to(lattice, (nx, nx, nt)).reshape(-1), rand])

    def fine_grid(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The grid that holds every lattice mix, and each mix's index in it.

        With q = len(gt) - 1, the mix of lattice triple (gx[i], gx[j], gt[k])
        is point q*j + k*(i - j) of linspace(gx[0], gx[-1], (len(gx) - 1)*q + 1)
        when gt is linspace(0, 1, q + 1), as :meth:`SamplePlan.samples` builds
        it.  Given only when (len(gx) - 1)*q is a power of two and the grid's
        step is a normal float: then gx is the grid's every q-th point bit for
        bit, so a degenerate chord's mix is its end.  Else None.
        """
        nx, nt = len(self.gx), len(self.gt)
        n = (nx - 1) * (nt - 1)
        if nx < 2 or nt < 3 or n & (n - 1):
            return None
        a, b = float(self.gx[0]), float(self.gx[-1])
        if not (b - a) / n >= _TINY:  # a subnormal step would divide inexactly
            return None
        return np.linspace(a, b, n + 1), _fine_index(nx, nt)


# one entry: a search needs no more, and more would raise certify's peak memory
@lru_cache(maxsize=1)
def _draw_samples(plan: SamplePlan, interval: Interval, *_signs: float) -> SampleSet:
    u = _philox(plan.seed, _STREAM_TRIPLES).random((plan.random_count, 3))
    samples = SampleSet(
        gx=np.linspace(interval.a, interval.b, plan.x_points),
        gt=np.linspace(0.0, 1.0, plan.t_points),
        rx=interval.a + interval.width * u[:, 0],
        ry=interval.a + interval.width * u[:, 1],
        # contiguous, for numpy's faster loops; the values are unchanged
        rt=np.ascontiguousarray(u[:, 2]),
    )
    for arr in samples:  # every caller of the memo shares these arrays
        arr.flags.writeable = False
    return samples


@lru_cache(maxsize=8)
def _fine_index(nx: int, nt: int) -> np.ndarray:
    """Read-only index of each lattice mix in :meth:`SampleSet.fine_grid`, in triple order."""
    i, j, k = np.ogrid[:nx, :nx, :nt]
    idx = ((nt - 1) * j + k * (i - j)).reshape(-1)
    idx.flags.writeable = False
    return idx


@dataclass(frozen=True)
class PhiMap:
    """A deformation map together with the domain it must map into itself.

    Self-mapping is checked at construction on a fixed grid.  A value may
    lie outside the domain by ``1e-9 * max(|a|, |b|)``, rounding at the size
    of the ends, so that maps whose range touches an endpoint survive it on
    a domain of any scale.
    """

    phi: Expr
    domain: Interval

    def __post_init__(self) -> None:
        grid = np.linspace(self.domain.a, self.domain.b, PHI_GRID)
        vals = self.phi.eval_array(grid)
        self._require_in_domain(grid, vals)

    def _require_in_domain(self, xs: np.ndarray, vals: np.ndarray) -> None:
        slack = 1e-9 * max(abs(self.domain.a), abs(self.domain.b))
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
    kind: str  # "log_phi" | "phi"
    agree: bool
    pairs_tested: int
    direct_verdict: str
    segment_verdict: str
    disagreeing_pair: tuple[float, float] | None
    seed: int


# ----------------------------- margin engine ---------------------------------

class _Segment:
    """t -> f(t*u + (1-t)*v), the restriction of f to a deformed chord."""

    def __init__(self, f, u: float, v: float):
        self.f = f
        self.u = float(u)
        self.v = float(v)

    def eval_array(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        return self.f.eval_array(ts * self.u + (1.0 - ts) * self.v)


def _require_positive_values(vals: np.ndarray, points: np.ndarray, label="f") -> np.ndarray:
    bad = ~(vals > 0)
    if bad.any():
        i = int(np.argmax(bad))
        raise PositivityViolated(float(points[i]),
                                 f"{label} = {float(vals[i])!r} is not positive")
    return vals


def _chord(t, u, v):
    return t * u + (1.0 - t) * v


def _larger(t, u, v):
    return np.maximum(u, v)


def _values(f, phi: PhiMap | None, samples: SampleSet,
            log_space: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """f at the deformed chord ends and at the mixes t*phi(x) + (1-t)*phi(y).

    Raises what evaluating phi(x), phi(y), f(phi(x)), f(phi(y)) and f(mix)
    over the flat triples, in that order, raises first; an EvalError's
    index refers to the triples.  Returns f at :meth:`SampleSet.ends`, f at
    the mixes and a gather index.  The index is None when f is given at
    every mix in triple order.  Without phi, on a fine grid
    (:meth:`SampleSet.fine_grid`), f is given at the grid and then at the
    random mixes, and the index reads each lattice mix from the grid part.
    """
    ends = samples.ends()
    try:
        if phi is not None:
            try:
                ends = phi.eval_array(ends)
            except EvalError as err:
                # phi(x) is range-checked before any phi(y) is evaluated
                n_x = len(samples.gx) + len(samples.rx)
                if err.index >= n_x:
                    phi.eval_array(ends[:n_x])
                raise
        fe = f.eval_array(ends)
    except EvalError as err:
        err.index = samples.first_index(err.index)
        raise
    fine = None if phi is not None else samples.fine_grid()
    if fine is None:
        mix = samples.pairwise(_chord, ends)
    else:
        grid, idx = fine
        nx, nr = len(samples.gx), len(samples.rx)
        rand = _chord(samples.rt, ends[nx:nx + nr], ends[nx + nr:])
        try:
            fm = f.eval_array(np.concatenate([grid, rand]))
        except EvalError:
            fm = None
        if fm is not None and (not log_space or (fm > 0).all()):
            if log_space:
                _require_positive_values(fe, ends)
            return fe, fm, idx
        # every grid point is a lattice mix: the flat mixes raise the failure
        # as the pairwise path would, with its triple index
        mix = np.concatenate([grid[idx], rand])
    fm = f.eval_array(mix)
    if log_space:
        _require_positive_values(fe, ends)
        _require_positive_values(fm, mix)
    return fe, fm, None


def _margins(f, phi: PhiMap | None, samples: SampleSet, log_space: bool) -> np.ndarray:
    fe, fm, idx = _values(f, phi, samples, log_space)
    if log_space:
        fe, fm = np.log(fe), np.log(fm)
    margins = samples.pairwise(_chord, fe)
    if idx is None:
        margins -= fm
    else:
        n = samples.lattice_size
        margins[:n] -= fm[idx]
        margins[n:] -= fm[len(fm) - len(samples.rx):]
    return margins


def _tolerance_rule(tolerance: float):
    """The test of a margin against ``tolerance``: the one tolerance rule of
    the certifiers, the implication links, the chord checks and the chains.

    A margin is violated when it is below ``-tolerance * scale``.  The
    certifiers pass no scale, so their test is absolute; a chain link's
    scale is the larger magnitude of its two terms.  A NaN or negative
    tolerance raises ``ValueError`` here, before any margin is tested."""
    if not tolerance >= 0:  # NaN would make every margin hold
        raise ValueError(f"tolerance must be a non-negative number, got {tolerance}")
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


def _run_check(class_checked, f, phi, samples: SampleSet, tolerance,
               log_space) -> ConvexityReport:
    try:
        margins = _margins(f, phi, samples, log_space)
    except EvalError as err:
        return ConvexityReport(class_checked, VERDICT_VIOLATED, samples.size,
                               float("-inf"), samples.point(err.index or 0), tolerance,
                               failure_kind="domain", failure_detail=str(err))
    verdict, min_margin, witness = _judge(margins, samples, tolerance)
    return ConvexityReport(class_checked, verdict, samples.size, min_margin, witness,
                           tolerance, failure_kind=None if witness is None else "inequality")


def _require_positivity(f, interval: Interval, label: str | None = None) -> None:
    res = check_positive(f, interval, POSITIVITY_GRID)
    if not res.ok:
        detail = res.detail if label is None else f"{label}: {res.detail}"
        raise PositivityViolated(res.witness, detail)


# ----------------------------- certifiers ------------------------------------

def check_convex(f, interval: Interval, sampler: SamplePlan = SamplePlan(), *,
                 tolerance: float = DEFAULT_TOLERANCE) -> ConvexityReport:
    """Margins of t*f(x) + (1-t)*f(y) - f(t*x + (1-t)*y) over the sample plan."""
    return _run_check("convex", f, None, sampler.samples(interval), tolerance,
                      log_space=False)


def check_log_convex(f, interval: Interval, sampler: SamplePlan = SamplePlan(), *,
                     tolerance: float = DEFAULT_TOLERANCE) -> ConvexityReport:
    """Log-space margins of the multiplicative bound f(mix) <= f(x)^t f(y)^(1-t)."""
    _require_positivity(f, interval)
    return _run_check("log_convex", f, None, sampler.samples(interval), tolerance,
                      log_space=True)


def check_phi_convex(f, phi: PhiMap, sampler: SamplePlan = SamplePlan(), *,
                     tolerance: float = DEFAULT_TOLERANCE) -> ConvexityReport:
    """Convexity along the deformation: f(t*phi(x) + (1-t)*phi(y)) against the chord."""
    return _run_check("phi_convex", f, phi, sampler.samples(phi.domain), tolerance,
                      log_space=False)


def check_log_phi_convex(f, phi: PhiMap, sampler: SamplePlan = SamplePlan(), *,
                         tolerance: float = DEFAULT_TOLERANCE) -> ConvexityReport:
    _require_positivity(f, phi.domain)
    return _run_check("log_phi_convex", f, phi, sampler.samples(phi.domain), tolerance,
                      log_space=True)


def check_log_phi_midconvex(f, phi: PhiMap, sampler: SamplePlan = SamplePlan(), *,
                            tolerance: float = DEFAULT_TOLERANCE) -> ConvexityReport:
    """The t = 1/2 restriction; the sampler's t component is ignored."""
    _require_positivity(f, phi.domain)
    samples = sampler.samples(phi.domain)
    samples = samples._replace(gt=np.full_like(samples.gt, 0.5),
                               rt=np.full_like(samples.rt, 0.5))
    return _run_check("log_phi_midconvex", f, phi, samples, tolerance, log_space=True)


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
    """
    _require_positivity(f, phi.domain)
    samples = sampler.samples(phi.domain)
    fe, fm, _ = _values(f, phi, samples, log_space=True)  # phi is set: fm is in order
    log_gm = samples.pairwise(_chord, np.log(fe))
    weighted_am = samples.pairwise(_chord, fe)

    links = [LinkCheck(name, *_judge(margins, samples, tolerance)) for name, margins in (
        ("multiplicative_bound", log_gm - np.log(fm)),
        ("weighted_am_gm", weighted_am - np.exp(log_gm)),
        ("max_bound", samples.pairwise(_larger, fe) - weighted_am),
    )]
    return ImplicationLatticeReport(tuple(links), samples.size, tolerance)


# ----------------------------- chord equivalences ----------------------------

def _chord_equivalence(kind: str, f, phi: PhiMap, pair_count: int,
                       sampler: SamplePlan, seed: int, tolerance: float,
                       log_space: bool) -> EquivalenceReport:
    if pair_count < 0:
        raise ValueError(f"pair_count must be >= 0, got {pair_count}")
    if pair_count == 0:
        return EquivalenceReport(kind, True, 0, VERDICT_HOLDS, VERDICT_HOLDS, None, seed)

    dom = phi.domain
    u = _philox(seed, _STREAM_PAIRS).random((pair_count, 2))
    pair_x = dom.a + dom.width * u[:, 0]
    pair_y = dom.a + dom.width * u[:, 1]

    # one sample set for all pairs: each g is certified on it as check_convex
    # or check_log_convex would, and the direct side takes its t lattice
    unit = sampler.samples(_UNIT)
    # direct side on matched samples: the drawn pairs crossed with the t lattice
    no_lattice = np.empty(0)
    direct = SampleSet(no_lattice, no_lattice, np.repeat(pair_x, sampler.t_points),
                       np.repeat(pair_y, sampler.t_points), np.tile(unit.gt, pair_count))
    direct_verdict = _judge(_margins(f, phi, direct, log_space), direct, tolerance)[0]

    # segment side: each pair induces g(t) = f(t*phi(x) + (1-t)*phi(y)) on [0, 1]
    px = phi.eval_array(pair_x)
    py = phi.eval_array(pair_y)
    bad_pairs = []
    for i in range(pair_count):
        seg = _Segment(f, px[i], py[i])
        if log_space:
            _require_positivity(seg, _UNIT)
        if _run_check(kind, seg, None, unit, tolerance, log_space).verdict == VERDICT_VIOLATED:
            bad_pairs.append((float(pair_x[i]), float(pair_y[i])))
    segment_verdict = VERDICT_VIOLATED if bad_pairs else VERDICT_HOLDS

    # a pair's direct margins are, bit for bit, its segment margins at lattice
    # (x, y) = (1, 0): only a segment can fail alone, so it names a disagreement
    agree = direct_verdict == segment_verdict
    return EquivalenceReport(kind, agree, pair_count, direct_verdict, segment_verdict,
                             None if agree else bad_pairs[0], seed)


def check_log_phi_chord_equivalence(f, phi: PhiMap, pair_count: int,
                                    sampler: SamplePlan = SamplePlan(),
                                    seed: int = 0, *,
                                    tolerance: float = DEFAULT_TOLERANCE,
                                    ) -> EquivalenceReport:
    """Empirical biconditional: the multiplicative bound along phi holds on
    sampled triples iff every induced chord map g is log-convex on [0, 1]."""
    _require_positivity(f, phi.domain)
    return _chord_equivalence("log_phi", f, phi, pair_count, sampler, seed,
                              tolerance, log_space=True)


def check_phi_chord_equivalence(f, phi: PhiMap, pair_count: int,
                                sampler: SamplePlan = SamplePlan(),
                                seed: int = 0, *,
                                tolerance: float = DEFAULT_TOLERANCE,
                                ) -> EquivalenceReport:
    """Additive analogue of :func:`check_log_phi_chord_equivalence` (plain convexity)."""
    return _chord_equivalence("phi", f, phi, pair_count, sampler, seed,
                              tolerance, log_space=False)
