"""Seeded generation of candidate functions and budgeted counterexample search.

Every draw is a pure function of the relevant (seed, trial, role) triple,
through per-purpose Philox streams, so outcomes are reproducible and
independent of execution order.
"""
from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass

import numpy as np

from .chains import (
    CHAIN_IDS, DEFAULT_CHAIN_TOL, DEFAULT_QUAD_TOL, ChainReport, eval_classic_hh,
    eval_dragomir_mond, eval_theorem1, eval_theorem2, VERDICT_LINK_VIOLATED,
)
from .convexity import (
    DEFAULT_TOLERANCE, ConvexityReport, PhiMap, SamplePlan, VERDICT_VIOLATED, _philox,
    check_convex, check_log_convex, check_log_phi_convex,
    check_log_phi_midconvex, check_phi_convex,
)
from .errors import GenerationExhausted, HHVError, Overflow, PhiRangeViolated
from .expr import MAX_DEPTH, Binary, Expr, Interval, Node, Num, Unary, Var, check_positive

__all__ = [
    "FamilySpec", "SearchTarget", "SearchWitness", "SearchOutcome",
    "FAMILIES", "generate", "generate_phi", "run_target", "find_counterexample",
]

FAMILIES = ("exp_of_poly", "positive_poly", "affine_exp", "power")

_MAX_TRIES = 16
# how much higher than its degree bound a drawn tree can be: generate_phi's,
# whose first term in the rescaled variable is 6 high and sits 4 levels down;
# every candidate f is lower
_PHI_HEIGHT = 10
_STREAM_GEN = 0x6765_6e00  # generation attempts occupy a block of streams


@dataclass(frozen=True)
class FamilySpec:
    """Parameters of one random function family.

    ``coeff_range`` bounds the coefficient draws; ``positive_poly`` requires
    a non-negative lower bound and draws in the half-open (lo, hi];
    ``affine_exp`` requires ``hi > 0`` and draws its rate in [-hi, hi].  A
    range whose width overflows cannot be drawn from and is rejected.  The
    ``power`` family ignores the range and draws its exponent in [-3, 3].
    ``degree_bound`` and ``seed`` are stored as ``operator.index`` gives
    them, and ``degree_bound`` is at most ``MAX_DEPTH - _PHI_HEIGHT``, so
    that no tree drawn with the spec, as f or as φ, is higher than
    ``MAX_DEPTH``.
    """

    family: str
    degree_bound: int = 2
    coeff_range: tuple[float, float] = (0.0, 2.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; use one of {FAMILIES}")
        for name in ("degree_bound", "seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.degree_bound < 0:
            raise ValueError(f"degree_bound must be >= 0, got {self.degree_bound}")
        if self.degree_bound > MAX_DEPTH - _PHI_HEIGHT:
            raise ValueError(f"degree_bound must be <= {MAX_DEPTH - _PHI_HEIGHT}, got "
                             f"{self.degree_bound}: its trees would nest deeper than "
                             f"MAX_DEPTH = {MAX_DEPTH}")
        lo, hi = self.coeff_range
        if not lo < hi:
            raise ValueError(f"coeff_range must be increasing, got {self.coeff_range}")
        if self.family == "positive_poly" and lo < 0:
            raise ValueError("positive_poly requires a non-negative coeff_range lower bound")
        if self.family == "affine_exp" and not hi > 0:
            raise ValueError(f"affine_exp requires a positive coeff_range upper bound, "
                             f"got {self.coeff_range}")
        # numpy cannot draw from a range whose width overflows; affine_exp
        # draws its rate in [-hi, hi]
        width = 2.0 * hi if self.family == "affine_exp" else hi - lo
        if self.family != "power" and not math.isfinite(width):
            raise ValueError(f"coeff_range {self.coeff_range} is too wide to draw from: "
                             f"its width overflows")


@dataclass(frozen=True)
class SearchTarget:
    kind: str  # "check" | "chain"
    name: str  # convexity class or chain id

    def __post_init__(self) -> None:
        if self.kind not in ("check", "chain"):
            raise ValueError(f"target kind must be 'check' or 'chain', got {self.kind!r}")
        valid = _CHECKS.keys() if self.kind == "check" else CHAIN_IDS
        if self.name not in valid:
            raise ValueError(f"unknown {self.kind} target {self.name!r}; use one of {sorted(valid)}")

    @property
    def takes_phi(self) -> bool:
        """Whether the target runs along a deformation map."""
        if self.kind == "check":
            return _CHECKS[self.name][0] == "phi"
        return self.name in ("theorem1", "theorem2")

    @property
    def takes_g(self) -> bool:
        """Whether the target takes a second integrand (the product chain)."""
        return self.kind == "chain" and self.name == "theorem2"


@dataclass(frozen=True)
class SearchWitness:
    f_text: str
    phi_text: str | None
    g_text: str | None
    trial: int
    report: ConvexityReport | ChainReport


@dataclass(frozen=True)
class SearchOutcome:
    found: bool
    witness: SearchWitness | None
    trials: int
    seed: int
    skipped: dict[str, int]


# ----------------------------- generation ------------------------------------

def _derive_seed(seed: int, trial: int, role: int) -> int:
    digest = hashlib.blake2b(f"{seed}:{trial}:{role}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _with_seed(spec: FamilySpec, seed: int) -> FamilySpec:
    """``dataclasses.replace(spec, seed=seed)`` for a validated ``spec``, without
    running ``__post_init__`` again: the seed is the one field it does not
    read.  A search makes up to three of these per trial."""
    new = object.__new__(type(spec))
    vars(new).update(vars(spec), seed=seed)
    return new


def _open_closed(rng: np.random.Generator, lo: float, hi: float, size: int) -> np.ndarray:
    # uniform on (lo, hi]: flip the half-open [0, 1) unit draw
    return hi - (hi - lo) * rng.random(size)


# A built term: the tree that ``parse`` builds from the text, and the text.
_Built = tuple[Node, str]
_X: _Built = (Var(), "x")


def _lit(v: float) -> _Built:
    # repr writes a negative number, -0.0 included, as "-" and its magnitude
    return (Unary("neg", Num(-v)) if math.copysign(1.0, v) < 0 else Num(v)), repr(v)


def _poly(coeffs: np.ndarray, var: _Built) -> _Built:
    """sum(coeffs[k] * var^k), highest degree first, each later sign written
    as the operator: "2.0*x^2 - 1.5*x + 0.5"."""
    var_node, var_text = var
    root: Node | None = None
    parts: list[str] = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = float(coeffs[k])
        mag = abs(c)
        head: Node = Num(mag)
        if root is None and not c >= 0:
            head = Unary("neg", head)  # a leading minus binds the coefficient alone
        if k >= 2:
            node = Binary("*", head, Binary("^", var_node, Num(float(k))))
            piece = f"{mag!r}*{var_text}^{k}"
        elif k == 1:
            node, piece = Binary("*", head, var_node), f"{mag!r}*{var_text}"
        else:
            node, piece = head, repr(mag)
        if root is None:
            root = node
            parts.append(piece if c >= 0 else f"-{piece}")
        else:
            root = Binary("+" if c >= 0 else "-", root, node)
            parts.append(f" {'+' if c >= 0 else '-'} {piece}")
    return root, "".join(parts)


def _build(spec: FamilySpec, rng: np.random.Generator) -> Expr:
    """``parse`` of the candidate's text, built without parsing.  Every drawn
    literal is finite, which repr writes as a literal that parse reads back:
    ``FamilySpec`` rejects a range whose width overflows."""
    lo, hi = spec.coeff_range
    if spec.family == "exp_of_poly":
        degree = int(rng.integers(0, spec.degree_bound + 1))
        coeffs = rng.uniform(lo, hi, degree + 1)
        root, text = _poly(coeffs, _X)
        return Expr(Unary("exp", root), f"exp({text})")
    if spec.family == "positive_poly":
        degree = int(rng.integers(min(1, spec.degree_bound), spec.degree_bound + 1))
        coeffs = _open_closed(rng, lo, hi, degree + 1)
        return Expr(*_poly(coeffs, _X))
    if spec.family == "affine_exp":
        scale = float(_open_closed(rng, max(lo, 0.0), hi, 1)[0])
        rate = float(rng.uniform(-hi, hi))
        shift = float(rng.uniform(max(lo, 0.0), hi))
        (s_node, s_text), (r_node, r_text), (h_node, h_text) = map(_lit, (scale, rate, shift))
        root = Binary("+", Binary("*", s_node, Unary("exp", Binary("*", r_node, Var()))), h_node)
        return Expr(root, f"{s_text}*exp({r_text}*x) + {h_text}")
    if spec.family == "power":
        r = float(rng.uniform(-3.0, 3.0))
        r_node, r_text = _lit(r)
        return Expr(Binary("^", Var(), r_node), f"x^{r_text}")
    raise AssertionError(spec.family)


def generate(spec: FamilySpec, domain: Interval) -> Expr:
    """Draw one positivity-validated expression; a pure function of (spec, domain).

    Candidates failing the positivity grid check are discarded and redrawn
    from the next attempt stream, up to a bounded number of retries.
    """
    for attempt in range(_MAX_TRIES):
        expr = _build(spec, _philox(spec.seed, _STREAM_GEN + attempt))
        if check_positive(expr, domain).ok:
            return expr
    raise GenerationExhausted(spec.family, _MAX_TRIES)


def generate_phi(spec: FamilySpec, domain: Interval) -> PhiMap:
    """Draw a monotone self-map of ``domain``.

    A polynomial with positive coefficients is normalized to [0, 1] on the
    rescaled variable and mapped affinely back onto the domain, so the
    self-mapping property holds by construction.
    """
    a, w = domain.a, domain.width
    (an, at), (wn, wt) = _lit(a), _lit(w)
    var = Binary("/", Binary("-", Var(), an), wn), f"((x - {at})/{wt})"
    degree = max(1, spec.degree_bound)
    for attempt in range(_MAX_TRIES):
        rng = _philox(spec.seed, _STREAM_GEN + attempt)
        deg = int(rng.integers(1, degree + 1))
        coeffs = _open_closed(rng, max(spec.coeff_range[0], 0.0),
                              spec.coeff_range[1], deg + 1)
        raw, raw_text = _poly(coeffs, var)
        # the raw polynomial at a and b: the rescaled variable is exactly 0 and
        # 1 there, and the built tree adds its terms from the highest degree
        # down; an overflowing sum fails as evaluating the text at b did
        r0 = float(coeffs[0])
        r1 = sum(float(c) for c in coeffs[::-1])
        if not np.isfinite(r1):
            raise Overflow(x=domain.b, index=0)
        if not r1 > r0:
            continue
        (r0n, r0t), (dn, dt) = _lit(r0), _lit(r1 - r0)
        root = Binary("+", an, Binary("/", Binary("*", wn, Binary("-", raw, r0n)), dn))
        text = f"{at} + {wt}*({raw_text} - {r0t})/{dt}"
        try:
            return PhiMap(Expr(root, text), domain)
        except PhiRangeViolated:
            continue
    raise GenerationExhausted("phi", _MAX_TRIES)


# ----------------------------- search ----------------------------------------

# {class: (style, certifier)}; "phi" certifiers take a PhiMap, "plain" ones
# the interval
_CHECKS = {
    "convex": ("plain", check_convex),
    "log_convex": ("plain", check_log_convex),
    "phi_convex": ("phi", check_phi_convex),
    "log_phi_convex": ("phi", check_log_phi_convex),
    "log_phi_midconvex": ("phi", check_log_phi_midconvex),
}


def run_target(target: SearchTarget, f: Expr, g: Expr | None, phi: PhiMap | None,
               domain: Interval, sampler: SamplePlan = SamplePlan(), *,
               tolerance: float | None = None, quad_tol: float = DEFAULT_QUAD_TOL,
               diagnostics: bool = False) -> tuple[ConvexityReport | ChainReport, bool]:
    """Certify or evaluate ``target`` for ``f``; return the report and whether
    it is violated.

    ``phi=None`` means the identity map on ``domain`` and ``g=None`` means
    ``f``; each is used only by the targets that take it.  ``tolerance``
    defaults to the certifiers' 1e-9 for checks and the chains' 1e-8 for
    chains.  ``sampler`` serves checks, ``quad_tol`` and ``diagnostics``
    chains (``diagnostics`` only those that take phi).
    """
    if phi is None and target.takes_phi:
        phi = PhiMap.identity(domain)
    if target.kind == "check":
        style, fn = _CHECKS[target.name]
        tol = DEFAULT_TOLERANCE if tolerance is None else tolerance
        report = fn(f, phi if style == "phi" else domain, sampler, tolerance=tol)
        return report, report.verdict == VERDICT_VIOLATED
    tol = DEFAULT_CHAIN_TOL if tolerance is None else tolerance
    if target.takes_g:
        inputs = (f, g if g is not None else f, phi)
    elif target.takes_phi:
        inputs = (f, phi)
    else:
        inputs = (f, domain)
    extra = {"include_diagnostics": diagnostics} if target.takes_phi else {}
    # looked up by name at call time, so a wrapper installed on this module
    # sees the call
    report = globals()[f"eval_{target.name}"](*inputs, quad_tol, tol, **extra)
    return report, report.verdict == VERDICT_LINK_VIOLATED


def find_counterexample(
    target: SearchTarget,
    f_spec: FamilySpec,
    phi_spec: FamilySpec | None,
    domain: Interval,
    budget: int,
    seed: int,
    *,
    sampler: SamplePlan = SamplePlan(),
    tolerance: float | None = None,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> SearchOutcome:
    """Iterate seeded candidates against ``target`` until one violates it.

    ``phi_spec=None`` means the identity map, and phi is drawn only for
    targets that take it.  For the product chain a second integrand is
    drawn from ``f_spec`` on an independent stream.
    Candidates whose generation or hypotheses fail count as trials with the
    skip reason tallied, never as violations.
    ``tolerance`` defaults by target kind, as in :func:`run_target`.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    skipped: dict[str, int] = {}
    draws_phi = phi_spec is not None and target.takes_phi
    # one identity map serves every trial of a target that takes phi
    identity = PhiMap.identity(domain) if target.takes_phi and not draws_phi else None
    for trial in range(budget):
        try:
            f = generate(_with_seed(f_spec, _derive_seed(seed, trial, 0)), domain)
            phi = None
            if draws_phi:
                phi = generate_phi(_with_seed(phi_spec, _derive_seed(seed, trial, 1)),
                                   domain)
            g = None
            if target.takes_g:
                g = generate(_with_seed(f_spec, _derive_seed(seed, trial, 2)), domain)
            report, violated = run_target(target, f, g, identity if phi is None else phi,
                                          domain, sampler, tolerance=tolerance,
                                          quad_tol=quad_tol)
        except HHVError as err:
            reason = type(err).__name__
            skipped[reason] = skipped.get(reason, 0) + 1
            continue
        if violated:
            witness = SearchWitness(
                f_text=f.source_text,
                phi_text=phi.phi.source_text if phi is not None else None,
                g_text=g.source_text if g is not None else None,
                trial=trial,
                report=report,
            )
            return SearchOutcome(True, witness, trial + 1, seed, skipped)
    return SearchOutcome(False, None, budget, seed, skipped)
