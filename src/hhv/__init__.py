"""Numerical certifiers for generalized convexity classes and the
Hermite-Hadamard-type inequality chains they satisfy."""
from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    ChainTermError, DegeneratePhi, DomainError, EvalError, GenerationExhausted,
    HHVError, MaxDepthExceeded, OpenPanelLimitExceeded, Overflow, ParseError,
    PhiRangeViolated, PositivityViolated, UnknownIdentifierError,
)
from .expr import Expr, Interval, PositivityCheck, check_positive, evaluate, parse, serialize
from .quadrature import QuadratureResult, integrate, mean_value
from .means import PositivePair, arithmetic, geometric, logarithmic
from .convexity import (
    ConvexityReport, EquivalenceReport, ImplicationLatticeReport, LinkCheck,
    PhiMap, SamplePlan, SampleTriple,
    check_convex, check_implication_chain, check_phi_chord_equivalence,
    check_log_phi_chord_equivalence, check_log_convex, check_log_phi_convex,
    check_log_phi_midconvex, check_phi_convex,
)
from .chains import (
    ChainReport, eval_classic_hh, eval_dragomir_mond, eval_theorem1, eval_theorem2,
)
from .search import (
    FamilySpec, SearchOutcome, SearchTarget, SearchWitness,
    find_counterexample, generate, generate_phi,
)

__all__ = [
    "__version__",
    "HHVError", "ParseError", "UnknownIdentifierError", "EvalError", "DomainError",
    "Overflow", "MaxDepthExceeded", "OpenPanelLimitExceeded", "PositivityViolated",
    "PhiRangeViolated", "DegeneratePhi", "GenerationExhausted", "ChainTermError",
    "Expr", "Interval", "PositivityCheck", "parse", "serialize", "evaluate",
    "check_positive",
    "QuadratureResult", "integrate", "mean_value",
    "PositivePair", "arithmetic", "geometric", "logarithmic",
    "SamplePlan", "SampleTriple", "PhiMap", "ConvexityReport", "LinkCheck",
    "ImplicationLatticeReport", "EquivalenceReport",
    "check_convex", "check_log_convex", "check_phi_convex", "check_log_phi_convex",
    "check_log_phi_midconvex", "check_implication_chain",
    "check_log_phi_chord_equivalence", "check_phi_chord_equivalence",
    "ChainReport", "eval_classic_hh", "eval_dragomir_mond", "eval_theorem1",
    "eval_theorem2",
    "FamilySpec", "SearchTarget", "SearchWitness", "SearchOutcome",
    "generate", "generate_phi", "find_counterexample",
]
