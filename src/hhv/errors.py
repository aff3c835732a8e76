"""Exception types shared across the package."""
from __future__ import annotations


class HHVError(Exception):
    """Base class for every error raised by this package."""


class ParseError(HHVError):
    """Expression text is not valid under the published grammar."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = int(offset)
        self.expected = tuple(expected)
        hint = f"; expected one of: {', '.join(expected)}" if expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")


class UnknownIdentifierError(ParseError):
    """Identifier is not a known variable, constant, or function name."""

    def __init__(self, name: str, offset: int):
        self.name = name
        super().__init__(f"unknown identifier '{name}'", offset)


class EvalError(HHVError):
    """Base class for evaluation failures; carries the offending abscissa."""

    def __init__(self, message: str, x: float | None = None, index: int | None = None):
        self.x = x
        self.index = index
        at = f" at x={x!r}" if x is not None else ""
        super().__init__(f"{message}{at}")


class DomainError(EvalError):
    """Evaluation left the real domain (ln/sqrt/division/power guards)."""

    def __init__(self, reason: str, x: float | None = None, index: int | None = None):
        self.reason = reason
        super().__init__(reason, x=x, index=index)


class Overflow(EvalError):
    """Evaluation produced a non-finite result."""

    def __init__(self, x: float | None = None, index: int | None = None):
        super().__init__("non-finite result", x=x, index=index)


class MaxDepthExceeded(HHVError):
    """Adaptive quadrature hit its depth limit before reaching tolerance."""

    def __init__(self, a: float, b: float, depth: int):
        self.a = a
        self.b = b
        self.depth = depth
        super().__init__(
            f"quadrature did not converge on [{a!r}, {b!r}] within depth {depth}"
        )


class OpenPanelLimitExceeded(MaxDepthExceeded):
    """Adaptive quadrature would leave more panels open than its limit;
    ``a`` and ``b`` bound the first open panel."""

    def __init__(self, a: float, b: float, depth: int, limit: int):
        self.a = a
        self.b = b
        self.depth = depth
        self.limit = limit
        HHVError.__init__(
            self, f"quadrature did not converge on [{a!r}, {b!r}]: more than "
            f"{limit} panels left open at depth {depth}"
        )


class PositivityViolated(HHVError):
    """A positivity hypothesis failed; carries the witness point."""

    def __init__(self, witness: float | None, detail: str | None = None):
        self.witness = witness
        self.detail = detail
        msg = "positivity hypothesis violated"
        if witness is not None:
            msg += f" at x={witness!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class PhiRangeViolated(HHVError):
    """A deformation map escaped its own domain."""

    def __init__(self, x: float, value: float, a: float, b: float):
        self.x = x
        self.value = value
        self.a = a
        self.b = b
        super().__init__(
            f"phi({x!r}) = {value!r} lies outside the domain [{a!r}, {b!r}]"
        )


class DegeneratePhi(HHVError):
    """phi(a) and phi(b) coincide, so the chain interval collapses."""


class GenerationExhausted(HHVError):
    """Random function generation failed validation after bounded retries."""

    def __init__(self, family: str, attempts: int):
        self.family = family
        self.attempts = attempts
        super().__init__(
            f"could not generate a valid '{family}' candidate in {attempts} attempts"
        )


class ChainTermError(HHVError):
    """A chain term could not be evaluated; names the term."""

    def __init__(self, term: str, detail: str):
        self.term = term
        super().__init__(f"term '{term}' failed: {detail}")
