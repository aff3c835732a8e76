"""Parsing and guarded evaluation of closed-form univariate expressions.

The grammar covers the function families used by the inequality chains:
decimal literals, the variable ``x``, the constants ``e`` and ``pi``, the
unary functions ``exp``, ``ln``, ``sqrt``, ``abs`` (parentheses required),
unary minus, and the binary operators ``+ - * / ^``.  ``^`` binds tightest
and is right-associative, then unary minus, then ``* /``, then ``+ -``.
The full grammar is published as EBNF in docs/grammar.ebnf.

Evaluation never returns a silent NaN: every point either yields a finite
real or raises a typed :class:`~hhv.errors.DomainError` /
:class:`~hhv.errors.Overflow` carrying the offending abscissa.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import DomainError, EvalError, Overflow, ParseError, UnknownIdentifierError

__all__ = [
    "Num", "Var", "Const", "Unary", "Binary", "Node",
    "Expr", "Interval", "PositivityCheck",
    "parse", "serialize", "evaluate", "evaluate_array", "check_positive",
]

_FUNCTIONS = ("exp", "ln", "sqrt", "abs")
_CONSTANTS = {"e": math.e, "pi": math.pi}


# ----------------------------- AST ------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Const:
    name: str  # "e" | "pi"


@dataclass(frozen=True)
class Unary:
    op: str  # "neg" | "exp" | "ln" | "sqrt" | "abs"
    arg: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # "+" | "-" | "*" | "/" | "^"
    left: "Node"
    right: "Node"


Node = Union[Num, Var, Const, Unary, Binary]


@dataclass(frozen=True)
class Expr:
    """An immutable parsed expression; evaluation is stateless."""

    root: Node
    source_text: str

    def eval(self, x: float) -> float:
        return evaluate(self, x)

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        return evaluate_array(self, xs)

    def serialize(self) -> str:
        return serialize(self.root)


@dataclass(frozen=True)
class Interval:
    """Ordered real interval with strictly increasing endpoints."""

    a: float
    b: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"interval endpoints must be finite, got [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)


# ----------------------------- tokenizer ------------------------------------

class _Token(NamedTuple):
    kind: str  # "num" | "ident" | "op" | "end"
    text: str
    offset: int


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[+\-*/^()])"
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", pos,
                expected=("number", "identifier", "operator"),
            )
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


# ----------------------------- parser ---------------------------------------

_ATOM_EXPECTED = ("number", "'x'", "'e'", "'pi'", "function call", "'('")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Node:
        node = self.sum()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(
                f"unexpected token {tok.text!r}", tok.offset,
                expected=("operator", "end of input"),
            )
        return node

    def sum(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Binary(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Binary(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Unary("neg", self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            # right-associative; exponent may carry its own unary minus
            return Binary("^", base, self.unary())
        return base

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError(f"number literal {tok.text!r} overflows", tok.offset)
            return Num(value)
        if tok.kind == "ident":
            self.advance()
            if tok.text in _FUNCTIONS:
                self.expect("(", after=f"function '{tok.text}'")
                arg = self.sum()
                self.expect(")", after="function argument")
                return Unary("ln" if tok.text == "ln" else tok.text, arg)
            if tok.text == "x":
                return Var()
            if tok.text in _CONSTANTS:
                return Const(tok.text)
            raise UnknownIdentifierError(tok.text, tok.offset)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.sum()
            self.expect(")", after="parenthesized expression")
            return node
        raise ParseError(
            f"unexpected token {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            tok.offset,
            expected=_ATOM_EXPECTED,
        )

    def expect(self, op: str, after: str) -> None:
        tok = self.peek()
        if tok.kind == "op" and tok.text == op:
            self.advance()
            return
        raise ParseError(
            f"missing {op!r} after {after}", tok.offset, expected=(f"'{op}'",)
        )


def parse(text: str) -> Expr:
    """Parse expression text into an :class:`Expr`.

    Raises :class:`~hhv.errors.ParseError` (with byte offset and the set of
    expected tokens) or :class:`~hhv.errors.UnknownIdentifierError`.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0, expected=_ATOM_EXPECTED)
    return Expr(root=_Parser(text).parse(), source_text=text)


# ----------------------------- serializer -----------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_ATOM_PREC = 5


def _prec(node: Node) -> int:
    if isinstance(node, Binary):
        return _PREC[node.op]
    if isinstance(node, Unary):
        return _PREC["neg"] if node.op == "neg" else _ATOM_PREC
    return _ATOM_PREC


def serialize(node: Node) -> str:
    """Render an AST to text that reparses to a structurally equal AST."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = serialize(node.arg)
            if _prec(node.arg) < _PREC["neg"]:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{node.op}({serialize(node.arg)})"
    if isinstance(node, Binary):
        op = node.op
        left, right = serialize(node.left), serialize(node.right)
        if op == "^":
            # any non-atomic base needs parentheses: -x^2 means -(x^2)
            if _prec(node.left) < _ATOM_PREC:
                left = f"({left})"
            if _prec(node.right) < _PREC["neg"]:
                right = f"({right})"
            return f"{left}^{right}"
        if _prec(node.left) < _PREC[op]:
            left = f"({left})"
        # equal-precedence right operands re-associate; keep them grouped
        if _prec(node.right) <= _PREC[op]:
            right = f"({right})"
        if op in "+-":
            return f"{left} {op} {right}"
        return f"{left}{op}{right}"
    raise TypeError(f"not an AST node: {node!r}")


# ----------------------------- evaluation -----------------------------------

def _walk(node: Node, x: np.ndarray, guards: list[tuple[np.ndarray, str]]) -> np.ndarray | float:
    # Constant subtrees stay Python floats: IEEE-754 arithmetic on them and
    # numpy's on broadcast arrays agree bit for bit.  An array is built only
    # where an operation needs one.  A guard is appended only when it can
    # fire; the rest keep the post-order, so the reported error is unchanged.
    # A value at a point where a guard fires is never returned and reaches
    # only guards later in post-order, so it is not replaced by NaN.
    if isinstance(node, Num):
        return float(node.value)
    if isinstance(node, Var):
        return x
    if isinstance(node, Const):
        return _CONSTANTS[node.name]
    if isinstance(node, Unary):
        v = _walk(node.arg, x, guards)
        if node.op == "neg":
            return -v
        if node.op == "abs":
            return abs(v)
        if type(v) is float:
            v = np.full_like(x, v)
        if node.op == "exp":
            return np.exp(v)
        if node.op == "ln":
            guards.append((~(v > 0), "ln of non-positive argument"))
            return np.log(v)
        if node.op == "sqrt":
            guards.append((v < 0, "sqrt of negative argument"))
            return np.sqrt(v)
        raise AssertionError(node.op)
    if isinstance(node, Binary):
        lv = _walk(node.left, x, guards)
        rv = _walk(node.right, x, guards)
        op = node.op
        if op == "+":
            return lv + rv
        if op == "-":
            return lv - rv
        if op == "*":
            return lv * rv
        if op == "/":
            if type(rv) is float:
                if rv != 0:
                    return lv / rv
                rv = np.full_like(x, rv)
            guards.append((rv == 0, "division by zero"))
            return lv / rv
        if op == "^":
            if type(lv) is float:
                lv = np.full_like(x, lv)
            if type(rv) is float:
                # a scalar exponent would take numpy's square/sqrt/reciprocal
                # fast paths, which round differently from the general power
                r, rv = rv, np.full_like(x, rv)
                if not (r.is_integer() or math.isinf(r)):
                    guards.append((lv < 0, "negative base with non-integer exponent"))
                if r < 0:
                    guards.append((lv == 0, "zero raised to a negative exponent"))
                return np.power(lv, rv)
            frac_exp = rv != np.round(rv)
            guards.append(((lv < 0) & frac_exp, "negative base with non-integer exponent"))
            guards.append(((lv == 0) & (rv < 0), "zero raised to a negative exponent"))
            return np.power(lv, rv)
        raise AssertionError(op)
    raise TypeError(f"not an AST node: {node!r}")


def evaluate_array(f: Expr, xs: np.ndarray) -> np.ndarray:
    """Evaluate ``f`` elementwise on a 1-D array of finite points.

    On failure raises the typed error for the smallest failing index, so
    witness selection is independent of internal evaluation order.
    """
    pts = np.asarray(xs, dtype=float)
    # argmin/argmax find the first offending point without a separate
    # all()/any() pass, which dominates on small arrays
    finite = np.isfinite(pts).ravel()
    if finite.size and not finite[finite.argmin()]:
        raise ValueError("evaluation points must be finite")
    guards: list[tuple[np.ndarray, str]] = []
    with np.errstate(all="ignore"):
        vals = _walk(f.root, pts, guards)
    if type(vals) is float:
        vals = np.full_like(pts, vals)
    else:
        vals = np.asarray(vals, dtype=float)
    bad = ~np.isfinite(vals)
    for mask, _ in guards:
        bad |= mask
    bad = bad.ravel()
    if bad.size:
        i = int(bad.argmax())
        if bad[i]:
            at = float(pts.ravel()[i])
            for mask, reason in guards:
                if mask.ravel()[i]:
                    raise DomainError(reason, x=at, index=i)
            raise Overflow(x=at, index=i)
    return vals


def evaluate(f: Expr, x: float) -> float:
    """Evaluate ``f`` at a single finite point; see :func:`evaluate_array`."""
    return float(evaluate_array(f, np.array([x], dtype=float))[0])


class PositivityCheck(NamedTuple):
    ok: bool
    witness: float | None
    detail: str | None


def check_positive(f: Expr, interval: Interval, n: int = 257) -> PositivityCheck:
    """Sample ``f`` on ``n + 1`` equally spaced points and certify positivity.

    Returns a failed check with the smallest-index witness where ``f`` is
    non-positive or not evaluable.  A discontinuity strictly between grid
    points goes undetected; callers choose ``n`` accordingly.
    """
    if n < 2:
        raise ValueError(f"grid size must be >= 2, got {n}")
    xs = np.linspace(interval.a, interval.b, n + 1)
    result = PositivityCheck(True, None, None)
    try:
        vals = f.eval_array(xs)
    except EvalError as err:
        # keep only the error's point and text: the error itself would hold
        # this frame through its traceback
        result = PositivityCheck(False, err.x, str(err))
        xs = xs[:err.index or 0]  # the points before the failure are evaluable
        vals = f.eval_array(xs) if xs.size else xs
    nonpos = ~(vals > 0)
    if nonpos.any():
        j = int(np.argmax(nonpos))
        return PositivityCheck(False, float(xs[j]), f"f(x) = {float(vals[j])!r} is not positive")
    return result
