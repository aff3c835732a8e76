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

A constant integer exponent k, 2 <= k <= 8, is evaluated as rounded
products (binary powering), with relative error at most (k-1)·2**-53 and the
same bits on every CPU; every other exponent goes through numpy's general
power, whose last bit depends on the SIMD code numpy dispatches to.
"""
from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import DomainError, EvalError, Overflow, ParseError, UnknownIdentifierError

__all__ = [
    "Num", "Var", "Const", "Unary", "Binary", "Node",
    "Expr", "Interval", "PositivityCheck",
    "parse", "serialize", "evaluate", "evaluate_array", "check_positive", "grid",
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
        if not math.isfinite(self.b - self.a):
            raise ValueError(f"interval width b - a must be finite, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        # halves first: a + b may overflow where the midpoint does not
        return 0.5 * self.a + 0.5 * self.b


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

# x^k for the constant exponents evaluated as products: after p = x*x, "s"
# squares p and "m" multiplies it by x (left-to-right binary powering).  The
# keys are floats, as a constant exponent reaches _walk.
_PRODUCT_POWERS = {2.0: "", 3.0: "m", 4.0: "s", 5.0: "sm", 6.0: "ms", 7.0: "msm", 8.0: "ss"}


def _full(x: np.ndarray | np.float64, v: float) -> np.ndarray | np.float64:
    """The constant ``v`` in the shape of ``x``: a point's is a float64 scalar."""
    return np.float64(v) if type(x) is np.float64 else np.full_like(x, v)


def _power(base, exponent):
    # numpy's power takes fast paths (0.5, -1, 2) for an exponent of stride
    # 0, as a scalar's is, which round differently from its general loop; a
    # point's exponent goes in as a one-element array
    if type(exponent) is np.float64:
        return np.power(base, exponent.reshape(1))[0]
    return np.power(base, exponent)


def _walk(node: Node, x: np.ndarray | np.float64,
          guards: list[tuple[np.ndarray, str]]) -> np.ndarray | np.float64 | float:
    # Constant subtrees stay Python floats: IEEE-754 arithmetic on them and
    # numpy's on broadcast arrays agree bit for bit.  An array is built only
    # where an operation needs one.  A guard is appended only when it can
    # fire; the rest keep the post-order, so the reported error is unchanged.
    # A value at a point where a guard fires is never returned and reaches
    # only guards later in post-order, so it is not replaced by NaN.  x is an
    # array, or a point as a float64 scalar, on which numpy's ufuncs give
    # the bits of a one-element array.  Dispatch is on the exact type, the
    # most frequent node and operators first.
    kind = type(node)
    if kind is Binary:
        lv = _walk(node.left, x, guards)
        rv = _walk(node.right, x, guards)
        op = node.op
        if op == "*":
            return lv * rv
        if op == "+":
            return lv + rv
        if op == "-":
            return lv - rv
        if op == "/":
            if type(rv) is float:
                if rv != 0:
                    return lv / rv
                rv = _full(x, rv)
            guards.append((rv == 0, "division by zero"))
            return lv / rv
        if op == "^":
            if type(rv) is float and rv in _PRODUCT_POWERS:
                # rounded products in place of np.power, whose last bit
                # follows its SIMD dispatch: relative error at most
                # (k-1)*2**-53, the same bits on every CPU, and a constant
                # base stays a float.  A finite base has no domain failure
                # and an overflow is inf, so no guard is needed.  p is a new
                # value, so the steps may update it in place.
                p = lv * lv
                for step in _PRODUCT_POWERS[rv]:
                    if step == "s":
                        p *= p
                    else:
                        p *= lv
                return p
            if type(lv) is float:
                lv = _full(x, lv)
            if type(rv) is float:
                # an exponent broadcast from a float would have stride 0 and
                # take numpy's fast paths (see _power)
                r, rv = rv, _full(x, rv)
                if not (r.is_integer() or math.isinf(r)):
                    guards.append((lv < 0, "negative base with non-integer exponent"))
                if r < 0:
                    guards.append((lv == 0, "zero raised to a negative exponent"))
                return _power(lv, rv)
            frac_exp = rv != np.round(rv)
            guards.append(((lv < 0) & frac_exp, "negative base with non-integer exponent"))
            guards.append(((lv == 0) & (rv < 0), "zero raised to a negative exponent"))
            return _power(lv, rv)
        raise AssertionError(op)
    if kind is Var:
        return x
    if kind is Num:
        return float(node.value)
    if kind is Unary:
        v = _walk(node.arg, x, guards)
        if node.op == "neg":
            return -v
        if node.op == "abs":
            return abs(v)
        if type(v) is float:
            v = _full(x, v)
        if node.op == "exp":
            return np.exp(v)
        if node.op == "ln":
            guards.append((~(v > 0), "ln of non-positive argument"))
            return np.log(v)
        if node.op == "sqrt":
            guards.append((v < 0, "sqrt of negative argument"))
            return np.sqrt(v)
        raise AssertionError(node.op)
    if kind is Const:
        return _CONSTANTS[node.name]
    raise TypeError(f"not an AST node: {node!r}")


def evaluate_array(f: Expr, xs: np.ndarray | np.float64) -> np.ndarray | np.float64:
    """Evaluate ``f`` elementwise on a 1-D array of finite points.

    On failure raises the typed error for the smallest failing index, so
    witness selection is independent of internal evaluation order.  The
    values are a new array, never ``xs`` itself, even where f is x.

    A single point given as an ``np.float64`` runs the same walk on the
    scalar and returns an ``np.float64``, bit-identical to element 0 of the
    one-element array, or raises the same error with ``index=0``; it builds
    no array for the point.
    """
    if type(xs) is np.float64:
        return _evaluate_point(f, xs)
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
    elif vals is pts:  # f is x: a caller may write into what it gets
        vals = pts.copy()
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


def _evaluate_point(f: Expr, x: np.float64) -> np.float64:
    if not math.isfinite(x):
        raise ValueError("evaluation points must be finite")
    guards: list[tuple[np.ndarray, str]] = []
    with np.errstate(all="ignore"):
        val = _walk(f.root, x, guards)
    # the first guard in post-order, as the array path reports at one index
    for fired, reason in guards:
        if fired:
            raise DomainError(reason, x=float(x), index=0)
    if not math.isfinite(val):
        raise Overflow(x=float(x), index=0)
    return np.float64(val)


def evaluate(f: Expr, x: float) -> float:
    """Evaluate ``f`` at a single finite point; see :func:`evaluate_array`.

    The point goes to ``evaluate_array`` as an ``np.float64``: the same bits
    and the same errors as a one-element array, at a fraction of its cost.
    """
    return float(evaluate_array(f, np.float64(x)))


class PositivityCheck(NamedTuple):
    ok: bool
    witness: float | None
    detail: str | None


def grid(a: float, b: float, points: int) -> np.ndarray:
    """``np.linspace(a, b, points)``, bit for bit, for ``points >= 2``.

    The same steps as numpy's, without its Python wrapper, which costs
    about twice the arithmetic on a grid of a few hundred points: the
    width and the step are rounded once each, every point is ``m*step +
    a``, and the last is ``b``.  Where the step rounds to 0 (a width of a
    few subnormals), each ``m`` is divided by ``points - 1`` and multiplied
    by the width instead, as numpy does.  A count that is not an integer
    raises ``TypeError``, as it does in numpy.
    """
    div = operator.index(points) - 1
    if div < 1:
        raise ValueError(f"a grid needs at least 2 points, got {points}")
    delta = b - a
    step = delta / div
    y = np.arange(points, dtype=float)
    if step == 0:
        y /= div
        y *= delta
    else:
        y *= step
    y += a
    y[-1] = b
    return y


# The two newest checks of an Expr, newest first, each (f, interval, n,
# result).  An entry holds f and the interval, so neither id passes to
# another object while it is kept.  Only an Expr enters: its tree is
# immutable, whereas a chord check's _Segment is new for every pair.  The
# tuple is replaced whole, so a reader in another thread sees one memo or
# the next, never a mix.
_checked: tuple[tuple[Expr, Interval, int, PositivityCheck], ...] = ()


def check_positive(f: Expr, interval: Interval, n: int = 257) -> PositivityCheck:
    """Sample ``f`` on ``n + 1`` equally spaced points and certify positivity.

    Returns a failed check with the smallest-index witness where ``f`` is
    non-positive or not evaluable.  A discontinuity strictly between grid
    points goes undetected; callers choose ``n`` accordingly.

    The two newest checks of an :class:`Expr` are remembered, failing ones
    too: the same ``Expr`` object on the same ``Interval`` object with an
    equal ``n`` gets its result back without evaluating ``f`` again.  A
    search checks each candidate when it draws it and again in its target.
    """
    global _checked
    n = operator.index(n)
    if n < 2:
        raise ValueError(f"grid size must be >= 2, got {n}")
    memo = _checked  # one read: another thread may replace it
    for entry in memo:
        if entry[0] is f and entry[1] is interval and entry[2] == n:
            return entry[3]
    result = _check_positive(f, interval, n)
    if type(f) is Expr:
        _checked = ((f, interval, n, result),) + memo[:1]
    return result


def _check_positive(f, interval: Interval, n: int) -> PositivityCheck:
    xs = grid(interval.a, interval.b, n + 1)
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
