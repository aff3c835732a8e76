import gc
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hhv import convexity, expr
from hhv.errors import DomainError, EvalError, Overflow, ParseError, UnknownIdentifierError
from hhv.expr import (
    Binary, Const, Expr, Interval, Num, Unary, Var,
    check_positive, evaluate, evaluate_array, grid, parse, serialize,
)


class TestParse:
    def test_variable_identity(self):
        assert parse("x").root == Var()

    def test_structure_forced_by_grammar(self):
        assert parse("exp(2*x) + 1").root == Binary(
            "+", Unary("exp", Binary("*", Num(2.0), Var())), Num(1.0)
        )

    def test_power_right_associative_against_ast_oracle(self):
        # hand-built oracle: 2^(3^2) = 512, not (2^3)^2 = 64
        oracle = Binary("^", Num(2.0), Binary("^", Num(3.0), Num(2.0)))
        assert parse("2^3^2").root == oracle
        assert evaluate(parse("2^3^2"), 0.37) == 512.0

    def test_unary_minus_binds_looser_than_power(self):
        assert evaluate(parse("-2^2"), 0.0) == -4.0
        assert evaluate(parse("x^-1"), 4.0) == 0.25

    def test_precedence_mul_over_add(self):
        assert evaluate(parse("1 + 2*3"), 0.0) == 7.0
        assert evaluate(parse("(1 + 2)*3"), 0.0) == 9.0

    def test_constants(self):
        assert evaluate(parse("e"), 0.0) == math.e
        assert evaluate(parse("pi"), 0.0) == math.pi

    def test_scientific_literals(self):
        assert evaluate(parse("1e-07"), 0.0) == 1e-7
        assert evaluate(parse("2.5E+2"), 0.0) == 250.0

    def test_function_requires_parentheses(self):
        with pytest.raises(ParseError) as exc:
            parse("exp x")
        assert exc.value.offset == 4
        assert "'('" in exc.value.expected

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as exc:
            parse("2*y + 1")
        assert exc.value.offset == 2

    def test_syntax_error_offset_and_expected(self):
        with pytest.raises(ParseError) as exc:
            parse("1 + * 2")
        assert exc.value.offset == 4
        assert exc.value.expected

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("x 2")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse("   ")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse("exp(x")

    @pytest.mark.parametrize("text, message, offset", [
        ("x $ 2", "unexpected character '$'", 2),
        ("1e999", "number literal '1e999' overflows", 0),
    ])
    def test_lexical_errors(self, text, message, offset):
        with pytest.raises(ParseError, match=re.escape(message)) as exc:
            parse(text)
        assert exc.value.offset == offset


# strategy for random ASTs; leaves kept positive so texts stay short
_leaves = st.one_of(
    st.builds(Num, st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)),
    st.just(Var()),
    st.builds(Const, st.sampled_from(["e", "pi"])),
)
_asts = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.builds(Unary, st.sampled_from(["neg", "exp", "ln", "sqrt", "abs"]), children),
        st.builds(Binary, st.sampled_from(["+", "-", "*", "/", "^"]), children, children),
    ),
    max_leaves=25,
)


class TestRoundTrip:
    @given(_asts)
    def test_serialize_parse_is_identity_on_asts(self, node):
        assert parse(serialize(node)).root == node

    @pytest.mark.parametrize("text", [
        "x", "-x", "--x", "2^3^2", "x^-2*3", "1 - 2 - 3", "1 - (2 - 3)",
        "exp(2*x) + 1", "x*-2", "2/3/4", "abs(-x)^2", "sqrt(x)/ln(x + 2)",
        "-(x + 1)", "(2^3)^2", "1e-07*x + e",
    ])
    def test_reserialization_is_stable(self, text):
        once = parse(text)
        again = parse(serialize(once.root))
        assert again.root == once.root


class TestEvaluate:
    def test_exp_at_zero(self):
        assert evaluate(parse("exp(x)"), 0.0) == 1.0

    def test_polynomial_exact(self):
        assert evaluate(parse("x^2 + 3*x"), 2.0) == 10.0

    def test_ln_domain_error(self):
        with pytest.raises(DomainError):
            evaluate(parse("ln(x)"), 0.0)

    def test_sqrt_domain_error(self):
        with pytest.raises(DomainError):
            evaluate(parse("sqrt(x)"), -1.0)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            evaluate(parse("1/x"), 0.0)

    def test_zero_to_negative_power(self):
        with pytest.raises(DomainError):
            evaluate(parse("x^-1"), 0.0)

    def test_negative_base_fractional_exponent(self):
        with pytest.raises(DomainError):
            evaluate(parse("x^0.5"), -2.0)

    def test_negative_base_integer_exponent_ok(self):
        assert evaluate(parse("x^2"), -3.0) == 9.0

    def test_overflow_is_typed(self):
        with pytest.raises(Overflow):
            evaluate(parse("exp(exp(x))"), 10.0)

    def test_never_a_silent_nan(self):
        # inf - inf would be NaN; must surface as a typed error instead
        with pytest.raises(Overflow):
            evaluate(parse("exp(x) - exp(x + 1e-9)"), 1000.0)

    def test_eval_is_pure(self):
        f = parse("exp(x^2) - ln(x + 2)/3")
        vals = {evaluate(f, 0.731) for _ in range(10)}
        assert len(vals) == 1

    def test_eval_array_matches_scalar(self):
        f = parse("exp(x^2) - ln(x + 2)/3")
        xs = np.linspace(-1, 1, 17)
        arr = f.eval_array(xs)
        assert [evaluate(f, float(x)) for x in xs] == list(arr)

    @pytest.mark.parametrize("writeable", [True, False])
    def test_eval_array_never_hands_back_its_input(self, writeable):
        # f = x: a caller that writes into the values must not write into xs
        xs = np.linspace(0.5, 2.0, 9)
        before = xs.tobytes()
        xs.flags.writeable = writeable
        vals = parse("x").eval_array(xs)
        assert vals is not xs and not np.shares_memory(vals, xs)
        assert vals.flags.writeable and vals.tobytes() == before
        np.log(vals, out=vals)
        assert xs.tobytes() == before

    def test_error_carries_smallest_index(self):
        f = parse("sqrt(1 - x) + ln(x)")
        with pytest.raises(DomainError) as exc:
            f.eval_array(np.array([0.0, 0.5, 2.0]))
        # x=0 fails ln before x=2 fails sqrt; smallest index wins
        assert exc.value.index == 0
        assert exc.value.x == 0.0

    def test_rejects_nonfinite_points(self):
        with pytest.raises(ValueError):
            evaluate(parse("x"), math.inf)


# Reference: the fully guarded walk, which builds an array for every constant
# and appends every guard.  evaluate_array must agree with it bit for bit.
_REF_CONSTANTS = {"e": math.e, "pi": math.pi}


def _ref_constant(node):
    """The float that evaluate_array keeps for a constant subtree, or None
    where it builds an array: for x, exp, ln, sqrt, a division by a zero
    constant and a power whose exponent is not a constant 2 to 8."""
    if isinstance(node, Num):
        return float(node.value)
    if isinstance(node, Const):
        return _REF_CONSTANTS[node.name]
    if isinstance(node, Unary) and node.op in ("neg", "abs"):
        v = _ref_constant(node.arg)
        return None if v is None else (-v if node.op == "neg" else abs(v))
    if isinstance(node, Binary):
        lv, rv = _ref_constant(node.left), _ref_constant(node.right)
        if lv is None or rv is None:
            return None
        if node.op == "^":
            return _ref_power(lv, int(rv)) if rv in range(2, 9) else None
        if node.op == "/":
            return lv / rv if rv != 0 else None
        if node.op == "+":
            return lv + rv
        if node.op == "-":
            return lv - rv
        return lv * rv
    return None


def _ref_power(base, k):
    """base**k by left-to-right binary powering: for each bit of k below the
    leading one, square, then multiply by base where the bit is set."""
    p = base
    for bit in bin(k)[3:]:
        p = p * p
        if bit == "1":
            p = p * base
    return p


def _ref_walk(node, x, guards):
    if isinstance(node, Num):
        return np.full_like(x, node.value)
    if isinstance(node, Var):
        return x
    if isinstance(node, Const):
        return np.full_like(x, _REF_CONSTANTS[node.name])
    if isinstance(node, Unary):
        v = _ref_walk(node.arg, x, guards)
        if node.op == "neg":
            return -v
        if node.op == "exp":
            return np.exp(v)
        if node.op == "ln":
            guards.append((~(v > 0), "ln of non-positive argument"))
            return np.log(np.where(v > 0, v, np.nan))
        if node.op == "sqrt":
            guards.append((v < 0, "sqrt of negative argument"))
            return np.sqrt(np.where(v >= 0, v, np.nan))
        if node.op == "abs":
            return np.abs(v)
        raise AssertionError(node.op)
    if isinstance(node, Binary):
        lv = _ref_walk(node.left, x, guards)
        rv = _ref_walk(node.right, x, guards)
        op = node.op
        if op == "+":
            return lv + rv
        if op == "-":
            return lv - rv
        if op == "*":
            return lv * rv
        if op == "/":
            guards.append((rv == 0, "division by zero"))
            return lv / np.where(rv != 0, rv, np.nan)
        if op == "^":
            neg_base = lv < 0
            frac_exp = rv != np.round(rv)
            guards.append((neg_base & frac_exp, "negative base with non-integer exponent"))
            guards.append(((lv == 0) & (rv < 0), "zero raised to a negative exponent"))
            k = _ref_constant(node.right)
            if k in range(2, 9):
                return _ref_power(lv, int(k))
            safe = np.where(neg_base & frac_exp, np.nan, lv)
            return np.power(safe, rv)
        raise AssertionError(op)
    raise TypeError(f"not an AST node: {node!r}")


def _ref_evaluate_array(f, xs):
    pts = np.asarray(xs, dtype=float)
    if pts.size and not np.all(np.isfinite(pts)):
        raise ValueError("evaluation points must be finite")
    guards = []
    with np.errstate(all="ignore"):
        vals = _ref_walk(f.root, pts, guards)
    vals = np.asarray(vals, dtype=float)
    bad_domain = np.zeros(pts.shape, dtype=bool)
    for mask, _ in guards:
        bad_domain |= mask
    bad = bad_domain | ~np.isfinite(vals)
    if bad.any():
        i = int(np.argmax(bad.ravel()))
        at = float(pts.ravel()[i])
        for mask, reason in guards:
            if mask.ravel()[i]:
                raise DomainError(reason, x=at, index=i)
        raise Overflow(x=at, index=i)
    return vals


def _outcome(evaluator, f, xs):
    try:
        return evaluator(f, xs), None
    except EvalError as err:
        return None, (type(err), getattr(err, "reason", None), err.index, err.x)


def _assert_matches_reference(f, xs):
    want, want_err = _outcome(_ref_evaluate_array, f, xs)
    got, got_err = _outcome(evaluate_array, f, xs)
    assert got_err == want_err
    if want is not None:
        assert got.dtype == want.dtype and got.shape == want.shape
        # bytes, not ==, so that -0.0 and 0.0 count as different
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
    return got, got_err


# _asts never builds integral, zero or signed-zero constants, which are what
# decide whether a division or power guard can fire
_wide_leaves = st.one_of(
    _leaves,
    st.builds(Num, st.integers(min_value=0, max_value=12).map(float)),
    st.builds(Num, st.sampled_from([0.0, -0.0, 0.5, 1.5, -2.0, 1e300])),
)
_wide_asts = st.recursive(
    _wide_leaves,
    lambda children: st.one_of(
        st.builds(Unary, st.sampled_from(["neg", "exp", "ln", "sqrt", "abs"]), children),
        st.builds(Binary, st.sampled_from(["+", "-", "*", "/", "^"]), children, children),
    ),
    max_leaves=12,
)
_points = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0]),
        st.floats(min_value=-2.0, max_value=2.0),
    ),
    min_size=1, max_size=9,
)


class TestGuardElision:
    @settings(max_examples=400, deadline=None)
    @given(_wide_asts, _points)
    def test_bit_identical_to_guarded_walk(self, node, points):
        _assert_matches_reference(Expr(node, serialize(node)), np.array(points))

    def test_integral_power_of_negative_base(self):
        vals, err = _assert_matches_reference(parse("x^2"), np.array([-3.0, 0.0, 1.5]))
        assert err is None
        assert list(vals) == [9.0, 0.0, 2.25]

    def test_square_is_the_product(self):
        # the bits of x*x, which numpy's x**2 and the chains' squares also give
        xs = np.linspace(-3.7, 3.7, 257)
        vals, err = _assert_matches_reference(parse("x^2"), xs)
        assert err is None and vals.tobytes() == (xs * xs).tobytes()

    @pytest.mark.parametrize("text", ["x^0.5", "x^-1"])
    def test_constant_exponent_avoids_scalar_fast_paths(self, text):
        # numpy's sqrt/reciprocal paths for these scalar exponents differ
        # from the general power in the last bit on ~5% of points
        _assert_matches_reference(parse(text), np.linspace(0.01, 3.7, 257))

    @pytest.mark.parametrize("text, k", [("x^9", 9.0), ("x^-2", -2.0)])
    def test_other_exponents_take_the_general_power(self, text, k):
        xs = np.linspace(0.01, 3.7, 257)
        vals, err = _assert_matches_reference(parse(text), xs)
        assert err is None and vals.tobytes() == np.power(xs, np.full_like(xs, k)).tobytes()

    @pytest.mark.parametrize("text, xs, reason, index", [
        ("x^-2", [1.0, 0.0], "zero raised to a negative exponent", 1),
        ("x^0.5", [4.0, -1.0], "negative base with non-integer exponent", 1),
        ("(x - 1)^(-1.5)", [2.0, 0.5, 1.0], "negative base with non-integer exponent", 1),
        ("(x - 1)^(-1.5)", [2.0, 1.0], "zero raised to a negative exponent", 1),
        ("1/0", [0.5, 1.0], "division by zero", 0),
        ("1/(x - x)", [0.5, 1.0], "division by zero", 0),
    ])
    def test_guard_still_fires(self, text, xs, reason, index):
        _, err = _assert_matches_reference(parse(text), np.array(xs))
        assert err is not None
        assert err[:3] == (DomainError, reason, index)

    def test_division_by_nonzero_constant(self):
        xs = np.array([-1.5, 0.0, 3.0])
        vals, err = _assert_matches_reference(parse("x/0.5"), xs)
        assert err is None
        assert list(vals) == [-3.0, 0.0, 6.0]

    @pytest.mark.parametrize("text, value", [("2", 2.0), ("-(e)", -math.e)])
    def test_constant_root_is_float_array_of_input_shape(self, text, value):
        xs = np.linspace(0.0, 1.0, 5)
        vals, err = _assert_matches_reference(parse(text), xs)
        assert err is None
        assert isinstance(vals, np.ndarray) and vals.dtype == np.float64
        assert vals.shape == xs.shape
        assert (vals == value).all()


def _point_outcome(evaluator):
    """(value, None), or (None, (type, message, x's repr, index)) for an
    evaluation error; repr tells -0.0 from 0.0."""
    try:
        return evaluator(), None
    except EvalError as err:
        return None, (type(err), str(err), repr(err.x), err.index)


def _assert_point_matches_array(f, x):
    """evaluate(f, x) has the bits of a one-element array's value, or raises
    its error, and no operation on the way warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, got_err = _point_outcome(lambda: evaluate(f, x))
        want, want_err = _point_outcome(lambda: evaluate_array(f, np.array([x]))[0])
    assert got_err == want_err
    if want_err is None:
        assert type(got) is float
        assert np.float64(got).tobytes() == want.tobytes()
    return got, got_err


class TestScalarPath:
    """A single point runs the array walk on an np.float64 scalar."""

    @settings(max_examples=400, deadline=None)
    @given(_wide_asts, _points)
    def test_bit_identical_to_one_element_array(self, node, points):
        f = Expr(node, serialize(node))
        for x in points:
            _assert_point_matches_array(f, x)

    @pytest.mark.parametrize("text, x, want", [
        ("x", -0.0, -0.0),
        ("1/exp(800)", 0.0, 0.0),  # finite from an infinite intermediate
        ("-(x*0)", 1.0, -0.0),
        ("2", 0.3, 2.0),
    ])
    def test_values(self, text, x, want):
        got, err = _assert_point_matches_array(parse(text), x)
        assert err is None and np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("text, x, kind, reason", [
        ("x/0", 1.0, DomainError, "division by zero"),
        ("1/(x - x)", 0.5, DomainError, "division by zero"),
        ("ln(x)", -1.0, DomainError, "ln of non-positive argument"),
        ("ln(x)", -0.0, DomainError, "ln of non-positive argument"),
        ("sqrt(x)", -1.0, DomainError, "sqrt of negative argument"),
        ("x^1.5", -2.0, DomainError, "negative base with non-integer exponent"),
        ("(-2)^x", 0.5, DomainError, "negative base with non-integer exponent"),
        ("x^-1", 0.0, DomainError, "zero raised to a negative exponent"),
        # the first guard in post-order wins, as at one index of an array
        ("sqrt(x) + ln(x)", -1.0, DomainError, "sqrt of negative argument"),
        ("exp(800)", 0.0, Overflow, None),
        ("exp(x)", 800.0, Overflow, None),
    ])
    def test_errors(self, text, x, kind, reason):
        _, err = _assert_point_matches_array(parse(text), x)
        assert err is not None and err[0] is kind and err[2:] == (repr(x), 0)
        if reason is not None:
            assert err[1].startswith(reason)

    @pytest.mark.parametrize("text", ["x^0.5", "x^-1", "x^(x - 1.5)", "x^(3 - x)", "x^(x + 1)"])
    def test_exponents_of_numpy_fast_paths(self, text):
        # numpy's power rounds 0.5, -1 and 2 differently for an exponent of
        # stride 0, as a scalar's is; each point must still give the array's bits
        f = parse(text)
        xs = np.concatenate([np.linspace(0.01, 3.7, 257), [0.5, 1.0, 2.0, 3.0]])
        vals = evaluate_array(f, xs)
        assert np.array([evaluate(f, x) for x in xs]).tobytes() == vals.tobytes()

    def test_nonfinite_point_is_rejected(self):
        for x in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="must be finite"):
                evaluate(parse("x"), x)

    def test_one_point_call_of_evaluate_array(self, monkeypatch):
        # looked up at call time, so a wrapper of expr.evaluate_array sees a
        # call of size 1
        seen = []
        monkeypatch.setattr(expr, "evaluate_array",
                            lambda f, xs: seen.append(np.size(xs)) or evaluate_array(f, xs))
        assert evaluate(parse("exp(x)"), 0.0) == 1.0
        assert seen == [1]


_FMAX = float(np.finfo(float).max)
_TINY = float(np.finfo(float).tiny)  # the least normal float
# |x^k| rounds to inf from 2**1024 - 2**970, half an ulp above _FMAX
with mpmath.workprec(64):
    _OVERFLOW = mpmath.mpf(2) ** 1024 - mpmath.mpf(2) ** 970


@st.composite
def _power_cases(draw):
    """(k, bases) for x^k: signed zeros, subnormals, bases near the underflow
    and overflow thresholds of x^k and anywhere in the float range, of
    either sign."""
    k = draw(st.integers(min_value=2, max_value=8))
    magnitudes = st.one_of(
        st.sampled_from([0.0, 5e-324, _TINY, 1.0, _FMAX]),
        st.floats(min_value=0.0, max_value=_TINY),
        st.floats(min_value=0.0, max_value=_FMAX),
        st.floats(min_value=0.999, max_value=1.001).map(lambda s: s * _TINY ** (1 / k)),
        st.floats(min_value=0.999, max_value=1.001).map(lambda s: s * _FMAX ** (1 / k)),
    )
    signed = st.tuples(magnitudes, st.booleans()).map(lambda mn: -mn[0] if mn[1] else mn[0])
    return k, draw(st.lists(signed, min_size=1, max_size=33))


class TestIntegerPowerOracle:
    """x^k for k = 2..8 against mpmath.  Where x^k is a normal float, the
    products' relative error is at most (k-1)*2**-53, the first-order form
    of Higham's product bound γ_{k-1}; where it is subnormal or underflows,
    each of the k-1 products may also lose an ulp of the subnormal range.
    The sign is exact, of a zero too, and Overflow is raised where np.power
    overflows, at the same index."""

    @settings(max_examples=300, deadline=None)
    @given(_power_cases())
    def test_products_are_within_the_product_bound(self, case):
        k, bases = case
        with mpmath.workprec(600):  # x^k of a float is exact in 8*53 bits
            exact = [mpmath.mpf(b) ** k for b in bases]
            # within 2**-40 of the threshold the rounding of either power may
            # decide whether x^k overflows
            edge = [abs(abs(e) / _OVERFLOW - 1) < mpmath.mpf(2) ** -40 for e in exact]
        cases = [(b, e) for b, e, near in zip(bases, exact, edge) if not near]
        assume(cases)
        xs = np.array([b for b, _ in cases])
        with np.errstate(all="ignore"):
            over = ~np.isfinite(np.power(xs, np.full_like(xs, k)))
        f = parse(f"x^{k}")
        if over.any():
            i = int(over.argmax())
            with pytest.raises(Overflow) as exc:
                evaluate_array(f, xs)
            assert exc.value.index == i and exc.value.x == xs[i]
        got = evaluate_array(f, xs[~over])
        finite = [c for c, o in zip(cases, over) if not o]
        with mpmath.workprec(600):
            for g, (b, e) in zip(got, finite):
                assert np.signbit(g) == (np.signbit(b) and k % 2 == 1)
                err = abs(mpmath.mpf(float(g)) - e)
                if abs(e) >= _TINY:
                    assert err <= (k - 1) * mpmath.mpf(2) ** -53 * abs(e)
                else:
                    assert err <= (k - 1) * (mpmath.mpf(2) ** -53 * abs(e) + mpmath.mpf(2) ** -1074)


class TestCheckPositive:
    def test_exp_positive(self):
        res = check_positive(parse("exp(x)"), Interval(0, 1), 64)
        assert res.ok and res.witness is None

    def test_negative_endpoint(self):
        res = check_positive(parse("x"), Interval(-1, 1), 64)
        assert not res.ok
        assert res.witness == -1.0

    def test_root_witness_in_lower_half(self):
        # roots at +/- 0.5 by direct algebra, so f <= 0 on [0, 0.5)
        res = check_positive(parse("x^2 - 0.25"), Interval(0, 1), 64)
        assert not res.ok
        assert 0.0 <= res.witness < 0.5

    def test_eval_failure_is_negative_verdict(self):
        res = check_positive(parse("ln(x)"), Interval(0, 1), 16)
        assert not res.ok
        assert res.witness == 0.0

    def test_nonpositive_before_eval_failure_wins(self):
        # f(x) = -sqrt(1-x): negative from x=0 onwards, unevaluable after x=1
        res = check_positive(parse("-sqrt(1 - x)"), Interval(0, 2), 64)
        assert not res.ok
        assert res.witness == 0.0

    def test_true_implies_positive_on_grid(self):
        f = parse("exp(x) - 0.5")
        n = 32
        res = check_positive(f, Interval(0, 1), n)
        assert res.ok
        xs = np.linspace(0, 1, n + 1)
        assert (f.eval_array(xs) > 0).all()

    def test_grid_size_validated(self):
        with pytest.raises(ValueError):
            check_positive(parse("x"), Interval(0, 1), 1)

    @pytest.mark.parametrize("text, detail", [
        ("x - 0.5", "f(x) = -0.5 is not positive"),
        ("-sqrt(1 - x)", "f(x) = -1.0 is not positive"),
    ])
    def test_detail_prints_a_float(self, text, detail):
        res = check_positive(parse(text), Interval(0, 2), 64)
        assert res.detail == detail

    @pytest.mark.parametrize("text, calls", [
        ("exp(x)", 1),
        ("ln(x)", 1),  # fails at the first point: nothing before it to scan
        ("exp(sqrt(0.5 - x))", 2),  # the points before the failure are scanned again
    ])
    def test_evaluations_per_check(self, text, calls, monkeypatch):
        seen = []
        monkeypatch.setattr(expr, "evaluate_array",
                            lambda f, xs: seen.append(len(xs)) or evaluate_array(f, xs))
        check_positive(parse(text), Interval(0, 1), 64)
        assert len(seen) == calls

    def test_failure_leaves_no_reference_cycle(self):
        # a kept EvalError would hold this frame through its traceback
        f = parse("exp(sqrt(0.5 - x))")
        check_positive(f, Interval(0, 1), 64)  # first-call set-up may hold cycles
        gc.collect()
        gc.disable()
        try:
            res = check_positive(f, Interval(0, 1), 64)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert res.witness > 0.5 and res.detail.startswith("sqrt of negative argument")


class TestPositivityMemo:
    """The two newest checks of an Expr, held by identity."""

    @pytest.fixture
    def grid_evals(self, monkeypatch):
        monkeypatch.setattr(expr, "_checked", ())
        seen = []
        monkeypatch.setattr(expr, "evaluate_array",
                            lambda f, xs: seen.append(f) or evaluate_array(f, xs))
        return seen

    def test_repeat_check_evaluates_once(self, grid_evals):
        f, unit = parse("exp(x)"), Interval(0, 1)
        first = check_positive(f, unit, 64)
        assert check_positive(f, unit, 64) is first
        assert grid_evals == [f]

    def test_third_expr_evicts_the_oldest(self, grid_evals):
        unit = Interval(0, 1)
        f, g, h = parse("exp(x)"), parse("1 + x"), parse("2 - x")
        for fn in (f, g, h):
            check_positive(fn, unit, 64)
        grid_evals.clear()
        check_positive(g, unit, 64)
        check_positive(h, unit, 64)
        assert grid_evals == []
        check_positive(f, unit, 64)
        assert grid_evals == [f]

    def test_other_interval_object_or_n_misses(self, grid_evals):
        f, unit = parse("exp(x)"), Interval(0, 1)
        check_positive(f, unit, 64)
        check_positive(f, Interval(0, 1), 64)  # equal, but another object
        check_positive(f, unit, 32)
        assert grid_evals == [f, f, f]

    def test_a_chord_segment_never_enters(self, grid_evals):
        # a chord check makes a new _Segment for every pair; only an Expr,
        # whose tree is immutable, is remembered
        f, unit = parse("exp(x)"), Interval(0, 1)
        seg = convexity._Segment(f, 0.25, 0.75)
        check_positive(seg, unit, 64)
        check_positive(seg, unit, 64)
        assert grid_evals == [f, f] and expr._checked == ()

    @pytest.mark.parametrize("text", ["x - 0.5", "exp(sqrt(0.5 - x))"])
    def test_remembered_failure_equals_a_fresh_check(self, text, grid_evals):
        f, unit = parse(text), Interval(0, 1)
        fresh = check_positive(f, unit, 64)
        calls = len(grid_evals)
        assert not fresh.ok
        assert check_positive(f, unit, 64) == fresh
        assert len(grid_evals) == calls
        assert check_positive(parse(text), unit, 64) == fresh

    def test_count_must_be_an_integer(self):
        with pytest.raises(TypeError):
            check_positive(parse("x"), Interval(0, 1), 64.0)


def _bits(xs):
    return np.asarray(xs, dtype=float).view(np.uint64).tolist()


# a few subnormals apart: the step rounds to 0 and numpy takes its other branch
_subnormal_ends = st.tuples(st.integers(-20, 20), st.integers(-4, 4)).map(
    lambda mk: (mk[0] * 5e-324, (mk[0] + mk[1]) * 5e-324))
_ends = st.one_of(
    st.tuples(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3)),
    st.tuples(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0])),
    st.tuples(st.floats(-1e308, 1e308), st.floats(-1e308, 1e308)),
    _subnormal_ends,
)


class TestGrid:
    @given(_ends, st.sampled_from([2, 3, 257, 258]))
    @settings(max_examples=400, deadline=None)
    def test_equals_linspace_bit_for_bit(self, ends, points):
        a, b = ends
        assume(math.isfinite(b - a))
        assert _bits(grid(a, b, points)) == _bits(np.linspace(a, b, points))

    @pytest.mark.parametrize("a, b", [(0.0, 1e-322), (-0.0, 0.0), (5e-324, -5e-324)])
    def test_step_zero_branch(self, a, b):
        assert (b - a) / 257 == 0
        assert _bits(grid(a, b, 258)) == _bits(np.linspace(a, b, 258))

    def test_count_must_be_an_integer(self):
        for points in (2.0, 258.5):
            with pytest.raises(TypeError):
                np.linspace(0.0, 1.0, points)
            with pytest.raises(TypeError):
                grid(0.0, 1.0, points)

    def test_count_below_two_rejected(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            grid(0.0, 1.0, 1)


class TestInterval:
    def test_orders_strictly(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_finite_required(self):
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)

    @pytest.mark.parametrize("a, b", [(-1e308, 1e308), (-1.7e308, 0.2e308)])
    def test_overflowing_width_rejected(self, a, b):
        with pytest.raises(ValueError, match="interval width b - a must be finite"):
            Interval(a, b)
        assert Interval(-0.8e308, 0.8e308).width == 1.6e308

    def test_midpoint_and_width(self):
        iv = Interval(1.0, 3.0)
        assert iv.midpoint == 2.0
        assert iv.width == 2.0

    def test_midpoint_of_ends_whose_sum_overflows(self):
        assert Interval(1e308, 1.7e308).midpoint == 1.35e308
        assert Interval(-1.7e308, -1e308).midpoint == -1.35e308

    # halving is exact above the lowest normal binade, and there the
    # halves-first sum rounds once, as the halved sum does
    @given(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False),
           st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False))
    @settings(max_examples=500, deadline=None)
    def test_midpoint_matches_halved_sum(self, a, b):
        assume(a < b and math.isfinite(b - a) and math.isfinite(a + b))
        assume(all(x == 0 or abs(x) >= 2.0**-1021 for x in (a, b)))
        assert Interval(a, b).midpoint.hex() == (0.5 * (a + b)).hex()
