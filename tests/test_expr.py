import gc
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hhv import expr
from hhv.errors import DomainError, EvalError, Overflow, ParseError, UnknownIdentifierError
from hhv.expr import (
    Binary, Const, Expr, Interval, Num, Unary, Var,
    check_positive, evaluate, evaluate_array, parse, serialize,
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

    @pytest.mark.parametrize("text", ["x^2", "x^0.5", "x^-1"])
    def test_constant_exponent_avoids_scalar_fast_paths(self, text):
        # numpy's square/sqrt/reciprocal paths for these scalar exponents
        # differ from the general power in the last bit on ~5% of points
        _assert_matches_reference(parse(text), np.linspace(0.01, 3.7, 257))

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


class TestInterval:
    def test_orders_strictly(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_finite_required(self):
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)

    def test_midpoint_and_width(self):
        iv = Interval(1.0, 3.0)
        assert iv.midpoint == 2.0
        assert iv.width == 2.0
