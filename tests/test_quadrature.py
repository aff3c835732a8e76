import gc
import math
import warnings
from typing import Callable, NamedTuple
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st, target

from hhv import chains, quadrature
from hhv.chains import eval_classic_hh, eval_dragomir_mond, eval_theorem1, eval_theorem2
from hhv.convexity import PhiMap
from hhv.errors import (
    DomainError, HHVError, MaxDepthExceeded, OpenPanelLimitExceeded, Overflow,
)
from hhv.expr import Interval, parse
from hhv.quadrature import (
    GAUSS_WEIGHTS, KRONROD_WEIGHTS, MAX_OPEN_PANELS, NODES, QuadratureResult, integrate,
    mean_value,
)

UNIT = Interval(0.0, 1.0)


class TestOracles:
    def test_linear_exact(self):
        res = integrate(lambda x: x, UNIT, 1e-12)
        assert res.value == pytest.approx(0.5, abs=1e-15)

    def test_quadratic_exact(self):
        # K31 is exact on polynomials of degree 46, so one panel suffices
        res = integrate(lambda x: x**2, UNIT, 1e-12)
        assert abs(res.value - 1.0 / 3.0) <= 1e-12

    def test_exp_closed_form(self):
        res = integrate(parse("exp(x)").eval_array, UNIT, 1e-10)
        assert abs(res.value - (math.e - 1.0)) <= 1e-10

    def test_result_invariants(self):
        res = integrate(np.sin, Interval(0.0, math.pi), 1e-10)
        assert isinstance(res, QuadratureResult)
        assert 0.0 < res.error_estimate <= 1e-10 * 2.0
        assert res.evaluations >= 31
        assert res.value == pytest.approx(2.0, abs=1e-9)


    def test_ends_whose_sum_overflows(self):
        # every midpoint is taken halves first, so a + b never forms
        res = integrate(lambda xs: np.ones_like(xs), Interval(1e308, 1.7e308))
        assert res.value == pytest.approx(0.7e308, rel=1e-15)

    @pytest.mark.parametrize("text, exact", [
        # the ends' values are near the float maximum; no panel sum overflows
        pytest.param("exp(709.5*x)", lambda: mp.expm1(mp.mpf(709.5)) / 709.5,
                     id="exp(709.5*x)"),
        pytest.param("exp(709.7*(1-x)) + exp(707.5*x)",
                     lambda: mp.expm1(mp.mpf(709.7)) / 709.7 + mp.expm1(mp.mpf(707.5)) / 707.5,
                     id="exp(709.7*(1-x)) + exp(707.5*x)"),
    ])
    def test_finite_integral_of_finite_values(self, text, exact):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = integrate(parse(text).eval_array, UNIT, 1e-10)
        with mp.workdps(30):
            assert abs(res.value - exact()) <= 1e-10 * exact()

    @pytest.mark.parametrize("tiny", [1e-12, 1e-200, 1e-300])
    def test_tolerance_is_relative_at_any_scale(self, tiny):
        # the budget is tol * ∫|f|, so a tiny f keeps its relative accuracy
        res = integrate(lambda x: tiny * np.exp(x), UNIT, 1e-10)
        assert abs(res.value - tiny * math.expm1(1.0)) <= 1e-10 * tiny * math.expm1(1.0)
        assert res.error_estimate <= 1e-10 * tiny * math.expm1(1.0)

    def test_min_magnitude_floors_the_budget(self):
        # ln(1 + 1e-9*x^2) is about 3e-10 on average and carries rounding
        # noise near eps: no budget relative to its magnitude can be met
        f = lambda x: np.log(1.0 + 1e-9 * x * x)
        with pytest.raises(MaxDepthExceeded):
            integrate(f, UNIT, 1e-10)
        res = integrate(f, UNIT, 1e-10, min_magnitude=1.0)
        exact = float(mp.quad(lambda x: mp.log1p(1e-9 * x * x), [0, 1]))
        assert abs(res.value - exact) <= 1e-10 and res.error_estimate <= 1e-10

    def test_zero_magnitude_falls_back_to_tol(self):
        res = integrate(lambda x: np.zeros_like(x), UNIT, 1e-10)
        assert (res.value, res.error_estimate, res.evaluations) == (0.0, 0.0, 31)


class TestProperties:
    @given(st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, alpha, beta):
        f = lambda x: np.exp(x)
        g = lambda x: x**3 - x
        tol = 1e-10
        combined = integrate(lambda x: alpha * f(x) + beta * g(x), UNIT, tol).value
        separate = (alpha * integrate(f, UNIT, tol).value
                    + beta * integrate(g, UNIT, tol).value)
        scale = max(1.0, abs(combined))
        assert abs(combined - separate) <= 2 * tol * scale

    @pytest.mark.parametrize("m", [0.1, 0.25, 0.5, 0.8, 0.99])
    def test_interval_additivity(self, m):
        f = parse("exp(x^2)").eval_array
        tol = 1e-10
        whole = integrate(f, UNIT, tol).value
        parts = (integrate(f, Interval(0.0, m), tol).value
                 + integrate(f, Interval(m, 1.0), tol).value)
        assert abs(whole - parts) <= 2 * tol

    @pytest.mark.parametrize("text", ["exp(x)", "exp(x^2)", "1/(1 + x)"])
    def test_reflection_identity(self, text):
        # integral over [a, b] is invariant under x -> a + b - x
        f = parse(text)
        tol = 1e-10
        direct = integrate(f.eval_array, UNIT, tol).value
        reflected = integrate(lambda xs: f.eval_array(1.0 - xs), UNIT, tol).value
        assert abs(direct - reflected) <= 2e-10


class TestMeanValue:
    def test_constant(self):
        assert mean_value(lambda x: np.full_like(x, 7.25), Interval(2, 5), 1e-12) \
            == pytest.approx(7.25, abs=1e-13)

    def test_exp_mean(self):
        assert mean_value(parse("exp(x)").eval_array, UNIT, 1e-10) \
            == pytest.approx(math.e - 1.0, abs=1e-10)

    def test_linear_symmetry(self):
        assert mean_value(lambda x: x, Interval(0, 2), 1e-12) \
            == pytest.approx(1.0, abs=1e-13)


class TestFailures:
    def test_integrable_singularity_hits_depth_limit(self):
        # 1/sqrt|x - 1/pi| is integrable but the panel holding the
        # singularity never meets its budget; must fail loudly
        f = parse("1/sqrt(abs(x - 1/pi))")
        with pytest.raises(MaxDepthExceeded):
            integrate(f.eval_array, UNIT, 1e-10)

    def test_jump_discontinuity_hits_depth_limit(self):
        step = lambda x: np.where(x < 1.0 / math.pi, 0.0, 1.0)
        with pytest.raises(MaxDepthExceeded):
            integrate(step, UNIT, 1e-12, max_depth=30)

    def test_domain_error_surfaces_with_abscissa(self):
        # the first node of the first panel is the first point below 1/2
        with pytest.raises(DomainError) as exc:
            integrate(parse("ln(x - 0.5)").eval_array, UNIT, 1e-10)
        assert (exc.value.x, exc.value.index) == (UNIT.midpoint + 0.5 * NODES[0], 0)

    def test_ends_are_never_evaluated(self):
        # ln is undefined at 0, an end, which the open rule never evaluates;
        # its integrable singularity there ends at the depth limit
        seen = []

        def ln(x):
            seen.append(x)
            return parse("ln(x)").eval_array(x)

        with pytest.raises(MaxDepthExceeded) as exc:
            integrate(ln, UNIT, 1e-10)
        assert (exc.value.a, exc.value.depth) == (0.0, 50)
        assert 0.0 < np.concatenate(seen).min() and np.concatenate(seen).max() < 1.0

    def test_nonfinite_integrand_rejected(self):
        def risky(x):
            with np.errstate(divide="ignore"):
                return 1.0 / (x - 0.5)

        with pytest.raises(Overflow):
            integrate(risky, UNIT, 1e-10)

    @pytest.mark.parametrize("text", [
        "1e308 + 0*x",  # on [0, 10] the integral is 1e309
    ])
    def test_overflowing_panel_sum_raises_overflow(self, text):
        # the integrand is finite everywhere; only the panel sums overflow,
        # and they raise at the first level, in its one call
        f = parse(text).eval_array
        calls = []

        def counted(x):
            calls.append(x.size)
            return f(x)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Overflow):
                integrate(counted, Interval(0.0, 10.0), 1e-10)
        assert calls == [31]

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, UNIT, 0.0)

    def test_nan_tolerance_rejected(self):
        # "tol <= 0" lets NaN through, and every panel then refines until the
        # open-panel limit; an infinite tol would accept any first panel
        for tol in (math.nan, math.inf):
            with pytest.raises(ValueError, match="tolerance must be positive"):
                integrate(parse("x^2").eval_array, UNIT, tol=tol)


# ------------------------------- the rule tables -------------------------------
# Checked at 50 digits: the G15 nodes are the roots of the Legendre polynomial
# P15, the Kronrod nodes those of the Stieltjes polynomial E16 (Laurie 1997),
# each weight is the double nearest to the one those nodes determine, and the
# tables make K31 exact on polynomials of degree 46 and G15 on those of
# degree 29.  The same checks pin the qk15 reference (n = 7) below.

class _Rule(NamedTuple):
    nodes: np.ndarray
    kronrod: np.ndarray
    gauss: np.ndarray  # 0 off the Gauss nodes


QK31 = _Rule(NODES, KRONROD_WEIGHTS, GAUSS_WEIGHTS)
_DPS = 50


def _legendre_roots(rule, n):
    """The roots of P_n, refined from the rule's Gauss nodes."""
    with mp.workdps(_DPS):
        return [mp.findroot(lambda t: mp.legendre(n, t), mp.mpf(float(x)))
                for x in rule.nodes[rule.gauss > 0]]


def _legendre_errors(nodes, weights, degree):
    """The rule's errors on P_0 .. P_degree over [-1, 1], in mpmath.  An
    error on P_k is the error on x^k times P_k's leading coefficient, which
    lifts a rule's first inexact degree far above the rounding of its
    weights; on x^48, K31's error is below that rounding."""
    with mp.workdps(_DPS):
        xs, ws = [mp.mpf(float(x)) for x in nodes], [mp.mpf(float(w)) for w in weights]
        return [abs(mp.fsum(w * mp.legendre(k, x) for x, w in zip(xs, ws)) - (2 if k == 0 else 0))
                for k in range(degree + 1)]


def _stieltjes_roots(n):
    """The roots of E_{n+1} for odd n: the monic even polynomial of degree
    n + 1 orthogonal to x^k * P_n(x) for k <= n; for even k that holds by
    parity."""
    with mp.workdps(_DPS):
        p = mp.taylor(lambda x: mp.legendre(n, x), 0, n)

        def moment(coeffs):  # ∫ over [-1, 1] of sum c_i x^i
            return mp.fsum(c * 2 / (i + 1) for i, c in enumerate(coeffs) if i % 2 == 0)

        def times_p(k):
            return [0] * k + p

        evens, odds = range(0, n + 1, 2), range(1, n + 1, 2)
        rows = [[moment(times_p(k + e)) for e in evens] for k in odds]
        rhs = [-moment(times_p(k + n + 1)) for k in odds]
        coeffs = [mp.mpf(1)] + [mp.mpf(0)] * (n + 1)  # highest degree first
        for e, c in zip(evens, mp.lu_solve(mp.matrix(rows), mp.matrix(rhs))):
            coeffs[n + 1 - e] = c
        roots = mp.polyroots(coeffs, maxsteps=400, extraprec=200)
        return sorted(mp.re(r) for r in roots)


def _gauss_weights(rule, n):
    # w = 2 / ((1 - x^2) * P_n'(x)^2) at each root x
    with mp.workdps(_DPS):
        return [2 / ((1 - r**2) * mp.diff(lambda t: mp.legendre(n, t), r) ** 2)
                for r in _legendre_roots(rule, n)]


def _kronrod_weights(rule, n):
    """The symmetric weights on the nodes that integrate the even powers up
    to x^(2n) exactly (odd powers hold by symmetry): the centre's, then the
    positive nodes' in ascending order."""
    with mp.workdps(_DPS):
        nodes = sorted(_legendre_roots(rule, n) + _stieltjes_roots(n))[n:]
        rows = [[(1 if i == 0 else 2) * x**k for i, x in enumerate(nodes)]
                for k in range(0, 2 * n + 1, 2)]
        moments = [mp.mpf(2) / (k + 1) for k in range(0, 2 * n + 1, 2)]
        return mp.lu_solve(mp.matrix(rows), mp.matrix(moments))


class TestRuleTables:
    def test_kronrod_exact_to_degree_46(self):
        errors = _legendre_errors(NODES, KRONROD_WEIGHTS, 48)
        assert max(errors[:47]) <= 1e-15
        assert errors[48] > 1e-6  # and no further

    def test_gauss_exact_to_degree_29(self):
        errors = _legendre_errors(NODES, GAUSS_WEIGHTS, 30)
        assert max(errors[:30]) <= 1e-15
        assert errors[30] > 1e-6

    def test_gauss_nodes_are_legendre_roots(self):
        gauss = NODES[GAUSS_WEIGHTS > 0]
        assert len(gauss) == 15
        assert [float(r) for r in _legendre_roots(QK31, 15)] == list(gauss)

    def test_kronrod_nodes_are_stieltjes_roots(self):
        kronrod = NODES[GAUSS_WEIGHTS == 0]
        assert len(kronrod) == 16
        assert [float(r) for r in _stieltjes_roots(15)] == list(kronrod)

    def test_gauss_weights(self):
        assert [float(w) for w in _gauss_weights(QK31, 15)] \
            == list(GAUSS_WEIGHTS[GAUSS_WEIGHTS > 0])

    def test_kronrod_weights(self):
        assert [float(w) for w in _kronrod_weights(QK31, 15)] == list(KRONROD_WEIGHTS[15:])

    def test_tables_are_read_only(self):
        for table in (NODES, KRONROD_WEIGHTS, GAUSS_WEIGHTS):
            with pytest.raises(ValueError):
                table[0] = 0.0

    def test_qk15_reference(self):
        # the same checks with n = 7: K15 is exact to degree 22, G7 to 13
        nodes, kronrod, gauss = QK15
        kronrod_errors = _legendre_errors(nodes, kronrod, 24)
        gauss_errors = _legendre_errors(nodes, gauss, 14)
        assert max(kronrod_errors[:23]) <= 1e-15 and kronrod_errors[24] > 1e-6
        assert max(gauss_errors[:14]) <= 1e-15 and gauss_errors[14] > 1e-6
        assert [float(r) for r in _legendre_roots(QK15, 7)] == list(nodes[gauss > 0])
        assert [float(r) for r in _stieltjes_roots(7)] == list(nodes[gauss == 0])
        assert [float(w) for w in _gauss_weights(QK15, 7)] == list(gauss[gauss > 0])
        assert [float(w) for w in _kronrod_weights(QK15, 7)] == list(kronrod[7:])


# ------------------------------- the qk15 reference -------------------------------
# QUADPACK qk15, the rule integrate() used before qk31, kept to compare the
# two: the positive K15 abscissae, descending, each with its K15 weight and
# its G7 weight (0 off the G7 nodes), then the centre.

_QK15_POSITIVE = (
    (0.991455371120812639206854697526329, 0.022935322010529224963732008058970, 0.0),
    (0.949107912342758524526189684047851, 0.063092092629978553290700663189204,
     0.129484966168869693270611432679082),
    (0.864864423359769072789712788640926, 0.104790010322250183839876322541518, 0.0),
    (0.741531185599394439863864773280788, 0.140653259715525918745189590510238,
     0.279705391489276667901467771423780),
    (0.586087235467691130294144845693013, 0.169004726639267902826583426598550, 0.0),
    (0.405845151377397166906606412076961, 0.190350578064785409913256402421014,
     0.381830050505118944950369775488975),
    (0.207784955007898467600689403773245, 0.204432940075298892414161999234649, 0.0),
)
_QK15_CENTER = (0.0, 0.209482141084727828012999174891714, 0.417959183673469387755102040816327)
QK15 = _Rule(*np.array([(-x, wk, wg) for x, wk, wg in _QK15_POSITIVE] + [_QK15_CENTER]
                       + [(x, wk, wg) for x, wk, wg in reversed(_QK15_POSITIVE)]).T)


def _on_qk15():
    """integrate() on the qk15 reference, with its open-panel limit of 2**16,
    while the context lasts."""
    return mock.patch.multiple(
        quadrature, NODES=QK15.nodes, MAX_OPEN_PANELS=2**16,
        _SUMS=np.stack((QK15.kronrod, QK15.kronrod - QK15.gauss), axis=1),
        _FLOOR_WEIGHTS=quadrature.ROUNDING_FLOOR * QK15.kronrod)


# ------------------------------ an independent oracle ------------------------------
# mpmath's tanh-sinh quadrature in double precision, built as the benchmark's
# reference builds its oracle (bench/reference.py): the integrand scaled to
# order one and mapped onto [-1, 1].  Each integrand has a twin written with
# mpmath's functions, so the oracle shares no evaluator with hhv.

class _Case(NamedTuple):
    text: str
    fn: Callable[[float], float]
    roots: tuple[float, ...]  # where |f| has a kink


def _tanh_sinh(fn, lo, hi, cuts=()):
    """The integral of ``fn`` over [lo, hi], split at ``cuts``."""
    total = 0.0
    ends = [lo, *sorted(c for c in cuts if lo < c < hi), hi]
    for p, q in zip(ends, ends[1:]):
        mid, half = 0.5 * p + 0.5 * q, 0.5 * q - 0.5 * p
        scale = max(abs(fn(x)) for x in (p, mid, q)) or 1.0
        total += float(mp.fp.quad(lambda u: fn(mid + half * u) / scale, [-1.0, 1.0])) \
            * half * scale
    return total


def _exp_quadratic(s, c2, c1):
    k = 10.0 ** s
    return _Case(f"{k!r}*exp({c2!r}*x^2 + {c1!r}*x)",
                 lambda x: k * mp.fp.exp(c2 * x * x + c1 * x), ())


def _real_roots(coeffs):
    """The real roots of the polynomial with ``coeffs``, highest first; a
    leading coefficient below 1e-12 of the largest only moves roots far
    outside the intervals drawn here, so it is dropped."""
    coeffs = np.asarray(coeffs, dtype=float)
    big = np.abs(coeffs) >= 1e-12 * np.abs(coeffs).max(initial=0.0)
    roots = np.roots(coeffs[int(np.argmax(big)):]) if big.any() else ()
    return tuple(float(r.real) for r in roots if abs(r.imag) < 1e-9)


def _polynomial(cs):
    roots = _real_roots(cs[::-1])
    return _Case(" + ".join(f"({c!r})*x^{i}" for i, c in enumerate(cs)),
                 lambda x: math.fsum(c * x**i for i, c in enumerate(cs)), roots)


_CASES = st.one_of(
    st.builds(_exp_quadratic, st.floats(-30, 30), st.floats(-8, 8), st.floats(-8, 8)),
    st.builds(_polynomial, st.lists(st.floats(-3, 3), min_size=1, max_size=5)),
)
_SLACK = 1e-14  # the oracle's own error and the rounding of a mean, relative
_SUBNORMAL = 1e-320  # the rounding of subnormal panel sums, which no relative rule meets


class TestOracleProperty:
    @given(_CASES, st.floats(-1, 1), st.floats(1e-3, 2), st.floats(-12, -3))
    @settings(max_examples=200, deadline=None)
    def test_matches_mpmath_tanh_sinh(self, case, a, width, log_tol):
        interval, tol = Interval(a, a + width), 10.0 ** log_tol
        res = integrate(parse(case.text).eval_array, interval, tol)
        ref = _tanh_sinh(case.fn, interval.a, interval.b)
        magnitude = _tanh_sinh(lambda x: abs(case.fn(x)), interval.a, interval.b, case.roots)
        assert abs(res.value - ref) <= (tol + _SLACK) * magnitude + _SUBNORMAL
        assert abs(res.value - ref) <= res.error_estimate + _SLACK * magnitude + _SUBNORMAL
        assert res.evaluations % NODES.size == 0

    @given(st.floats(-30, 30), st.floats(0, 6), st.floats(-6, 6), st.floats(-6, 6),
           st.floats(0, 1), st.floats(0.05, 1.5), st.sampled_from([1e-12, 1e-10, 1e-8]))
    @settings(max_examples=60, deadline=None)
    def test_chain_terms_match_mpmath_tanh_sinh(self, s, c2, c1, d, a, width, quad_tol):
        f, ln_f = _exp_quadratic(s, c2, c1), lambda x: s * math.log(10) + c2 * x * x + c1 * x
        g = _exp_quadratic(0, 0, d)
        lo, hi = a, a + width
        interval, center = Interval(lo, hi), lo + hi

        def mean(fn, cuts=()):
            return _tanh_sinh(fn, lo, hi, cuts) / width

        F, G = f.fn, g.fn
        expected = {
            "integral_mean_f": mean(F),
            "mean_geometric_reflected": mean(lambda x: mp.fp.sqrt(F(x) * F(center - x))),
            "mean_arithmetic_reflected": mean(lambda x: 0.5 * (F(x) + F(center - x))),
            "integral_mean_fg": mean(lambda x: F(x) * G(x)),
            "half_mean_square_sum": 0.5 * mean(lambda x: F(x) ** 2 + G(x) ** 2),
        }
        fe, ge, phi = parse(f.text), parse(g.text), PhiMap.identity(interval)
        chains._means.clear()
        reports = [
            eval_classic_hh(fe, interval, quad_tol),
            eval_dragomir_mond(fe, interval, quad_tol),
            eval_theorem1(fe, phi, quad_tol, include_diagnostics=True),
            eval_theorem2(fe, ge, phi, quad_tol, include_diagnostics=True),
        ]
        seen = set()
        for report in reports:
            got = dict(report.terms) | (report.diagnostics or {})
            for name in got.keys() & expected.keys():
                # every integrand is positive, so its magnitude is its mean
                assert abs(got[name] - expected[name]) <= (quad_tol + _SLACK) * expected[name]
                seen.add(name)
        assert seen == expected.keys()
        # ln f may change sign: its error is relative to the mean of |ln f|,
        # or absolute where that mean is below 1
        roots = _real_roots([c2, c1, s * math.log(10)])
        log_ref, log_magnitude = mean(ln_f), mean(lambda x: abs(ln_f(x)), roots)
        log_term = math.log(dict(reports[1].terms)["exp_mean_log_f"])
        assert abs(log_term - log_ref) <= (quad_tol + _SLACK) * max(log_magnitude, 1.0)


class TestAgainstQk15:
    # integrand calls are counted both ways; `pytest
    # --hypothesis-show-statistics` prints how often qk31 needs fewer, as
    # many or more, and the search is steered toward more
    @given(_CASES, st.floats(-1, 1), st.floats(1e-3, 2), st.floats(-12, -3))
    @settings(max_examples=200, deadline=None)
    def test_finishes_wherever_qk15_finishes(self, case, a, width, log_tol):
        interval, tol = Interval(a, a + width), 10.0 ** log_tol
        f = parse(case.text).eval_array
        old, old_calls = _counted(f)
        try:
            with _on_qk15():
                integrate(old, interval, tol)
        except HHVError:
            return
        new, new_calls = _counted(f)
        res = integrate(new, interval, tol)
        ref = _tanh_sinh(case.fn, interval.a, interval.b)
        magnitude = _tanh_sinh(lambda x: abs(case.fn(x)), interval.a, interval.b, case.roots)
        assert abs(res.value - ref) <= (tol + _SLACK) * magnitude + _SUBNORMAL
        more = len(new_calls) - len(old_calls)
        event("qk31 calls " + ("fewer" if more < 0 else "more" if more else "as many"))
        target(float(more), label="qk31 calls beyond qk15's")


# ------------------------------- levels of panels -------------------------------

def _outcome(f, interval, tol, max_depth):
    """Everything a caller can observe, with floats compared bit for bit."""
    try:
        res = integrate(f, interval, tol, max_depth)
    except HHVError as err:
        return (type(err), str(err)) + tuple(
            getattr(err, name, None) for name in ("x", "index", "a", "b", "depth"))
    return (float(res.value).hex(), float(res.error_estimate).hex(), res.evaluations)


def _counted(f):
    """``f`` and the size of every call made to it."""
    calls = []

    def counted(x):
        calls.append(x.size)
        return f(x)

    return counted, calls


def _stepped(s):
    return lambda x: np.where(x < s, 1.0, 3.0)


class TestPanelTable:
    def test_depth_failure_names_first_open_panel(self):
        # panels left of the step converge, so the first open panel is
        # the one holding the step, not the leftmost one
        ours = _outcome(_stepped(0.7), UNIT, 1e-12, 12)
        assert ours[0] is MaxDepthExceeded
        _, _, _, _, a, b, depth = ours
        assert a <= 0.7 < b and b - a == 2.0**-12 and depth == 12

    def test_overflow_at_depth_three(self):
        def pole(x):
            with np.errstate(divide="ignore"):
                return 1.0 / (x - 5.0 / 16.0)

        counted, calls = _counted(pole)
        ours = _outcome(counted, UNIT, 1e-10, 50)
        # one call per level; 5/16 is the centre node of the depth-3 panel
        # [1/4, 3/8], the first of that level's two open panels
        assert ours[0] is Overflow and ours[2:4] == (5.0 / 16.0, 15)
        assert calls == [31, 62, 62, 62]

    @pytest.mark.parametrize("f", [
        parse("x^2 + 0*(1/x) + 0*(1/(1 - x))").eval_array,
        lambda x: x**2 + 0 * (1 / x) + 0 * (1 / (1 - x)),  # numpy warns on the division
    ])
    def test_failure_only_at_a_grid_point(self, f):
        # f fails only at the ends of the interval, which the open rule never
        # evaluates; K31 is exact on x^2, so one panel is accepted
        counted, calls = _counted(f)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ours = _outcome(counted, UNIT, 1e-10, 50)
        assert ours[0] == (1.0 / 3.0).hex() and ours[2] == 31
        assert calls == [31] and not caught

    @pytest.mark.parametrize("max_depth", [0, 50])
    def test_division_by_zero_where_the_loop_goes(self, max_depth):
        # x = 1/2 is the centre node of the first panel, where f is 1 after
        # numpy's warning; the caller's warning filter decides
        f = lambda x: np.minimum(1.0 / np.abs(x - 0.5), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = integrate(f, UNIT, 1e-10, max_depth)
        assert (res.value, res.evaluations) == (1.0, 31)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="divide by zero"):
                integrate(f, UNIT, 1e-10, max_depth)

    @pytest.mark.parametrize("text, calls", [
        # K31 resolves exp(x^2) on one panel
        ("exp(x^2)", [31]),
        # the open panels of each level are evaluated in one call
        ("exp(40*x)", [31, 62]),
    ])
    def test_one_call_for_the_first_levels(self, text, calls):
        counted, seen = _counted(parse(text).eval_array)
        res = integrate(counted, UNIT, 1e-10, 50)
        assert seen == calls and res.evaluations == sum(calls)

    def test_failed_first_call_leaves_no_reference_cycle(self):
        # a kept error would hold integrate's frame through its traceback
        f = parse("ln(x - 0.5)").eval_array
        gc.collect()
        gc.disable()
        try:
            try:
                integrate(f, UNIT)
            except DomainError:
                pass
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("f", [lambda x: x**2, np.exp])
    def test_max_depth_zero(self, f):
        # K31 is exact on x^2 and within its budget on exp: one panel each
        res = integrate(f, UNIT, 1e-10, 0)
        assert res.evaluations == 31
        assert res.value == pytest.approx(1.0 / 3.0 if f is not np.exp else math.e - 1,
                                          rel=1e-15)

    def test_max_depth_zero_names_the_whole_interval(self):
        assert _outcome(lambda x: np.exp(40 * x), UNIT, 1e-10, 0)[4:] == (0.0, 1.0, 0)


class TestOpenPanelLimit:
    # no panel of this integrand meets its share before the limit, so every
    # level doubles the open panels
    @staticmethod
    def wiggle(x):
        return np.sin(1e6 * x)

    def test_too_many_open_panels_raise(self):
        f, calls = _counted(self.wiggle)
        with pytest.raises(OpenPanelLimitExceeded) as exc:
            integrate(f, UNIT, 1e-10)
        err = exc.value
        assert isinstance(err, MaxDepthExceeded)
        assert calls == [NODES.size * 2**depth for depth in range(16)]
        # the next level would evaluate 2**16 panels
        assert (err.a, err.b, err.depth, err.limit) == (0.0, 2.0**-15, 15, MAX_OPEN_PANELS)
        assert MAX_OPEN_PANELS == 2**15 and str(MAX_OPEN_PANELS) in str(err)

    def test_depth_limit_is_checked_first(self):
        with pytest.raises(MaxDepthExceeded) as exc:
            integrate(self.wiggle, UNIT, 1e-10, max_depth=15)
        assert type(exc.value) is MaxDepthExceeded

    def test_tolerance_below_the_rounding_floor_cannot_be_met(self):
        # the whole interval's rounding floor, 50*eps of its magnitude, is
        # above a 1e-15 share: the first call ends it
        f, calls = _counted(np.exp)
        with pytest.raises(MaxDepthExceeded) as exc:
            integrate(f, UNIT, 1e-15)
        assert type(exc.value) is MaxDepthExceeded
        assert (exc.value.a, exc.value.b, exc.value.depth) == (0.0, 1.0, 0)
        assert calls == [NODES.size]

    def test_singularity_ends_where_its_floor_misses_the_share(self):
        f, calls = _counted(parse("1/sqrt(abs(x - 1/pi))").eval_array)
        with pytest.raises(MaxDepthExceeded) as exc:
            integrate(f, UNIT, 1e-10)
        assert type(exc.value) is MaxDepthExceeded
        assert exc.value.a < 1 / math.pi < exc.value.b
        assert exc.value.depth < 30 and sum(calls) < 10_000


# --------------------------- the rule without the floor stop ---------------------------
# integrate() as it was before a panel whose rounding floor misses its share
# ended the integration: such panels were bisected until the depth or the
# open-panel limit.  Every integral it finishes must finish the same way.

def _ref_integrate(f, interval, tol):
    from hhv.quadrature import _SUMS, _FLOOR_WEIGHTS, ROUNDING_FLOOR, DEFAULT_MAX_DEPTH

    centers = np.array([interval.midpoint])
    half = 0.5 * interval.b - 0.5 * interval.a
    budget = None
    total = err_total = 0.0
    evaluations = depth = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            xs = (centers[:, None] + half * NODES).ravel()
            vals = np.asarray(f(xs), dtype=float)
            evaluations += xs.size
            scaled = vals.reshape(-1, NODES.size) * half
            sums = scaled @ _SUMS
            floor = np.abs(scaled) @ _FLOOR_WEIGHTS
            err = np.abs(sums[:, 1]) + floor
            level_err = float(np.add.reduce(err))
            if not math.isfinite(level_err):
                raise Overflow()
            if budget is None:
                budget = tol * max(float(floor[0]) / ROUNDING_FLOOR, 0.0) or tol
            ok = err <= budget
            accepted = np.count_nonzero(ok)
            if accepted == ok.size:
                total += float(np.add.reduce(sums[:, 0]))
                err_total += level_err
                break
            if accepted:
                total += float(np.add.reduce(sums[ok, 0]))
                err_total += float(np.add.reduce(err[ok]))
            centers = centers[~ok]
            if depth >= DEFAULT_MAX_DEPTH or 2 * centers.size > MAX_OPEN_PANELS:
                raise MaxDepthExceeded(0.0, 0.0, depth)
            half *= 0.5
            centers = np.add.outer(centers, (-half, half)).ravel()
            budget *= 0.5
            depth += 1
    return QuadratureResult(value=total, error_estimate=err_total, evaluations=evaluations)


class TestFloorStop:
    # the K31 estimate of ∫|f| on the children can undercut the parent's
    # where f changes sign, so the stop is checked against the rule without it
    @given(_CASES, st.floats(-1, 1), st.floats(1e-3, 2), st.floats(-16, -3))
    # a share below the normal range, where the floors round too coarsely
    # for the stop's argument
    @example(_polynomial([8.918425529270611e-308]), 0.0, 1.0, -14.0)
    @settings(max_examples=300, deadline=None)
    def test_every_integral_the_old_rule_finishes_still_finishes(self, case, a, width, log_tol):
        interval, tol = Interval(a, a + width), 10.0 ** log_tol
        f = parse(case.text).eval_array
        try:
            want = _ref_integrate(f, interval, tol)
        except (MaxDepthExceeded, Overflow):
            return
        assert integrate(f, interval, tol) == want
