import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hhv.errors import HHVError, MaxDepthExceeded, OpenPanelLimitExceeded, Overflow
from hhv.expr import Interval, parse
from hhv.quadrature import MAX_OPEN_PANELS, QuadratureResult, integrate, mean_value

UNIT = Interval(0.0, 1.0)


class TestOracles:
    def test_linear_exact(self):
        res = integrate(lambda x: x, UNIT, 1e-12)
        assert res.value == pytest.approx(0.5, abs=1e-15)

    def test_quadratic_exact(self):
        # Simpson is exact on cubics, so a single panel already suffices
        res = integrate(lambda x: x**2, UNIT, 1e-12)
        assert abs(res.value - 1.0 / 3.0) <= 1e-12

    def test_exp_closed_form(self):
        res = integrate(parse("exp(x)").eval_array, UNIT, 1e-10)
        assert abs(res.value - (math.e - 1.0)) <= 1e-10

    def test_result_invariants(self):
        res = integrate(np.sin, Interval(0.0, math.pi), 1e-10)
        assert isinstance(res, QuadratureResult)
        assert res.error_estimate >= 0.0
        assert res.evaluations >= 3
        assert res.value == pytest.approx(2.0, abs=1e-9)


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
        from hhv.errors import DomainError
        with pytest.raises(DomainError) as exc:
            integrate(parse("ln(x)").eval_array, UNIT, 1e-10)
        assert exc.value.x == 0.0

    def test_nonfinite_integrand_rejected(self):
        def risky(x):
            with np.errstate(divide="ignore"):
                return 1.0 / (x - 0.5)

        with pytest.raises(Overflow):
            integrate(risky, UNIT, 1e-10)

    @pytest.mark.parametrize("text", [
        "exp(709.7*(1-x)) + exp(707.5*x)",  # the whole-interval sum overflows
        "exp(709.5*x)",  # the sums of the panels at x = 1 overflow at every depth
        "1e308 + 0*x",  # every sum overflows, so every level doubles the open panels
    ])
    def test_overflowing_simpson_sum_raises_overflow(self, text):
        # the integrand is finite everywhere; only Simpson's sums overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Overflow):
                integrate(parse(text).eval_array, UNIT, 1e-10)

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, UNIT, 0.0)

    def test_nan_tolerance_rejected(self):
        # "tol <= 0" lets NaN through, and every panel then refines until the
        # open-panel limit
        with pytest.raises(ValueError, match="tolerance must be positive"):
            integrate(parse("x^2").eval_array, UNIT, tol=math.nan)


# ------------------- breadth-first loop with parallel arrays -------------------
# The loop as it stood before the panel table: one array per panel field,
# rebuilt by interleaving.  ``integrate`` must agree with it bit for bit.

def _reference_eval(f, xs):
    vals = np.asarray(f(xs), dtype=float)
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.argmax(bad))
        raise Overflow(x=float(xs[i]), index=i)
    return vals


def _interleave(left, right):
    out = np.empty(2 * len(left))
    out[0::2] = left
    out[1::2] = right
    return out


def _reference_integrate(f, interval, tol=1e-10, max_depth=50):
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    a, b = interval.a, interval.b
    xs0 = np.array([a, 0.5 * (a + b), b])
    f0 = _reference_eval(f, xs0)
    evaluations = 3
    s_whole = (b - a) / 6.0 * (f0[0] + 4.0 * f0[1] + f0[2])
    budget0 = max(tol, tol * abs(s_whole))
    pa, pm, pb = np.array([a]), np.array([xs0[1]]), np.array([b])
    fa, fm, fb = f0[0:1], f0[1:2], f0[2:3]
    s = np.array([s_whole])
    budget = np.array([budget0])
    total = 0.0
    err_total = 0.0
    depth = 0
    while pa.size:
        lm = 0.5 * (pa + pm)
        rm = 0.5 * (pm + pb)
        fnew = _reference_eval(f, np.concatenate([lm, rm]))
        evaluations += fnew.size
        flm = fnew[: lm.size]
        frm = fnew[lm.size:]
        s_left = (pm - pa) / 6.0 * (fa + 4.0 * flm + fm)
        s_right = (pb - pm) / 6.0 * (fm + 4.0 * frm + fb)
        s2 = s_left + s_right
        err = (s2 - s) / 15.0
        ok = np.abs(err) <= budget
        total += float(np.sum((s2 + err)[ok]))
        err_total += float(np.sum(np.abs(err)[ok]))
        if ok.all():
            break
        if depth >= max_depth:
            j = int(np.argmax(~ok))
            raise MaxDepthExceeded(float(pa[j]), float(pb[j]), depth)
        keep = ~ok
        pa, pm, pb, fa, fm, fb, s = (
            _interleave(pa[keep], pm[keep]),
            _interleave(lm[keep], rm[keep]),
            _interleave(pm[keep], pb[keep]),
            _interleave(fa[keep], fm[keep]),
            _interleave(flm[keep], frm[keep]),
            _interleave(fm[keep], fb[keep]),
            _interleave(s_left[keep], s_right[keep]),
        )
        budget = _interleave(budget[keep] / 2.0, budget[keep] / 2.0)
        depth += 1
    return QuadratureResult(value=total, error_estimate=err_total, evaluations=evaluations)


def _outcome(integrator, f, interval, tol, max_depth):
    """Everything a caller can observe, with floats compared bit for bit."""
    try:
        res = integrator(f, interval, tol, max_depth)
    except HHVError as err:
        return (type(err), str(err)) + tuple(
            getattr(err, name, None) for name in ("x", "index", "a", "b", "depth"))
    return (float(res.value).hex(), float(res.error_estimate).hex(), res.evaluations)


def _smooth(c, d):
    return lambda x: np.exp(c * x * x + d * x)


def _singular(s):
    return lambda x: 1.0 / np.sqrt(np.abs(x - s) + 1e-300)


def _stepped(s):
    return lambda x: np.where(x < s, 1.0, 3.0)


def _overflowing(s):
    # finite below s, inf from s on: the integrand overflows there
    return lambda x: np.where(x < s, np.exp(x), np.inf)


_INTEGRANDS = st.one_of(
    st.builds(_smooth, st.floats(-8, 8), st.floats(-8, 8)),
    st.builds(_singular, st.floats(-1, 3)),
    st.builds(_stepped, st.floats(-1, 3)),
    st.builds(_overflowing, st.floats(-1, 3)),
)


class TestPanelTable:
    @given(_INTEGRANDS, st.floats(-1, 1), st.floats(1e-3, 2),
           st.floats(-14, -3), st.integers(0, 16))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_loop(self, f, a, width, log_tol, max_depth):
        # max_depth <= 16 keeps the uncapped reference within 2**16 panels
        interval = Interval(a, a + width)
        tol = 10.0 ** log_tol
        assert _outcome(integrate, f, interval, tol, max_depth) \
            == _outcome(_reference_integrate, f, interval, tol, max_depth)

    def test_depth_failure_names_first_open_panel(self):
        # panels left of the step converge, so the first open panel is
        # the one holding the step, not the leftmost one
        f = _stepped(0.7)
        ours = _outcome(integrate, f, UNIT, 1e-12, 12)
        assert ours[0] is MaxDepthExceeded and ours[4] > 0.0
        assert ours == _outcome(_reference_integrate, f, UNIT, 1e-12, 12)

    def test_overflow_at_depth_three(self):
        calls = []

        def pole(x):
            calls.append(x.size)
            with np.errstate(divide="ignore"):
                return 1.0 / (x - 13.0 / 32.0)

        ours = _outcome(integrate, pole, UNIT, 1e-10, 50)
        # initial points, then one call per level: depth 3 evaluates the
        # odd multiples of 1/32
        assert ours[0] is Overflow and ours[2] == 13.0 / 32.0 and len(calls) == 5
        assert ours == _outcome(_reference_integrate, pole, UNIT, 1e-10, 50)

    @pytest.mark.parametrize("f", [lambda x: x**2, np.exp])
    def test_max_depth_zero(self, f):
        ours = _outcome(integrate, f, UNIT, 1e-10, 0)
        assert ours == _outcome(_reference_integrate, f, UNIT, 1e-10, 0)
        # Simpson is exact on x^2; exp needs more than one split
        assert (ours[0] is MaxDepthExceeded) == (f is np.exp)


class TestOpenPanelLimit:
    # no panel of this integrand meets its budget before depth 20, so every
    # level doubles the open panels
    @staticmethod
    def wiggle(x):
        return np.sin(1e6 * x)

    def test_too_many_open_panels_raise(self):
        with pytest.raises(OpenPanelLimitExceeded) as exc:
            integrate(self.wiggle, UNIT, 1e-10)
        err = exc.value
        assert isinstance(err, MaxDepthExceeded)
        assert (err.a, err.b, err.depth, err.limit) == (0.0, 2.0**-17, 17, MAX_OPEN_PANELS)
        assert str(MAX_OPEN_PANELS) in str(err)

    def test_depth_limit_is_checked_first(self):
        with pytest.raises(MaxDepthExceeded) as exc:
            integrate(self.wiggle, UNIT, 1e-10, max_depth=17)
        assert type(exc.value) is MaxDepthExceeded
