import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hhv import chains, quadrature
from hhv.chains import (
    DEFAULT_CHAIN_TOL, DEFAULT_QUAD_TOL, DEGENERATE_PHI_EPS,
    VERDICT_CHAIN_HOLDS, VERDICT_LINK_VIOLATED,
    ChainReport, eval_classic_hh, eval_dragomir_mond, eval_theorem1, eval_theorem2,
)
from hhv.convexity import PhiMap, SamplePlan, _require_positivity, check_log_phi_convex
from hhv.errors import (
    ChainTermError, DegeneratePhi, HHVError, MaxDepthExceeded, PositivityViolated,
)
from hhv.expr import Interval, parse
from hhv.means import PositivePair, arithmetic, logarithmic
from hhv.quadrature import mean_value

UNIT = Interval(0.0, 1.0)
TINY = Interval(0.0, 1e-13)
E = math.e


@pytest.fixture(autouse=True)
def fresh_means():
    """Every test starts with no shared means, whatever ran before it."""
    chains._means.clear()


def values(report):
    return [v for _, v in report.terms]


class TestClassicHH:
    def test_square_closed_forms(self):
        rep = eval_classic_hh(parse("x^2"), UNIT)
        assert values(rep) == pytest.approx([0.25, 1.0 / 3.0, 0.5], abs=1e-12)
        assert rep.verdict == VERDICT_CHAIN_HOLDS
        assert all(m > 0 for m in rep.pair_margins)

    def test_affine_equality(self):
        rep = eval_classic_hh(parse("2*x + 1"), UNIT)
        assert values(rep) == pytest.approx([2.0, 2.0, 2.0], abs=1e-12)
        assert all(abs(m) <= 1e-12 for m in rep.pair_margins)
        assert rep.verdict == VERDICT_CHAIN_HOLDS

    def test_concave_violates_both_links(self):
        # closed forms: sqrt(1/2), integral mean 2/3, endpoint mean 1/2
        rep = eval_classic_hh(parse("sqrt(x)"), UNIT)
        assert values(rep) == pytest.approx([math.sqrt(0.5), 2.0 / 3.0, 0.5], abs=1e-9)
        assert rep.verdict == VERDICT_LINK_VIOLATED
        assert rep.violated_links == (0, 1)

    def test_report_shape(self):
        rep = eval_classic_hh(parse("x^2"), UNIT)
        assert len(rep.pair_margins) == len(rep.terms) - 1


class TestTermErrors:
    def test_term_name_attached_to_failure(self):
        from hhv.errors import ChainTermError
        # midpoint evaluates fine; the integral walks into ln's domain edge
        with pytest.raises(ChainTermError) as exc:
            eval_classic_hh(parse("ln(x - 0.2)"), UNIT)
        assert exc.value.term == "integral_mean_f"

    def test_rounding_floor_ends_a_runaway_term(self):
        # the reflected geometric mean of this f refines everywhere near
        # both poles; a panel there whose rounding floor alone misses its
        # share ends it, long before the open-panel limit would
        with pytest.raises(ChainTermError) as exc:
            eval_theorem1(parse("1/(x-0.3001)^2"), PhiMap.identity(UNIT))
        assert exc.value.term == "mean_geometric_reflected"
        cause = exc.value.__cause__
        assert type(cause) is MaxDepthExceeded
        assert cause.a < 0.3001 < cause.b and cause.depth < 20

    @pytest.mark.parametrize("g_text, term", [
        ("exp(400*x)", "integral_mean_fg"),
        ("exp(x)", "half_mean_square_sum"),
    ])
    def test_product_overflow_is_a_term_error_without_warning(self, g_text, term):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ChainTermError) as exc:
                eval_theorem2(parse("exp(400*x)"), parse(g_text), PhiMap.identity(UNIT),
                              include_diagnostics=True)
        assert exc.value.term == term

    @pytest.mark.parametrize("g_text, end", [
        ("exp(-745*x)", "b"),
        ("exp(-745*(1 - x))", "a"),
    ])
    def test_endpoint_product_underflow_is_a_term_error(self, g_text, end):
        # f and g are positive at both ends, but f*g underflows to 0 at one
        with pytest.raises(ChainTermError) as exc:
            eval_theorem2(parse("exp(-1)"), parse(g_text), PhiMap.identity(UNIT))
        assert exc.value.term == "log_mean_product_endpoints"
        assert isinstance(exc.value.__cause__, PositivityViolated)
        assert f"f(phi({end}))*g(phi({end})) = 0.0 is not finite" in str(exc.value)
        _assert_matches_reference("theorem2", "exp(-1)", g_text, "x", UNIT, False)

    @pytest.mark.parametrize("tolerance", [math.nan, -1e-8, math.inf])
    def test_nan_or_negative_tolerance_rejected(self, tolerance):
        # a NaN tolerance would let every link hold; at 1e-8 both links fail
        with pytest.raises(ValueError, match="tolerance must be a non-negative number"):
            eval_classic_hh(parse("sqrt(x)"), UNIT, tolerance=tolerance)
        # checked before any term runs: this chain's product term would fail
        with pytest.raises(ValueError, match="tolerance must be a non-negative number"):
            eval_theorem2(parse("exp(-1)"), parse("exp(-745*x)"), PhiMap.identity(UNIT),
                          tolerance=tolerance)


class TestDragomirMond:
    def test_exp_closed_forms(self):
        rep = eval_dragomir_mond(parse("exp(x)"), UNIT)
        expected = [E**0.5, E**0.5, E**0.5, E - 1, E - 1, (1 + E) / 2]
        assert values(rep) == pytest.approx(expected, abs=1e-9)
        assert rep.verdict == VERDICT_CHAIN_HOLDS
        assert all(m >= -1e-9 for m in rep.pair_margins)

    def test_constant_equality_throughout(self):
        rep = eval_dragomir_mond(parse("2"), Interval(0.5, 3.0))
        assert values(rep) == pytest.approx([2.0] * 6, abs=1e-12)

    def test_log_convex_function_holds(self):
        rep = eval_dragomir_mond(parse("exp(x^2)"), UNIT)
        assert rep.verdict == VERDICT_CHAIN_HOLDS

    def test_positivity_required(self):
        with pytest.raises(PositivityViolated):
            eval_dragomir_mond(parse("x - 2"), UNIT)

    # search workload witnesses: (f, interval, margin of link 0, of link 3)
    AFFINE_WITNESSES = [
        # seed 2270, pass 55
        ("0.0019824457631973935*x + 0.8942207694409012", Interval(0.352712, 0.85842),
         -4.677e-8, -9.354e-8),
        # seed 2451, pass 7
        ("0.0010202611139513706*x + 0.6017402195217652", Interval(0.490363, 1.18081),
         -3.431e-8, -6.862e-8),
    ]

    def test_nearly_constant_affine_violates_its_log_convexity_links(self):
        # an affine f is log-concave, so links 0 and 3 fail, by margins about
        # 5 times their band of 1e-8 times the terms (about 0.9 and 0.6);
        # each term is within quad_tol of mpmath's, so the margins are
        # mpmath's to 2e-10
        for text, interval, margin_0, margin_3 in self.AFFINE_WITNESSES:
            report = eval_dragomir_mond(parse(text), interval)
            assert report.verdict == VERDICT_LINK_VIOLATED and report.violated_links == (0, 3)
            with mp.workdps(40):
                f, a, b = _mp_fn(text), mp.mpf(interval.a), mp.mpf(interval.b)
                terms = [
                    f((a + b) / 2),
                    mp.exp(mp.quad(lambda x: mp.log(f(x)), [a, b]) / (b - a)),
                    mp.quad(lambda x: mp.sqrt(f(x) * f(a + b - x)), [a, b]) / (b - a),
                    mp.quad(f, [a, b]) / (b - a),
                    _mp_log_mean(f(b), f(a)),
                    (f(a) + f(b)) / 2,
                ]
                expected = [terms[i + 1] - terms[i] for i in range(len(terms) - 1)]
            assert expected[0] == pytest.approx(margin_0, rel=1e-3)
            assert expected[3] == pytest.approx(margin_3, rel=1e-3)
            for got, want in zip(report.pair_margins, expected):
                assert abs(got - want) <= 2 * DEFAULT_QUAD_TOL * terms[-1]


class TestTheorem1:
    def test_identity_phi_closed_forms(self):
        rep = eval_theorem1(parse("exp(x)"), PhiMap.identity(UNIT))
        expected = [E**0.5, E**0.5, E - 1, E - 1, (1 + E) / 2]
        assert values(rep) == pytest.approx(expected, abs=1e-8)
        assert rep.verdict == VERDICT_CHAIN_HOLDS

    def test_square_phi_same_endpoint_values(self):
        # phi(0) = 0 and phi(1) = 1, and only the endpoints enter the chain
        rep_id = eval_theorem1(parse("exp(x)"), PhiMap.identity(UNIT))
        rep_sq = eval_theorem1(parse("exp(x)"), PhiMap(parse("x^2"), UNIT))
        assert values(rep_sq) == pytest.approx(values(rep_id), abs=1e-9)

    def test_constant_equality(self):
        rep = eval_theorem1(parse("3.75"), PhiMap(parse("x^2"), UNIT))
        assert values(rep) == pytest.approx([3.75] * 5, abs=1e-12)

    def test_first_two_terms_collapse_for_exp(self):
        # the geometric reflection integrand is constant for exp
        for phi_text in ("x", "x^2", "sqrt(x)"):
            rep = eval_theorem1(parse("exp(x)"), PhiMap(parse(phi_text), UNIT),
                                quad_tol=1e-10)
            vals = values(rep)
            assert abs(vals[1] - vals[0]) <= 2e-10

    def test_reversed_orientation_notes_and_values(self):
        # phi decreasing: phi(a) > phi(b); means are symmetric so values match
        phi_down = PhiMap(parse("1 - x"), UNIT)
        rep = eval_theorem1(parse("exp(x)"), phi_down)
        assert rep.notes
        expected = [E**0.5, E**0.5, E - 1, E - 1, (1 + E) / 2]
        assert values(rep) == pytest.approx(expected, abs=1e-8)

    def test_degenerate_phi_rejected(self):
        with pytest.raises(DegeneratePhi):
            eval_theorem1(parse("exp(x)"), PhiMap(parse("0.5"), UNIT))

    @pytest.mark.parametrize("phi_text", ["x", "1e-13 - x"])
    def test_tiny_domain_is_not_degenerate(self, phi_text):
        # |phi(b) - phi(a)| = 1e-13 is the whole width of the domain
        rep = eval_theorem1(parse("exp(x)"), PhiMap(parse(phi_text), TINY))
        assert rep.verdict == VERDICT_CHAIN_HOLDS

    def test_constant_phi_on_a_tiny_domain_is_degenerate(self):
        with pytest.raises(DegeneratePhi, match="coincide"):
            eval_theorem1(parse("exp(x)"), PhiMap(parse("0"), TINY))

    def test_diagnostic_dominates_geometric_term(self):
        rep = eval_theorem1(parse("exp(x^2)"), PhiMap.identity(UNIT),
                            include_diagnostics=True)
        geo = dict(rep.terms)["mean_geometric_reflected"]
        assert rep.diagnostics["mean_arithmetic_reflected"] >= geo - 1e-10

    def test_scaling_homogeneity(self):
        base = eval_theorem1(parse("exp(x)"), PhiMap.identity(UNIT))
        scaled = eval_theorem1(parse("2.5*exp(x)"), PhiMap.identity(UNIT))
        assert values(scaled) == pytest.approx([2.5 * v for v in values(base)], rel=1e-9)
        assert scaled.verdict == base.verdict

    def test_holds_on_log_phi_convex_family(self):
        plan = SamplePlan(x_points=9, t_points=9, random_count=64, seed=6)
        family = ["exp(x)", "exp(x^2)", "exp(2*x + 1)", "exp(0.3*x^2 + x)"]
        for text in family:
            f = parse(text)
            for phi_text in ("x", "x^2"):
                phi = PhiMap(parse(phi_text), UNIT)
                assert check_log_phi_convex(f, phi, plan).verdict == "holds_on_samples"
                rep = eval_theorem1(f, phi)
                assert rep.verdict == VERDICT_CHAIN_HOLDS


class TestTheorem2:
    def test_full_equality_case(self):
        rep = eval_theorem2(parse("exp(x)"), parse("exp(x)"), PhiMap.identity(UNIT))
        expected = (E**2 - 1) / 2
        assert values(rep) == pytest.approx([expected] * 3, abs=1e-8)
        assert all(abs(m) <= 1e-8 for m in rep.pair_margins)

    def test_constant_pair(self):
        rep = eval_theorem2(parse("1.5"), parse("1.5"), PhiMap.identity(UNIT))
        assert values(rep) == pytest.approx([2.25] * 3, abs=1e-12)

    def test_mixed_exponentials_closed_forms(self):
        rep = eval_theorem2(parse("exp(x)"), parse("exp(2*x)"), PhiMap.identity(UNIT))
        vals = values(rep)
        expected_mean = (E**3 - 1) / 3
        assert vals[0] == pytest.approx(expected_mean, abs=1e-8)
        assert vals[1] == pytest.approx(expected_mean, abs=1e-8)
        assert vals[2] >= vals[1] - 1e-8
        assert rep.verdict == VERDICT_CHAIN_HOLDS

    def test_symmetric_in_f_and_g(self):
        f, g = parse("exp(x)"), parse("x + 1")
        phi = PhiMap(parse("x^2"), UNIT)
        fg = eval_theorem2(f, g, phi)
        gf = eval_theorem2(g, f, phi)
        assert values(fg) == pytest.approx(values(gf), rel=1e-12)

    def test_diagnostics_reported_not_asserted(self):
        rep = eval_theorem2(parse("exp(x)"), parse("exp(2*x)"), PhiMap.identity(UNIT),
                            include_diagnostics=True)
        diag = rep.diagnostics
        assert set(diag) == {"half_mean_square_sum",
                             "half_mean_square_sum_minus_term2",
                             "term3_minus_half_mean_square_sum"}
        # the verdict must not depend on the diagnostic margins
        assert rep.verdict == VERDICT_CHAIN_HOLDS

    def test_tiny_domain_is_not_degenerate(self):
        rep = eval_theorem2(parse("exp(x)"), parse("exp(x)"), PhiMap.identity(TINY))
        assert rep.verdict == VERDICT_CHAIN_HOLDS

    def test_positivity_of_both_required(self):
        with pytest.raises(PositivityViolated):
            eval_theorem2(parse("exp(x)"), parse("x - 2"), PhiMap.identity(UNIT))


def _mp_fn(text):
    """``text`` evaluated with mpmath's functions, at the working precision."""
    ns = {"__builtins__": {}, "exp": mp.exp, "ln": mp.log, "sqrt": mp.sqrt}
    return eval(f"lambda x: {text.replace('^', '**')}", ns)  # noqa: S307 - restricted namespace


def _mp_log_mean(p, q):
    return p if p == q else (p - q) / (mp.log(p) - mp.log(q))


class TestDepthBound:
    def test_tree_at_the_bound_through_theorem2(self):
        # a tree exactly MAX_DEPTH high evaluates through theorem2's f*g mean,
        # and so does the same tree through a search's run_target
        from hhv.expr import MAX_DEPTH
        from hhv.search import SearchTarget, run_target

        f = parse("+".join(["x"] * (MAX_DEPTH - 1)) + "+1")
        g = parse("1+" + "*".join(["x"] * (MAX_DEPTH - 1)))
        phi = PhiMap.identity(Interval(1.0, 1.5))
        rep = eval_theorem2(f, g, phi, include_diagnostics=True)
        assert values(rep)[0] == pytest.approx(mean_value(
            lambda xs: ((MAX_DEPTH - 1) * xs + 1) * (1 + xs ** (MAX_DEPTH - 1)),
            Interval(1.0, 1.5)), rel=1e-9)
        chains._means.clear()
        got = run_target(SearchTarget("chain", "theorem2"), f, g, phi, phi.domain,
                         diagnostics=True)[0]
        assert got == rep


class TestRelativeLinkBand:
    """A link is judged against the tolerance times the larger magnitude of
    its two terms, and the integral means are accurate relative to their
    magnitude, so that no verdict depends on the scale of f."""

    def test_band_scales_with_the_larger_term(self):
        report = chains._finish("band", [
            # an absolute band would hide this violation of a tiny link
            ("tiny", lambda: 1e-12), ("tinier", lambda: 1e-12 - 1e-19),
            # the band of these links is 1e-8 * 1e3
            ("big", lambda: 1e3), ("inside", lambda: 1e3 - 5e-6),
            ("outside", lambda: 1e3 - 2e-5),
        ], DEFAULT_CHAIN_TOL, DEFAULT_QUAD_TOL)
        assert report.violated_links == (0, 3)

    @pytest.mark.parametrize("c", [-20.0, 0.0, 20.0])
    @pytest.mark.parametrize("k", [10, 20, 30])
    def test_steep_exp_holds_in_theorem2_and_dragomir_mond(self, k, c):
        # equality cases: for exp, the integral mean is L(f(b), f(a))
        f = parse(f"exp({k}*x + {c!r})")
        assert eval_dragomir_mond(f, UNIT).verdict == VERDICT_CHAIN_HOLDS
        for g_text in (f"exp({k}*x + {c!r})", f"exp({k}*x)"):
            report = eval_theorem2(f, parse(g_text), PhiMap.identity(UNIT))
            assert report.verdict == VERDICT_CHAIN_HOLDS

    @pytest.mark.parametrize("text", ["1 + 1e-9*x^2", "exp(1e-12*x)", "1.0000001"])
    def test_f_near_one_holds_in_dragomir_mond(self, text):
        # ln f is near 0 and known to about eps absolute: its mean needs only
        # quad_tol absolute, where a relative budget could never be met
        report = eval_dragomir_mond(parse(text), UNIT)
        assert report.verdict == VERDICT_CHAIN_HOLDS
        with mp.workdps(30):
            f = _mp_fn(text)
            expected = mp.exp(mp.quad(lambda x: mp.log(f(x)), [0, 1]))
            assert abs(dict(report.terms)["exp_mean_log_f"] - expected) <= 1e-10 * expected

    @pytest.mark.parametrize("f_text, g_text", [
        ("1e-12*exp(x^2)", "exp(x)"),
        ("1e-12*exp(3*x)", "1e-12*exp(-x)"),
    ])
    def test_tiny_f_theorem2_terms_match_mpmath(self, f_text, g_text):
        report = eval_theorem2(parse(f_text), parse(g_text), PhiMap.identity(UNIT))
        f, g = _mp_fn(f_text), _mp_fn(g_text)
        with mp.workdps(30):
            expected = [
                mp.quad(lambda x: f(x) * g(x), [0, 1]),
                _mp_log_mean(f(1) * g(1), f(0) * g(0)),
                0.25 * (f(1) + f(0)) * _mp_log_mean(f(1), f(0))
                + 0.25 * (g(1) + g(0)) * _mp_log_mean(g(1), g(0)),
            ]
            for value, ref in zip(values(report), expected):
                assert abs(value - ref) <= 1e-10 * abs(ref)


class TestProductChainOracle:
    # a product of log-phi-convex functions is log-phi-convex, so theorem2's
    # first two terms are theorem1's integral mean and logarithmic mean of
    # the endpoint values for the product, with the same integrand values
    @given(st.floats(-3, 3), st.floats(0.1, 5), st.floats(-3, 3), st.floats(0, 2),
           st.sampled_from(["x", "x^2", "1 - x", "0.1 + 0.7*x^3"]))
    @settings(max_examples=200, deadline=None)
    def test_first_two_terms_are_theorem1_of_the_product(self, k, c, m, q, phi_text):
        f_text, g_text = f"exp({k!r}*x^2 + x)", f"{c!r} + {q!r}*x^2 + {m!r}*x^3"
        f, g = parse(f_text), parse(g_text)
        phi = PhiMap(parse(phi_text), UNIT)
        try:
            product = eval_theorem2(f, g, phi)
        except PositivityViolated:
            return  # g is not positive on the domain
        single = eval_theorem1(parse(f"({f_text})*({g_text})"), phi)
        pairs = [(product.terms[0], single.terms[2]), (product.terms[1], single.terms[3])]
        assert [(a[0], b[0]) for a, b in pairs] == [
            ("integral_mean_fg", "integral_mean_f"),
            ("log_mean_product_endpoints", "log_mean_phi_endpoints")]
        assert [a[1].hex() for a, _ in pairs] == [b[1].hex() for _, b in pairs]


# ------------------ the hand-written evaluators, as a reference ------------------
# The chains as they stood before the (name, thunk) term loop: each term
# named twice, ends checked point by point, products computed under their
# own errstate, and each link judged against the tolerance times the larger
# magnitude of its two terms.  The evaluators must agree with them report
# for report and error for error.

def _ref_finish(chain_id, named_terms, tolerance, quad_tol, diagnostics=None, notes=()):
    values = [v for _, v in named_terms]
    margins = tuple(values[i + 1] - values[i] for i in range(len(values) - 1))
    violated = tuple(i for i, m in enumerate(margins)
                     if m < -tolerance * max(abs(values[i]), abs(values[i + 1])))
    verdict = VERDICT_LINK_VIOLATED if violated else VERDICT_CHAIN_HOLDS
    return ChainReport(
        chain_id=chain_id, terms=tuple(named_terms), pair_margins=margins,
        verdict=verdict, violated_links=violated, tolerance=tolerance,
        quad_tol=quad_tol, diagnostics=diagnostics, notes=tuple(notes),
    )


def _ref_term(name, fn):
    try:
        return fn()
    except HHVError as err:
        raise ChainTermError(name, str(err)) from err


def _ref_positive_vals(f, xs, label):
    vals = f.eval_array(xs)
    bad = ~(vals > 0)
    if bad.any():
        i = int(np.argmax(bad))
        raise PositivityViolated(float(np.asarray(xs).ravel()[i]),
                                 f"{label} = {float(vals.ravel()[i])!r} is not positive")
    return vals


def _ref_positive_point(f, x, label):
    v = f.eval(x)
    if not v > 0:
        raise PositivityViolated(x, f"{label} = {v!r} is not positive")
    return v


def _ref_geometric_reflected(f, center):
    def integrand(xs):
        fx = _ref_positive_vals(f, xs, "f(x)")
        fr = _ref_positive_vals(f, center - xs, "f(reflected x)")
        return np.exp(0.5 * (np.log(fx) + np.log(fr)))

    return integrand


def _ref_overflow_to_inf(integrand):
    def quiet(xs):
        with np.errstate(over="ignore"):
            return integrand(xs)

    return quiet


def _ref_classic_hh(f, interval, quad_tol=DEFAULT_QUAD_TOL, tolerance=DEFAULT_CHAIN_TOL):
    terms = [
        ("f_at_midpoint", _ref_term("f_at_midpoint", lambda: f.eval(interval.midpoint))),
        ("integral_mean_f", _ref_term("integral_mean_f",
                                      lambda: mean_value(f.eval_array, interval, quad_tol))),
        ("endpoint_arithmetic_mean",
         _ref_term("endpoint_arithmetic_mean",
                   lambda: 0.5 * (f.eval(interval.a) + f.eval(interval.b)))),
    ]
    return _ref_finish("classic_hh", terms, tolerance, quad_tol)


def _ref_dragomir_mond(f, interval, quad_tol=DEFAULT_QUAD_TOL, tolerance=DEFAULT_CHAIN_TOL):
    _require_positivity(f, interval, "dragomir_mond integrand")
    a, b = interval.a, interval.b
    center = a + b
    fa = _ref_positive_point(f, a, "f(a)")
    fb = _ref_positive_point(f, b, "f(b)")
    terms = [
        ("f_at_midpoint", _ref_term("f_at_midpoint", lambda: f.eval(interval.midpoint))),
        ("exp_mean_log_f",
         _ref_term("exp_mean_log_f", lambda: float(np.exp(mean_value(
             lambda xs: np.log(_ref_positive_vals(f, xs, "f(x)")), interval, quad_tol,
             min_magnitude=interval.width))))),
        ("mean_geometric_reflected",
         _ref_term("mean_geometric_reflected", lambda: mean_value(
             _ref_geometric_reflected(f, center), interval, quad_tol))),
        ("integral_mean_f",
         _ref_term("integral_mean_f", lambda: mean_value(f.eval_array, interval, quad_tol))),
        ("log_mean_endpoints",
         _ref_term("log_mean_endpoints", lambda: logarithmic(PositivePair(fa, fb)))),
        ("arithmetic_mean_endpoints",
         _ref_term("arithmetic_mean_endpoints", lambda: arithmetic(PositivePair(fa, fb)))),
    ]
    return _ref_finish("dragomir_mond", terms, tolerance, quad_tol)


def _ref_phi_endpoints(phi):
    pa, pb = phi.at_a, phi.at_b
    if abs(pb - pa) < DEGENERATE_PHI_EPS * phi.domain.width:
        raise DegeneratePhi(
            f"phi({phi.domain.a!r}) = {pa!r} and phi({phi.domain.b!r}) = {pb!r} coincide"
        )
    notes = ()
    if pa > pb:
        notes = ("phi(a) > phi(b); integrals taken over the reversed interval "
                 f"[{pb!r}, {pa!r}], which leaves every mean unchanged",)
    span = Interval(min(pa, pb), max(pa, pb))
    return pa, pb, span, notes


def _ref_theorem1(f, phi, quad_tol=DEFAULT_QUAD_TOL, tolerance=DEFAULT_CHAIN_TOL,
                  include_diagnostics=False):
    _require_positivity(f, phi.domain, "theorem1 integrand")
    pa, pb, span, notes = _ref_phi_endpoints(phi)
    center = pa + pb
    fpa = _ref_positive_point(f, pa, "f(phi(a))")
    fpb = _ref_positive_point(f, pb, "f(phi(b))")
    terms = [
        ("f_at_phi_midpoint",
         _ref_term("f_at_phi_midpoint", lambda: f.eval(0.5 * center))),
        ("mean_geometric_reflected",
         _ref_term("mean_geometric_reflected", lambda: mean_value(
             _ref_geometric_reflected(f, center), span, quad_tol))),
        ("integral_mean_f",
         _ref_term("integral_mean_f", lambda: mean_value(f.eval_array, span, quad_tol))),
        ("log_mean_phi_endpoints",
         _ref_term("log_mean_phi_endpoints", lambda: logarithmic(PositivePair(fpb, fpa)))),
        ("arithmetic_mean_phi_endpoints",
         _ref_term("arithmetic_mean_phi_endpoints",
                   lambda: arithmetic(PositivePair(fpa, fpb)))),
    ]
    diagnostics = None
    if include_diagnostics:
        mean_arith = _ref_term("mean_arithmetic_reflected", lambda: mean_value(
            _ref_overflow_to_inf(
                lambda xs: 0.5 * (f.eval_array(xs) + f.eval_array(center - xs))),
            span, quad_tol))
        diagnostics = {"mean_arithmetic_reflected": mean_arith}
    return _ref_finish("theorem1", terms, tolerance, quad_tol, diagnostics, notes)


def _ref_theorem2(f, g, phi, quad_tol=DEFAULT_QUAD_TOL, tolerance=DEFAULT_CHAIN_TOL,
                  include_diagnostics=False):
    _require_positivity(f, phi.domain, "theorem2 integrand f")
    _require_positivity(g, phi.domain, "theorem2 integrand g")
    pa, pb, span, notes = _ref_phi_endpoints(phi)
    fpa = _ref_positive_point(f, pa, "f(phi(a))")
    fpb = _ref_positive_point(f, pb, "f(phi(b))")
    gpa = _ref_positive_point(g, pa, "g(phi(a))")
    gpb = _ref_positive_point(g, pb, "g(phi(b))")

    def log_mean_products():
        # the endpoint products may underflow to 0 or overflow to inf
        for p, end in ((fpb * gpb, "b"), (fpa * gpa, "a")):
            if not (math.isfinite(p) and p > 0):
                raise PositivityViolated(None, f"f(phi({end}))*g(phi({end})) = {p!r} "
                                               "is not finite and positive")
        return logarithmic(PositivePair(fpb * gpb, fpa * gpa))

    terms = [
        ("integral_mean_fg",
         _ref_term("integral_mean_fg", lambda: mean_value(
             _ref_overflow_to_inf(lambda xs: f.eval_array(xs) * g.eval_array(xs)),
             span, quad_tol))),
        ("log_mean_product_endpoints",
         _ref_term("log_mean_product_endpoints", log_mean_products)),
        ("quarter_sum_log_mean_bound",
         _ref_term("quarter_sum_log_mean_bound", lambda:
                   0.25 * (fpb + fpa) * logarithmic(PositivePair(fpb, fpa))
                   + 0.25 * (gpb + gpa) * logarithmic(PositivePair(gpb, gpa)))),
    ]
    diagnostics = None
    if include_diagnostics:
        half_sq = _ref_term("half_mean_square_sum", lambda: 0.5 * mean_value(
            _ref_overflow_to_inf(lambda xs: f.eval_array(xs) ** 2 + g.eval_array(xs) ** 2),
            span, quad_tol))
        diagnostics = {
            "half_mean_square_sum": half_sq,
            "half_mean_square_sum_minus_term2": half_sq - terms[1][1],
            "term3_minus_half_mean_square_sum": terms[2][1] - half_sq,
        }
    return _ref_finish("theorem2", terms, tolerance, quad_tol, diagnostics, notes)


_CHAINS = {
    "classic_hh": (eval_classic_hh, _ref_classic_hh),
    "dragomir_mond": (eval_dragomir_mond, _ref_dragomir_mond),
    "theorem1": (eval_theorem1, _ref_theorem1),
    "theorem2": (eval_theorem2, _ref_theorem2),
}


def _chain_outcome(fn, chain, f, g, phi, diagnostics, quad_tol=DEFAULT_QUAD_TOL):
    """Everything a caller can observe: the report's repr, or the error's
    type, message, term and cause type."""
    if chain in ("classic_hh", "dragomir_mond"):
        args, extra = (f, phi.domain), {"quad_tol": quad_tol}
    else:
        args = (f, g, phi) if chain == "theorem2" else (f, phi)
        extra = {"quad_tol": quad_tol, "include_diagnostics": diagnostics}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return repr(fn(*args, **extra))
        except HHVError as err:
            return (type(err), str(err), getattr(err, "term", None),
                    type(err.__cause__))


def _assert_matches_reference(chain, f_text, g_text, phi_text, domain, diagnostics):
    f, g = parse(f_text), parse(g_text)
    phi = PhiMap(parse(phi_text), domain)
    new, ref = _CHAINS[chain]
    assert _chain_outcome(new, chain, f, g, phi, diagnostics) \
        == _chain_outcome(ref, chain, f, g, phi, diagnostics)


def _phi_texts(domain):
    a, b, w = domain.a, domain.b, domain.width
    return st.sampled_from([
        "x",
        f"{a!r} + (x - {a!r})^2/{w!r}",
        f"{a + b!r} - x",
        f"{domain.midpoint!r}",
    ])


_SHIFT = st.floats(-0.5, 2.5)
_F_TEXTS = st.one_of(
    st.builds(lambda k, c: f"exp({k!r}*x + {c!r})", st.floats(-40, 40), st.floats(-25, 25)),
    st.builds(lambda cs: " + ".join(f"({c!r})*x^{i}" for i, c in enumerate(cs)),
              st.lists(st.floats(-3, 3), min_size=1, max_size=4)),
    st.builds(lambda c0, cs: f"{c0!r}" + "".join(f" + {c!r}*x^{i + 1}"
                                               for i, c in enumerate(cs)),
              st.floats(0.1, 5), st.lists(st.floats(0, 3), max_size=3)),
    st.builds(lambda form, s: form.format(s=f"({s!r})"),
              st.sampled_from(["ln(x - {s})", "1/(x - {s})", "sqrt(x - {s})",
                               "sqrt({s} - x)", "exp(x)*sqrt(x - {s})"]),
              _SHIFT),
    st.sampled_from(["exp(400*x)", "exp(709.5*x)", "exp(709.7*(1-x)) + exp(707.5*x)",
                     "exp(360*x)", "exp(-745*x)"]),
)


class TestTermLoopMatchesReference:
    @given(st.sampled_from(sorted(_CHAINS)), _F_TEXTS, _F_TEXTS,
           st.sampled_from([Interval(0.0, 1.0), Interval(0.5, 2.0)]), st.data(),
           st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_evaluators(self, chain, f_text, g_text, domain, data,
                                          diagnostics):
        phi_text = data.draw(_phi_texts(domain))
        _assert_matches_reference(chain, f_text, g_text, phi_text, domain, diagnostics)

    @pytest.mark.parametrize("chain, f_text, g_text, phi_text, diagnostics", [
        # f vanishes at phi(a), between the points of the positivity grid:
        # the end check fails before any term runs
        ("theorem1", "(x - 0.25)^2", "1", "0.25 + x/2", False),
        ("theorem2", "exp(x)", "(x - 0.75)^2 + 0*x", "0.25 + x/2", True),
        # a degenerate phi is reported before the ends are checked
        ("theorem1", "(x - 0.5)^2", "1", "0.5", False),
        # values near the float maximum, whose integrals stay finite
        ("theorem1", "exp(709.5*x)", "1", "x", True),
        ("theorem2", "exp(400*x)", "exp(400*x)", "x", True),
        # the first failing term is reported, in chain order
        ("classic_hh", "ln(x - 0.7)", "1", "x", False),
        ("classic_hh", "ln(x - 0.2)", "1", "x", False),
        ("theorem2", "exp(x)", "exp(2*x)", "1 - x", True),
    ])
    def test_regression_cases(self, chain, f_text, g_text, phi_text, diagnostics):
        _assert_matches_reference(chain, f_text, g_text, phi_text, UNIT, diagnostics)


# ------------------ integral means shared across chain calls ------------------

_JOBS = [("classic_hh", False), ("dragomir_mond", False), ("theorem1", False),
         ("theorem1", True), ("theorem2", False), ("theorem2", True)]


class TestSharedMeans:
    @given(_F_TEXTS, st.permutations(_JOBS), st.data())
    @settings(max_examples=200, deadline=None)
    def test_shared_means_match_fresh_calls(self, f_text, jobs, data):
        # the six chain jobs of the chains benchmark on one f, in any order,
        # each on its own parse of f, g and phi, as the benchmark runs them;
        # each job draws its own g, domain, phi and quad_tol, so that means
        # of other integrands, spans or tolerances sit in the memo
        calls = []
        for chain, diagnostics in jobs:
            g_text = data.draw(_F_TEXTS)
            domain = data.draw(st.sampled_from([Interval(0.0, 1.0), Interval(0.5, 2.0)]))
            phi_text = data.draw(_phi_texts(domain))
            quad_tol = data.draw(st.sampled_from([1e-10, 1e-8]))
            calls.append((chain, diagnostics, g_text, domain, phi_text, quad_tol))

        def outcome(chain, diagnostics, g_text, domain, phi_text, quad_tol, which=0):
            f, g = parse(f_text), parse(g_text)
            phi = PhiMap(parse(phi_text), domain)
            return _chain_outcome(_CHAINS[chain][which], chain, f, g, phi, diagnostics,
                                  quad_tol)

        chains._means.clear()
        shared = [outcome(*call) for call in calls]
        for call, got in zip(calls, shared):
            chains._means.clear()
            assert got == outcome(*call)
            # and the hand-written evaluator, which shares nothing, agrees
            assert got == outcome(*call, which=1)

    @pytest.fixture
    def integrations(self, monkeypatch):
        """The span of every ``quadrature.integrate`` call the test makes."""
        calls = []
        integrate = quadrature.integrate

        def counting(integrand, interval, *args):
            calls.append(interval)
            return integrate(integrand, interval, *args)

        monkeypatch.setattr(quadrature, "integrate", counting)
        return calls

    def test_one_integration_per_distinct_mean(self, integrations):
        text = "exp(x^2) + 1"
        eval_classic_hh(parse(text), UNIT)
        eval_dragomir_mond(parse(text), UNIT)
        eval_theorem1(parse(text), PhiMap.identity(UNIT), include_diagnostics=True)
        eval_theorem2(parse(text), parse("x + 1"), PhiMap.identity(UNIT),
                      include_diagnostics=True)
        # f, ln f, the reflected geometric and arithmetic means, f*g, f^2 + g^2;
        # nine integrations without sharing
        assert len(integrations) == len(chains._means) == 6

    def test_failing_integration_is_not_kept(self, integrations):
        errors = []
        for _ in range(2):
            with pytest.raises(ChainTermError) as exc:
                eval_theorem1(parse("1/(x-0.3001)^2"), PhiMap.identity(UNIT))
            errors.append((str(exc.value), exc.value.term, type(exc.value.__cause__)))
        assert errors[0] == errors[1]
        assert errors[0][1:] == ("mean_geometric_reflected", MaxDepthExceeded)
        assert len(integrations) == 2 and not chains._means

    def test_size_is_bounded_oldest_dropped_first(self):
        size = chains._MEANS_SIZE
        for k in range(size + 5):
            eval_classic_hh(parse(f"x + {k}"), UNIT)
        assert len(chains._means) == size
        kept = {key[1] for key in chains._means}
        assert parse("x + 0").root not in kept
        assert parse(f"x + {size + 4}").root in kept
