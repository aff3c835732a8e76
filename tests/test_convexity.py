import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hhv import convexity
from hhv.convexity import (
    MAX_SAMPLES, EquivalenceReport, LinkCheck, PhiMap, SamplePlan, SampleSet, SampleTriple,
    VERDICT_HOLDS, VERDICT_VIOLATED,
    check_convex, check_implication_chain, check_phi_chord_equivalence,
    check_log_phi_chord_equivalence, check_log_convex, check_log_phi_convex,
    check_log_phi_midconvex, check_phi_convex,
)
from hhv.errors import EvalError, PhiRangeViolated, PositivityViolated
from hhv.expr import Interval, check_positive, parse

UNIT = Interval(0.0, 1.0)
SMALL = SamplePlan(x_points=9, t_points=9, random_count=64, seed=1)


def brute_force_log_convex(f, interval, nx=41, nt=21):
    """Independent dense-grid oracle: min log-margin over a lattice."""
    xs = np.linspace(interval.a, interval.b, nx)
    ts = np.linspace(0.0, 1.0, nt)
    worst = math.inf
    for x in xs:
        for y in xs:
            for t in ts:
                lhs = math.log(f.eval(t * x + (1.0 - t) * y))
                rhs = t * math.log(f.eval(x)) + (1.0 - t) * math.log(f.eval(y))
                worst = min(worst, rhs - lhs)
    return worst


def brute_force_phi_convex(f, phi, interval, nx=21, nt=11):
    xs = np.linspace(interval.a, interval.b, nx)
    ts = np.linspace(0.0, 1.0, nt)
    worst = math.inf
    for x in xs:
        for y in xs:
            px, py = phi.eval(x), phi.eval(y)
            for t in ts:
                lhs = f.eval(t * px + (1.0 - t) * py)
                rhs = t * f.eval(px) + (1.0 - t) * f.eval(py)
                worst = min(worst, rhs - lhs)
    return worst


class TestSamplePlan:
    def test_t_lattice_contains_anchors(self):
        _, _, ts = SamplePlan(x_points=5, t_points=9, random_count=0).triples(UNIT)
        assert {0.0, 0.5, 1.0} <= set(ts)

    def test_even_t_points_rejected(self):
        with pytest.raises(ValueError):
            SamplePlan(t_points=8)

    @pytest.mark.parametrize("sizes, message", [
        (dict(x_points=1), "x_points must be >= 2, got 1"),
        (dict(random_count=-1), "random_count must be >= 0, got -1"),
    ])
    def test_too_small_plan_rejected(self, sizes, message):
        with pytest.raises(ValueError, match=message):
            SamplePlan(**sizes)

    def test_random_block_is_prefix_stable(self):
        small = SamplePlan(x_points=3, t_points=3, random_count=100, seed=9)
        big = SamplePlan(x_points=3, t_points=3, random_count=200, seed=9)
        xs_s, ys_s, ts_s = small.triples(UNIT)
        xs_b, ys_b, ts_b = big.triples(UNIT)
        lattice = 3 * 3 * 3
        assert (xs_b[: lattice + 100] == xs_s).all()
        assert (ys_b[: lattice + 100] == ys_s).all()
        assert (ts_b[: lattice + 100] == ts_s).all()

    def test_plan_above_max_samples_rejected(self):
        # 1024^2 * 3 lattice triples plus the random ones reach the cap exactly
        random_count = MAX_SAMPLES - 1024**2 * 3
        assert SamplePlan(x_points=1024, t_points=3, random_count=random_count)
        with pytest.raises(ValueError, match="more than"):
            SamplePlan(x_points=1024, t_points=3, random_count=random_count + 1)
        with pytest.raises(ValueError, match="more than"):
            SamplePlan(x_points=100000)


class TestToleranceContract:
    # a NaN tolerance would let every margin hold
    @pytest.mark.parametrize("tolerance", [math.nan, -1e-9])
    @pytest.mark.parametrize("check", [
        lambda tol: check_convex(parse("sqrt(x)"), UNIT, SMALL, tolerance=tol),
        lambda tol: check_implication_chain(parse("x"), PhiMap.identity(Interval(1, 2)),
                                            SMALL, tolerance=tol),
        lambda tol: check_phi_chord_equivalence(parse("sqrt(x)"), PhiMap.identity(UNIT), 4,
                                                SMALL, tolerance=tol),
    ], ids=["certifier", "implication_chain", "chord_check"])
    def test_nan_or_negative_tolerance_rejected(self, check, tolerance):
        with pytest.raises(ValueError, match="tolerance must be a non-negative number"):
            check(tolerance)

    def test_zero_tolerance_allowed(self):
        rep = check_convex(parse("sqrt(x)"), UNIT, SMALL, tolerance=0.0)
        assert rep.verdict == VERDICT_VIOLATED


class TestPhiMap:
    def test_identity_factory(self):
        phi = PhiMap.identity(UNIT)
        assert phi.at_a == 0.0 and phi.at_b == 1.0

    def test_square_is_self_map_on_unit(self):
        PhiMap(parse("x^2"), UNIT)  # must not raise

    def test_escaping_map_rejected(self):
        with pytest.raises(PhiRangeViolated):
            PhiMap(parse("2*x"), UNIT)

    def test_shifted_domain(self):
        with pytest.raises(PhiRangeViolated):
            PhiMap(parse("x^2"), Interval(1.0, 2.0))  # 2^2 = 4 escapes

    def test_slack_scales_with_a_small_domain(self):
        # phi(0) lies 500 domain widths above b
        with pytest.raises(PhiRangeViolated):
            PhiMap(parse("x + 5e-10"), Interval(0.0, 1e-12))

    def test_reflection_of_a_small_domain_accepted(self):
        phi = PhiMap(parse("1e-12 - x"), Interval(0.0, 1e-12))
        assert (phi.at_a, phi.at_b) == (1e-12, 0.0)


class TestCheckConvex:
    def test_square_holds(self):
        rep = check_convex(parse("x^2"), Interval(-1, 1), SMALL)
        assert rep.verdict == VERDICT_HOLDS
        assert rep.min_margin >= 0.0

    def test_sqrt_violated_with_expected_scale(self):
        # chord midpoint check at (0, 1, 1/2): 0.5 - sqrt(0.5) ~ -0.2071
        rep = check_convex(parse("sqrt(x)"), UNIT)
        assert rep.verdict == VERDICT_VIOLATED
        assert rep.min_margin < -0.2
        assert rep.failure_kind == "inequality"

    def test_affine_equality_case(self):
        rep = check_convex(parse("2*x + 3"), Interval(-2, 5), SMALL)
        assert rep.verdict == VERDICT_HOLDS
        assert abs(rep.min_margin) <= 1e-12

    def test_witness_reproduces_margin(self):
        f = parse("sqrt(x)")
        rep = check_convex(f, UNIT)
        w = rep.witness
        margin = w.t * f.eval(w.x) + (1 - w.t) * f.eval(w.y) - f.eval(w.t * w.x + (1 - w.t) * w.y)
        assert margin < -rep.tolerance
        assert margin == pytest.approx(rep.min_margin, rel=1e-12)

    def test_domain_failure_flagged(self):
        rep = check_convex(parse("ln(x - 0.5)"), UNIT, SMALL)
        assert rep.verdict == VERDICT_VIOLATED
        assert rep.failure_kind == "domain"
        assert rep.witness is not None
        assert rep.min_margin == -math.inf


class TestCheckLogConvex:
    def test_exp_equality_case(self):
        rep = check_log_convex(parse("exp(x)"), UNIT)
        assert rep.verdict == VERDICT_HOLDS
        assert abs(rep.min_margin) <= 1e-12

    def test_linear_violated_with_known_witness_scale(self):
        # (1, 2, 1/2): log(sqrt 2) - log(1.5) ~ -0.0589
        rep = check_log_convex(parse("x"), Interval(1, 2))
        assert rep.verdict == VERDICT_VIOLATED
        assert rep.min_margin <= -0.05

    def test_exp_x_squared_matches_grid_oracle(self):
        f = parse("exp(x^2)")
        rep = check_log_convex(f, Interval(-1, 1), SMALL)
        assert rep.verdict == VERDICT_HOLDS
        assert brute_force_log_convex(f, Interval(-1, 1)) >= -1e-12

    def test_positivity_precondition(self):
        with pytest.raises(PositivityViolated):
            check_log_convex(parse("x"), Interval(-1, 1))


class TestPhiClasses:
    def test_identity_reduction_convex(self):
        f = parse("exp(x) - x")
        plan = SamplePlan(x_points=7, t_points=5, random_count=32, seed=3)
        direct = check_convex(f, UNIT, plan)
        deformed = check_phi_convex(f, PhiMap.identity(UNIT), plan)
        assert direct.verdict == deformed.verdict
        assert direct.min_margin == deformed.min_margin

    def test_identity_reduction_log(self):
        f = parse("x + 1")
        plan = SamplePlan(x_points=7, t_points=5, random_count=32, seed=3)
        direct = check_log_convex(f, UNIT, plan)
        deformed = check_log_phi_convex(f, PhiMap.identity(UNIT), plan)
        assert direct.verdict == deformed.verdict
        assert direct.min_margin == deformed.min_margin
        assert direct.witness == deformed.witness

    def test_square_deformation_holds_with_oracle(self):
        f = parse("x^2")
        phi = PhiMap(parse("x^2"), UNIT)
        rep = check_phi_convex(f, phi, SMALL)
        assert rep.verdict == VERDICT_HOLDS
        assert brute_force_phi_convex(f, parse("x^2"), UNIT) >= -1e-15

    def test_sqrt_violated_under_identity(self):
        rep = check_phi_convex(parse("sqrt(x)"), PhiMap.identity(UNIT))
        assert rep.verdict == VERDICT_VIOLATED

    def test_exp_holds_for_any_phi(self):
        for phi_text in ("x", "x^2", "sqrt(x)", "0.5*x + 0.25"):
            rep = check_log_phi_convex(parse("exp(x)"), PhiMap(parse(phi_text), UNIT), SMALL)
            assert rep.verdict == VERDICT_HOLDS
            assert abs(rep.min_margin) <= 1e-12

    def test_linear_violated_under_identity_log(self):
        dom = Interval(1, 2)
        rep = check_log_phi_convex(parse("x"), PhiMap.identity(dom))
        assert rep.verdict == VERDICT_VIOLATED


class TestMidconvex:
    def test_exp_equality(self):
        rep = check_log_phi_midconvex(parse("exp(x)"), PhiMap.identity(UNIT), SMALL)
        assert rep.verdict == VERDICT_HOLDS
        assert abs(rep.min_margin) <= 1e-12

    def test_t_pinned_to_half(self):
        rep = check_log_phi_midconvex(parse("exp(x)"), PhiMap.identity(UNIT), SMALL)
        assert rep.samples_tested == 9 * 9 * 9 + 64

    def test_full_class_implies_midpoint_class(self):
        f = parse("exp(x^2)")
        phi = PhiMap(parse("x^2"), UNIT)
        full = check_log_phi_convex(f, phi, SMALL)
        mid = check_log_phi_midconvex(f, phi, SMALL)
        assert full.verdict == VERDICT_HOLDS
        assert mid.verdict == VERDICT_HOLDS

    def test_linear_violated_at_endpoints_pair(self):
        # f(1.5) = 1.5 > sqrt(2): fails at the (1, 2) pair
        rep = check_log_phi_midconvex(parse("x"), PhiMap.identity(Interval(1, 2)))
        assert rep.verdict == VERDICT_VIOLATED
        assert rep.min_margin <= math.log(math.sqrt(2.0)) - math.log(1.5) + 1e-12


class TestDeterminismAndMonotonicity:
    def test_reports_identical_across_runs(self):
        f = parse("exp(x^2)")
        plan = SamplePlan(x_points=9, t_points=5, random_count=128, seed=11)
        a = check_log_convex(f, Interval(-1, 1), plan)
        b = check_log_convex(f, Interval(-1, 1), plan)
        assert a == b

    def test_enlarging_samples_never_unflags(self):
        f = parse("x")
        dom = Interval(1, 2)
        small = SamplePlan(x_points=5, t_points=5, random_count=16, seed=2)
        big = SamplePlan(x_points=9, t_points=9, random_count=32, seed=2)
        rep_small = check_log_convex(f, dom, small)
        rep_big = check_log_convex(f, dom, big)
        assert rep_small.verdict == VERDICT_VIOLATED
        assert rep_big.verdict == VERDICT_VIOLATED
        assert rep_big.min_margin <= rep_small.min_margin + 1e-15


class TestImplicationChain:
    def test_exp_all_links_hold_link1_tight(self):
        rep = check_implication_chain(parse("exp(x)"), PhiMap.identity(UNIT), SMALL)
        assert rep.verdict == VERDICT_HOLDS
        link1 = rep.links[0]
        assert abs(link1.min_margin) <= 1e-12

    def test_linear_breaks_only_first_link(self):
        rep = check_implication_chain(parse("x"), PhiMap.identity(Interval(1, 2)), SMALL)
        assert rep.links[0].verdict == VERDICT_VIOLATED
        assert rep.links[1].verdict == VERDICT_HOLDS
        assert rep.links[2].verdict == VERDICT_HOLDS

    def test_violated_link_makes_the_chain_violated(self):
        rep = check_implication_chain(parse("x^2 + 0.5"), PhiMap.identity(UNIT))
        assert [link.verdict for link in rep.links] == [
            VERDICT_VIOLATED, VERDICT_HOLDS, VERDICT_HOLDS]
        assert rep.links[0].name == "multiplicative_bound"
        assert rep.verdict == VERDICT_VIOLATED

    def test_am_gm_and_max_links_unconditional(self):
        # links 2 and 3 hold for every positive f, convex or not
        for text in ("x", "1/(1 + x)", "2 + x*(1 - x)", "exp(-x^2)"):
            rep = check_implication_chain(parse(text), PhiMap.identity(Interval(0.1, 1)), SMALL)
            assert rep.links[1].min_margin >= -1e-12
            assert rep.links[2].min_margin >= -1e-12


class TestChordEquivalences:
    def test_exp_with_square_phi_agree_holding(self):
        rep = check_log_phi_chord_equivalence(
            parse("exp(x)"), PhiMap(parse("x^2"), UNIT), 100,
            SamplePlan(x_points=7, t_points=7, random_count=16, seed=4), seed=17)
        assert rep.agree
        assert rep.direct_verdict == VERDICT_HOLDS
        assert rep.segment_verdict == VERDICT_HOLDS

    def test_linear_agree_violated(self):
        rep = check_log_phi_chord_equivalence(
            parse("x"), PhiMap.identity(Interval(1, 2)), 32,
            SamplePlan(x_points=7, t_points=7, random_count=16, seed=4), seed=17)
        assert rep.agree
        assert rep.direct_verdict == VERDICT_VIOLATED
        assert rep.segment_verdict == VERDICT_VIOLATED

    def test_negative_pair_count_rejected(self):
        with pytest.raises(ValueError, match="pair_count must be >= 0, got -1"):
            check_log_phi_chord_equivalence(parse("exp(x)"), PhiMap.identity(UNIT), -1)

    def test_zero_pairs_vacuous(self):
        rep = check_log_phi_chord_equivalence(parse("exp(x)"), PhiMap.identity(UNIT), 0)
        assert rep.agree
        assert rep.pairs_tested == 0

    def test_additive_variant_on_convex_and_concave(self):
        plan = SamplePlan(x_points=7, t_points=7, random_count=16, seed=4)
        holds = check_phi_chord_equivalence(parse("x^2"), PhiMap.identity(UNIT), 32, plan, seed=5)
        assert holds.agree and holds.direct_verdict == VERDICT_HOLDS
        fails = check_phi_chord_equivalence(parse("sqrt(x)"), PhiMap.identity(UNIT), 32, plan, seed=5)
        assert fails.agree and fails.direct_verdict == VERDICT_VIOLATED

    def test_determinism(self):
        args = (parse("exp(x^2)"), PhiMap(parse("x^2"), UNIT), 16,
                SamplePlan(x_points=5, t_points=5, random_count=8, seed=0))
        assert check_log_phi_chord_equivalence(*args, seed=9) == check_log_phi_chord_equivalence(*args, seed=9)


# ----------------------------- flat reference engine -------------------------
# The margin engine as it was before the sample set was stored factored:
# phi and f are evaluated at every x, every y and every mix of the flat
# triples of SamplePlan.triples().  The factored engine must reproduce its
# margins bit for bit, and its reports and errors exactly.

class _RefSegment:
    def __init__(self, f, u, v):
        self.f, self.u, self.v = f, float(u), float(v)

    def eval_array(self, ts):
        ts = np.asarray(ts, dtype=float)
        return self.f.eval_array(ts * self.u + (1.0 - ts) * self.v)


def _ref_require_positive_values(vals, points):
    bad = ~(vals > 0)
    if bad.any():
        i = int(np.argmax(bad))
        raise PositivityViolated(float(points[i]), f"f = {float(vals[i])!r} is not positive")


def _ref_require_positivity(f, interval):
    res = check_positive(f, interval, convexity.POSITIVITY_GRID)
    if not res.ok:
        raise PositivityViolated(res.witness, res.detail)


def _ref_values(f, phi, xs, ys, ts, log_space):
    if phi is not None:
        px = phi.eval_array(xs)
        py = phi.eval_array(ys)
    else:
        px, py = xs, ys
    mix = ts * px + (1.0 - ts) * py
    fx = f.eval_array(px)
    fy = f.eval_array(py)
    fm = f.eval_array(mix)
    if log_space:
        _ref_require_positive_values(fx, px)
        _ref_require_positive_values(fy, py)
        _ref_require_positive_values(fm, mix)
    return fx, fy, fm


def _ref_margins(f, phi, xs, ys, ts, log_space):
    fx, fy, fm = _ref_values(f, phi, xs, ys, ts, log_space)
    if log_space:
        return ts * np.log(fx) + (1.0 - ts) * np.log(fy) - np.log(fm)
    return ts * fx + (1.0 - ts) * fy - fm


def _ref_run_check(f, phi, interval, plan, log_space, half_t=False,
                   tolerance=convexity.DEFAULT_TOLERANCE):
    """(verdict, min_margin, witness, samples_tested, failure_detail)."""
    xs, ys, ts = plan.triples(interval)
    if half_t:
        ts = np.full_like(ts, 0.5)
    n = len(xs)
    try:
        margins = _ref_margins(f, phi, xs, ys, ts, log_space)
    except EvalError as err:
        i = err.index
        witness = SampleTriple(float(xs[i]), float(ys[i]), float(ts[i]))
        return VERDICT_VIOLATED, -math.inf, witness, n, str(err)
    min_margin = float(margins.min())
    if min_margin < -tolerance:
        i = int(np.argmin(margins))
        witness = SampleTriple(float(xs[i]), float(ys[i]), float(ts[i]))
        return VERDICT_VIOLATED, min_margin, witness, n, None
    return VERDICT_HOLDS, min_margin, None, n, None


# name: (certifier, takes phi, log space, t pinned to 1/2)
_CERTIFIERS = {
    "convex": (check_convex, False, False, False),
    "log_convex": (check_log_convex, False, True, False),
    "phi_convex": (check_phi_convex, True, False, False),
    "log_phi_convex": (check_log_phi_convex, True, True, False),
    "log_phi_midconvex": (check_log_phi_midconvex, True, True, True),
}


def _ref_certify(name, f, phi, plan):
    _, takes_phi, log_space, half_t = _CERTIFIERS[name]
    if log_space:
        _ref_require_positivity(f, phi.domain)
    return _ref_run_check(f, phi if takes_phi else None, phi.domain, plan, log_space, half_t)


def _certify(name, f, phi, plan):
    fn, takes_phi, _, _ = _CERTIFIERS[name]
    rep = fn(f, phi if takes_phi else phi.domain, plan)
    return rep.verdict, rep.min_margin, rep.witness, rep.samples_tested, rep.failure_detail


def _ref_implication_chain(f, phi, plan, tolerance=convexity.DEFAULT_TOLERANCE):
    _ref_require_positivity(f, phi.domain)
    xs, ys, ts = plan.triples(phi.domain)
    fx, fy, fm = _ref_values(f, phi, xs, ys, ts, log_space=True)
    lfx, lfy = np.log(fx), np.log(fy)
    weighted_am = ts * fx + (1.0 - ts) * fy
    link_margins = (
        ("multiplicative_bound", ts * lfx + (1.0 - ts) * lfy - np.log(fm)),
        ("weighted_am_gm", weighted_am - np.exp(ts * lfx + (1.0 - ts) * lfy)),
        ("max_bound", np.maximum(fx, fy) - weighted_am),
    )
    links = []
    for name, margins in link_margins:
        min_margin = float(margins.min())
        if min_margin < -tolerance:
            i = int(np.argmin(margins))
            witness = SampleTriple(float(xs[i]), float(ys[i]), float(ts[i]))
            links.append(LinkCheck(name, VERDICT_VIOLATED, min_margin, witness))
        else:
            links.append(LinkCheck(name, VERDICT_HOLDS, min_margin, None))
    return tuple(links), len(xs)


def _ref_direct_triples(phi, pair_count, plan, seed):
    dom = phi.domain
    u = convexity._philox(seed, convexity._STREAM_PAIRS).random((pair_count, 2))
    pair_x = dom.a + dom.width * u[:, 0]
    pair_y = dom.a + dom.width * u[:, 1]
    gt = np.linspace(0.0, 1.0, plan.t_points)
    return (pair_x, pair_y, np.repeat(pair_x, plan.t_points),
            np.repeat(pair_y, plan.t_points), np.tile(gt, pair_count))


def _ref_chord_equivalence(f, phi, pair_count, plan, seed, log_space,
                           tolerance=convexity.DEFAULT_TOLERANCE):
    kind = "log_phi" if log_space else "phi"
    if log_space:
        _ref_require_positivity(f, phi.domain)
    if pair_count == 0:
        return EquivalenceReport(kind, True, 0, VERDICT_HOLDS, VERDICT_HOLDS, None, seed)
    pair_x, pair_y, xs, ys, ts = _ref_direct_triples(phi, pair_count, plan, seed)
    direct_violated = _ref_margins(f, phi, xs, ys, ts, log_space) < -tolerance
    direct_verdict = VERDICT_VIOLATED if direct_violated.any() else VERDICT_HOLDS
    px = phi.eval_array(pair_x)
    py = phi.eval_array(pair_y)
    segment_verdict, first_bad = VERDICT_HOLDS, None
    for i in range(pair_count):
        seg = _RefSegment(f, px[i], py[i])
        if log_space:
            _ref_require_positivity(seg, UNIT)
        if _ref_run_check(seg, None, UNIT, plan, log_space)[0] == VERDICT_VIOLATED:
            segment_verdict = VERDICT_VIOLATED
            if first_bad is None:
                first_bad = (float(pair_x[i]), float(pair_y[i]))
    agree = direct_verdict == segment_verdict
    disagreeing = None
    if not agree:
        if segment_verdict == VERDICT_VIOLATED:
            disagreeing = first_bad
        else:
            i = int(np.argmax(direct_violated))
            disagreeing = (float(xs[i]), float(ys[i]))
    return EquivalenceReport(kind, agree, pair_count, direct_verdict, segment_verdict,
                             disagreeing, seed)


def _outcome(call):
    """What a call returns, or the type, text and index of what it raises."""
    try:
        return call()
    except (EvalError, PositivityViolated, PhiRangeViolated) as err:
        return type(err), str(err), getattr(err, "index", None)


def _assert_margins_match(f, phi, samples, log_space):
    xs, ys, ts = samples.triples()
    want = _outcome(lambda: _ref_margins(f, phi, xs, ys, ts, log_space))
    got = _outcome(lambda: convexity._margins(f, phi, samples, log_space))
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        # bytes, not ==, so that -0.0 and 0.0 count as different
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    else:
        assert got == want


def _assert_all_match(f, phi, plan, pair_count=3, pair_seed=5):
    samples = plan.samples(phi.domain)
    for log_space in (False, True):
        _assert_margins_match(f, None, samples, log_space)
        _assert_margins_match(f, phi, samples, log_space)
    for name in _CERTIFIERS:
        assert (_outcome(lambda: _certify(name, f, phi, plan))
                == _outcome(lambda: _ref_certify(name, f, phi, plan))), name

    def implication():
        rep = check_implication_chain(f, phi, plan)
        return rep.links, rep.samples_tested

    assert _outcome(implication) == _outcome(lambda: _ref_implication_chain(f, phi, plan))
    for log_space, check in ((False, check_phi_chord_equivalence),
                             (True, check_log_phi_chord_equivalence)):
        got = _outcome(lambda: check(f, phi, pair_count, plan, pair_seed))
        want = _outcome(lambda: _ref_chord_equivalence(f, phi, pair_count, plan,
                                                       pair_seed, log_space))
        assert got == want, log_space


# ----------------------------- factored sample set ---------------------------

_plans = st.builds(
    SamplePlan,
    x_points=st.integers(2, 9),
    t_points=st.sampled_from([3, 5, 7, 9]),
    random_count=st.integers(0, 64),
    seed=st.integers(0, 2**32),
)
_domains = st.sampled_from([(0.0, 1.0), (0.5, 2.0), (-1.0, 0.25), (0.1, 0.35)])
_map_kinds = st.sampled_from(["identity", "reversed", "contracting"])
_smooth = ["x^2", "exp(x)", "x", "exp(x^2)", "1/(1 + x^2)", "x^3 - x",
           "exp(-x^2)", "2 + x*(1 - x)", "exp(30*x)", "abs(x - 0.2) + 0.1"]
# each fails, or is not positive, at or beyond the point c
_failing = ["ln(x - {c})", "sqrt({c} - x)", "1/(x - {c})", "abs(x - {c})",
            "(x - {c})^2 + 1/(x - {c})"]


def _phi(kind, a, b):
    mid = 0.5 * (a + b)
    text = {"identity": "x",
            "reversed": f"{a + b!r} - x",
            "contracting": f"{mid!r} + 0.5*(x - {mid!r})"}[kind]
    return PhiMap(parse(text), Interval(a, b))


class TestFactoredSamples:
    def test_triples_flatten_in_lattice_then_random_order(self):
        plan = SamplePlan(x_points=3, t_points=3, random_count=4, seed=2)
        samples = plan.samples(UNIT)
        xs, ys, ts = plan.triples(UNIT)
        assert len(xs) == samples.size == 3 * 3 * 3 + 4
        assert list(xs[:27:9]) == [0.0, 0.5, 1.0]
        assert list(ys[:9:3]) == [0.0, 0.5, 1.0]
        assert list(ts[:3]) == [0.0, 0.5, 1.0]
        assert (xs[27:] == samples.rx).all() and (ys[27:] == samples.ry).all()
        assert (ts[27:] == samples.rt).all()
        for i in range(samples.size):
            assert samples.point(i) == SampleTriple(xs[i], ys[i], ts[i])

    def test_first_index_is_first_flat_occurrence_x_before_y(self):
        samples = SamplePlan(x_points=4, t_points=5, random_count=6, seed=3).samples(UNIT)
        xs, ys, _ = samples.triples()
        ends = samples.ends()
        n_x = len(samples.gx) + len(samples.rx)
        for k, value in enumerate(ends):
            flat = xs if k < n_x else ys
            hits = np.flatnonzero(flat == value)
            assert samples.first_index(k) == hits[0]

    @settings(max_examples=120, deadline=None)
    @given(_plans, _domains, _map_kinds, st.data())
    def test_matches_flat_reference(self, plan, domain, map_kind, data):
        phi = _phi(map_kind, *domain)
        samples = plan.samples(phi.domain)
        ends = samples.ends()
        template = data.draw(st.sampled_from(_smooth + _failing))
        if "{c}" in template:
            # c at a chord end, before or after phi, or anywhere in the domain
            c = data.draw(st.one_of(
                st.sampled_from(list(ends) + list(phi.eval_array(ends))),
                st.floats(*domain),
            ))
            template = template.format(c=repr(float(c)))
        _assert_all_match(parse(template), phi, plan,
                          pair_count=data.draw(st.integers(0, 4)),
                          pair_seed=data.draw(st.integers(0, 2**16)))


# positive on every domain of _domains, so that the log space applies
_positive_smooth = ["exp(x)", "exp(x^2)", "1/(1 + x^2)", "exp(-x^2)", "exp(30*x)",
                    "abs(x - 0.2) + 0.1"]


class TestDirectSegmentIdentity:
    """A pair's direct margins in the chord check are, bit for bit, its
    segment margins at the lattice triples (x, y) = (1, 0), t on the lattice.
    So a violated direct side always comes with a violated segment, and a
    disagreement is always named by a segment."""

    @settings(max_examples=150, deadline=None)
    @given(_plans, _domains, _map_kinds, st.integers(1, 4), st.integers(0, 2**16),
           st.booleans(), st.data())
    def test_direct_margins_are_segment_margins(self, plan, domain, map_kind, pair_count,
                                                pair_seed, log_space, data):
        f = parse(data.draw(st.sampled_from(_positive_smooth if log_space else _smooth)))
        phi = _phi(map_kind, *domain)
        pair_x, pair_y, xs, ys, ts = _ref_direct_triples(phi, pair_count, plan, pair_seed)
        none = np.empty(0)
        direct = convexity._margins(f, phi, SampleSet(none, none, xs, ys, ts), log_space)
        unit = plan.samples(UNIT)
        nx, nt = plan.x_points, plan.t_points
        start = (nx - 1) * nx * nt
        for i, (u, v) in enumerate(zip(phi.eval_array(pair_x), phi.eval_array(pair_y))):
            segment = convexity._margins(convexity._Segment(f, u, v), None, unit, log_space)
            assert segment[start:start + nt].tobytes() == direct[i * nt:(i + 1) * nt].tobytes()


class TestFactoredDomainFailures:
    PLAN = SamplePlan(x_points=5, t_points=5, random_count=12, seed=4)

    def test_first_failure_before_a_lattice_y_end(self):
        # sqrt(0.6 - x) fails at x = 0.75; in triple order the first triple
        # holding it is (0, 0.75, 0), but every f(x) is evaluated before any
        # f(y), so the reported triple is the first with x = 0.75
        f = parse("sqrt(0.6 - x)")
        rep = check_convex(f, UNIT, self.PLAN)
        assert rep.failure_kind == "domain"
        assert rep.witness == SampleTriple(0.75, 0.0, 0.0)
        assert "x=0.75" in rep.failure_detail
        _assert_all_match(f, PhiMap.identity(UNIT), self.PLAN)

    def test_lattice_x_failure(self):
        f = parse("ln(x - 0.5)")
        rep = check_convex(f, UNIT, self.PLAN)
        assert rep.witness == SampleTriple(0.0, 0.0, 0.0)
        _assert_all_match(f, PhiMap.identity(UNIT), self.PLAN)

    @pytest.mark.parametrize("end", ["rx", "ry"])
    def test_failure_at_one_random_end(self, end):
        samples = self.PLAN.samples(UNIT)
        m = 7
        c = float(getattr(samples, end)[m])
        f = parse(f"1/(x - {c!r})")
        rep = check_convex(f, UNIT, self.PLAN)
        assert rep.failure_kind == "domain"
        assert rep.witness == SampleTriple(float(samples.rx[m]), float(samples.ry[m]),
                                           float(samples.rt[m]))
        assert f"x={c!r}" in rep.failure_detail
        _assert_all_match(f, PhiMap.identity(UNIT), self.PLAN)

    def test_phi_failure_at_a_random_x_end(self):
        plan = SamplePlan()
        samples = plan.samples(UNIT)
        c = float(samples.rx[5])
        phi = PhiMap(parse(f"x + 0/(x - {c!r})"), UNIT)  # the 257-point grid misses c
        rep = check_phi_convex(parse("x^2"), phi, plan)
        assert rep.failure_kind == "domain"
        assert rep.witness == SampleTriple(c, float(samples.ry[5]), float(samples.rt[5]))
        assert f"x={c!r}" in rep.failure_detail

    def test_zero_at_random_y_end_breaks_positivity(self):
        samples = self.PLAN.samples(UNIT)
        c = float(samples.ry[3])
        f = parse(f"abs(x - {c!r})")
        with pytest.raises(PositivityViolated, match=repr(c)):
            check_log_phi_convex(f, PhiMap.identity(UNIT), self.PLAN)
        _assert_all_match(f, PhiMap.identity(UNIT), self.PLAN)

    def test_positivity_message_prints_a_float(self):
        c = float(self.PLAN.samples(UNIT).ry[3])
        with pytest.raises(PositivityViolated) as exc:
            check_log_phi_convex(parse(f"abs(x - {c!r})"), PhiMap.identity(UNIT), self.PLAN)
        assert str(exc.value) == (
            f"positivity hypothesis violated at x={c!r} (f = 0.0 is not positive)")

    def test_zero_at_an_end_reported_before_zero_at_a_mix(self):
        samples = self.PLAN.samples(UNIT)
        c_end = float(samples.ry[3])
        c_mix = float(samples.rt[5] * samples.rx[5] + (1.0 - samples.rt[5]) * samples.ry[5])
        f = parse(f"abs(x - {c_mix!r})*abs(x - {c_end!r})")
        with pytest.raises(PositivityViolated, match=repr(c_end)):
            check_log_convex(f, UNIT, self.PLAN)
        _assert_all_match(f, PhiMap.identity(UNIT), self.PLAN)

    def test_phi_range_checked_on_x_before_phi_fails_on_y(self):
        # phi escapes the domain only at a random x end and cannot be
        # evaluated only at a random y end; x ends are checked first
        samples = self.PLAN.samples(UNIT)
        cx, cy = float(samples.rx[2]), float(samples.ry[9])
        phi = PhiMap(parse(f"0.5 + 0.25*x + 2*0^((x - {cx!r})^2) + 0/(x - {cy!r})"), UNIT)
        with pytest.raises(PhiRangeViolated, match=repr(cx)):
            check_phi_convex(parse("x^2"), phi, self.PLAN)
        _assert_all_match(parse("x^2"), phi, self.PLAN)

    def test_direct_side_error_index_refers_to_its_triples(self):
        phi = PhiMap.identity(UNIT)
        pair_x, _, xs, _, _ = _ref_direct_triples(phi, 3, self.PLAN, seed=6)
        c = float(pair_x[1])
        with pytest.raises(EvalError) as err:
            check_phi_chord_equivalence(parse(f"1/(x - {c!r})"), phi, 3, self.PLAN, seed=6)
        assert err.value.index == self.PLAN.t_points
        assert xs[err.value.index] == c
        _assert_all_match(parse(f"1/(x - {c!r})"), phi, self.PLAN, pair_seed=6)

    def test_direct_side_margins_bit_identical(self):
        phi = PhiMap(parse("x^2"), UNIT)
        _, _, xs, ys, ts = _ref_direct_triples(phi, 5, self.PLAN, seed=8)
        none = np.empty(0)
        for text in ("exp(x^2)", "sqrt(x + 0.1)"):
            _assert_margins_match(parse(text), phi, SampleSet(none, none, xs, ys, ts), True)
