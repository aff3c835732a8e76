import math
from dataclasses import replace

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


def _dyadic_centres(n):
    """(c, k) of every dyadic second difference of a grid of n steps, in order:
    k = 1, 2, 4, ... with 2k <= n, then c = k, ..., n - k."""
    k = 1
    while 2 * k <= n:
        yield from ((c, k) for c in range(k, n - k + 1))
        k *= 2


def triples(samples: SampleSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every triple of ``samples`` as flat (x, y, t) arrays, in order, built
    point by point: the grid's differences, the span row, the random triples."""
    g, n = samples.fine, len(samples.fine) - 1
    diffs = list(_dyadic_centres(n))
    span = [(g[n], g[0], t) for t in samples.gt]
    grid = [(g[c - k], g[c + k], 0.5) for c, k in diffs] + span
    x, y, t = (np.array([p[i] for p in grid], dtype=float) for i in range(3))
    return (np.concatenate([x, samples.rx]), np.concatenate([y, samples.ry]),
            np.concatenate([t, samples.rt]))


def _ref_grid_mix(samples):
    """The mix of each difference triple, in order: the grid point at its centre."""
    return np.array([samples.fine[c] for c, _ in _dyadic_centres(len(samples.fine) - 1)],
                    dtype=float)


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
        _, _, ts = triples(SamplePlan(x_points=5, t_points=9, random_count=0).samples(UNIT))
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
        xs_s, ys_s, ts_s = triples(small.samples(UNIT))
        xs_b, ys_b, ts_b = triples(big.samples(UNIT))
        assert len(xs_s) == small.size
        assert (xs_b[:small.size] == xs_s).all()
        assert (ys_b[:small.size] == ys_s).all()
        assert (ts_b[:small.size] == ts_s).all()

    def test_sample_arrays_are_read_only(self):
        samples = SamplePlan(x_points=3, t_points=3, random_count=4).samples(UNIT)
        for name, arr in samples._asdict().items():
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.5

    def test_last_set_is_shared_and_keyed_on_plan_and_exact_ends(self):
        plan = SamplePlan(x_points=3, t_points=3, random_count=4)
        first = plan.samples(Interval(0.0, 1.0))
        assert plan.samples(Interval(0.0, 1.0)) is first
        assert SamplePlan(x_points=3, t_points=3, random_count=4, seed=1).samples(UNIT) \
            is not first
        # -0.0 == 0.0, but a set over [-1, -0.0] keeps its end's sign
        signed = plan.samples(Interval(-1.0, -0.0))
        assert math.copysign(1.0, signed.fine[-1]) == -1.0
        assert math.copysign(1.0, plan.samples(Interval(-1.0, 0.0)).fine[-1]) == 1.0

    def test_plan_above_max_samples_rejected(self):
        # a grid of 2046 steps has 10 dyadic half-widths and 18 424 differences;
        # with the span row of 3 and the random triples they reach the cap exactly
        assert 10 * 2047 - 2 * (2**10 - 1) == 18_424
        random_count = MAX_SAMPLES - 18_424 - 3
        assert SamplePlan(x_points=1024, t_points=3, random_count=random_count)
        with pytest.raises(ValueError, match="more than"):
            SamplePlan(x_points=1024, t_points=3, random_count=random_count + 1)
        with pytest.raises(ValueError, match="more than"):
            SamplePlan(x_points=100000)

    def test_default_and_hunt_plan_sizes(self):
        # 3 595 differences of the 512-step grid, the span row, the random triples
        assert SamplePlan().size == 3595 + 17 + 4096 == 7708
        assert SamplePlan(x_points=9, t_points=9, random_count=128).size == 264 + 9 + 128

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 40), st.sampled_from(range(3, 40, 2)), st.integers(0, 64))
    def test_size_is_the_length_of_the_built_layout(self, x_points, t_points, random_count):
        plan = SamplePlan(x_points=x_points, t_points=t_points, random_count=random_count)
        samples = plan.samples(UNIT)
        xs, ys, ts = triples(samples)
        assert plan.size == samples.size == len(xs) == len(samples.flat()[0])


class TestPhiloxKeys:
    # draws of the list-keyed generator: keys below 2**63 must not move
    @pytest.mark.parametrize("seed, stream, draw", [
        (0, convexity._STREAM_TRIPLES,
         [0.5299468258358578, 0.7878520364751515, 0.4861592535405419]),
        (7, convexity._STREAM_PAIRS,
         [0.3228397684463118, 0.27264953452376506, 0.07591531712916189]),
        (2**31 - 1, convexity._STREAM_TRIPLES,
         [0.2804600728818488, 0.2926401308918012, 0.5751614612928856]),
        (2**63 - 1, 5, [0.794043616569435, 0.7111244733121007, 0.794765353247481]),
    ])
    def test_keys_below_two_to_the_63_keep_their_draws(self, seed, stream, draw):
        assert convexity._philox(seed, stream).random(3).tolist() == draw

    @pytest.mark.parametrize("seed, other", [
        (2**63, 2**63 + 1), (-1, 0), (-3000, -3001), (2**64 - 1, 2**64 - 2),
    ])
    def test_every_key_word_is_exact(self, seed, other):
        draws = [convexity._philox(s, convexity._STREAM_TRIPLES).random(4) for s in (seed, other)]
        assert not np.array_equal(*draws)

    def test_seed_counts_modulo_two_to_the_64(self):
        draws = [convexity._philox(s, 3).random(4) for s in (-1, 2**64 - 1)]
        assert np.array_equal(*draws)

    @staticmethod
    def _assert_keyed_stream(seed, stream):
        key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
        keyed = np.random.Generator(np.random.Philox(key=key))
        ours = convexity._philox(seed, stream)
        assert str(ours.bit_generator.state) == str(keyed.bit_generator.state)
        assert np.array_equal(ours.random(6), keyed.random(6))
        assert np.array_equal(ours.integers(0, 2**63, 4), keyed.integers(0, 2**63, 4))

    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1, -1])
    def test_stream_is_the_key_argument_stream(self, seed):
        self._assert_keyed_stream(seed, convexity._STREAM_TRIPLES)

    @given(st.integers(-2**64, 2**65), st.integers(0, 2**64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_stream_is_the_key_argument_stream_for_any_key(self, seed, stream):
        self._assert_keyed_stream(seed, stream)


class TestToleranceContract:
    # a NaN tolerance would let every margin hold
    @pytest.mark.parametrize("tolerance", [math.nan, -1e-9, math.inf])
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
        assert rep.samples_tested == SMALL.size
        # every triple tests the midpoint: the differences, the span row and
        # the random triples, on the range and through the jump fallback alike
        seen = []
        judge = convexity._judge
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(convexity, "_judge",
                       lambda margins, samples, tol: seen.append(samples) or judge(margins, samples, tol))
            check_log_phi_midconvex(parse("x"), PhiMap.identity(Interval(1, 2)), SMALL)
            check_log_phi_midconvex(parse("sqrt(abs(x - 0.5)) + 0.1"),
                                    PhiMap(parse(_TWO_PIECES), UNIT), SMALL)
        assert len(seen) == 3  # the range, then the fallback over the domain
        for samples in seen:
            assert (triples(samples)[2] == 0.5).all() and (samples.flat()[2] == 0.5).all()
        assert check_log_phi_midconvex(parse("x"), PhiMap.identity(Interval(1, 2)),
                                       SMALL).witness.t == 0.5

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

    @pytest.mark.parametrize("check", [check_phi_chord_equivalence,
                                       check_log_phi_chord_equivalence])
    def test_first_violated_pair_ends_the_segment_side(self, check, monkeypatch):
        # sqrt is concave: the first pair's chord map is violated already
        calls = []
        run_check = convexity._run_check
        monkeypatch.setattr(convexity, "_run_check",
                            lambda *args, **kw: calls.append(args[1]) or run_check(*args, **kw))
        rep = check(parse("sqrt(x + 1)"), PhiMap.identity(UNIT), 8, SMALL, seed=3)
        assert rep.segment_verdict == rep.direct_verdict == VERDICT_VIOLATED
        assert rep.pairs_tested == 8
        assert len(calls) == 1 and isinstance(calls[0], convexity._Segment)

    def test_positivity_after_the_first_violated_pair_goes_unseen(self):
        # f is 0 at one point of the second pair's positivity grid only, off
        # the domain's grid and the direct side's points: the first pair's
        # chord map is violated, so the second pair is never checked
        plan = SamplePlan(x_points=5, t_points=5, random_count=12, seed=4)
        phi = PhiMap.identity(UNIT)
        pair_x, pair_y, _, _, _ = _ref_direct_triples(phi, 3, plan, seed=6)
        second = _RefSegment(parse("x"), pair_x[1], pair_y[1])
        c = float(second.eval_array(np.linspace(0.0, 1.0, convexity.POSITIVITY_GRID + 1))[100])
        f = parse(f"abs(x - {c!r})")
        assert check_positive(f, UNIT).ok
        assert not check_positive(convexity._Segment(f, pair_x[1], pair_y[1]), UNIT).ok
        rep = check_log_phi_chord_equivalence(f, phi, 3, plan, seed=6)
        assert rep.segment_verdict == VERDICT_VIOLATED
        assert rep.disagreeing_pair == (float(pair_x[0]), float(pair_y[0]))
        assert rep == _ref_chord_equivalence(f, phi, 3, plan, 6, log_space=True)

    def test_pair_count_is_bounded_before_any_draw(self):
        import tracemalloc

        plan = SamplePlan()
        pair_count = MAX_SAMPLES // plan.t_points + 1
        tracemalloc.start()
        try:
            for check in (check_phi_chord_equivalence, check_log_phi_chord_equivalence):
                with pytest.raises(ValueError, match=f"more than {MAX_SAMPLES}"):
                    check(parse("exp(x)"), PhiMap.identity(UNIT), pair_count, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the pair draw alone would take 2 * 8 bytes per pair, about 4 MB
        assert peak < 2**20


# ----------------------------- flat reference engine -------------------------
# The margin engine as it would run on flat arrays: f is evaluated at every
# x, every y and every mix of the flat triples of a sample set (`triples`
# above).  The factored engine must reproduce its margins bit for bit, and
# its reports and errors exactly.  A difference's mix is the grid point at
# its centre rather than (x + y)/2 (see _ref_grid_mix); every other mix is
# t*x + (1-t)*y, except that a degenerate chord's mix is its end.  A φ
# class is the plain class on [min φ, max φ] over PhiMap's construction grid
# (_ref_range), its witness mapped into the domain.

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


def _ref_fine(a, b, n):
    """The fine grid of n steps over [a, b], point by point: a + (b - a)*(m/n),
    the last point b."""
    return np.array([a + (b - a) * (m / n) for m in range(n)] + [b])


def _ref_t_axis(t_points):
    q = t_points - 1
    return np.array([k / q for k in range(t_points)])


def _ref_mixes(xs, ys, ts, grid_mix=None):
    mix = np.where(xs == ys, xs, ts * xs + (1.0 - ts) * ys)
    if grid_mix is not None:
        mix[:len(grid_mix)] = grid_mix
    return mix


def _ref_values(f, xs, ys, ts, log_space, grid_mix=None):
    mix = _ref_mixes(xs, ys, ts, grid_mix)
    fx = f.eval_array(xs)
    fy = f.eval_array(ys)
    fm = f.eval_array(mix)
    if log_space:
        _ref_require_positive_values(fx, xs)
        _ref_require_positive_values(fy, ys)
        _ref_require_positive_values(fm, mix)
    return fx, fy, fm


def _ref_margins(f, xs, ys, ts, log_space, grid_mix=None):
    fx, fy, fm = _ref_values(f, xs, ys, ts, log_space, grid_mix)
    if log_space:
        return ts * np.log(fx) + (1.0 - ts) * np.log(fy) - np.log(fm)
    return ts * fx + (1.0 - ts) * fy - fm


def _ref_range(phi):
    """[min φ, max φ] over PhiMap's construction grid, evaluated afresh."""
    vals = phi.phi.eval_array(np.linspace(phi.domain.a, phi.domain.b, convexity.PHI_GRID))
    return float(vals.min()), float(vals.max())


def _ref_samples(plan, a, b):
    """The plan's samples over [a, b], built by hand; a == b is allowed."""
    u = convexity._philox(plan.seed, convexity._STREAM_TRIPLES).random((plan.random_count, 3))
    return SampleSet(_ref_fine(a, b, (plan.x_points - 1) * (plan.t_points - 1)),
                     _ref_t_axis(plan.t_points),
                     a + (b - a) * u[:, 0], a + (b - a) * u[:, 1], u[:, 2])


def _ref_run_check(f, ab, plan, log_space, half_t=False,
                   tolerance=convexity.DEFAULT_TOLERANCE):
    """(verdict, min_margin, witness, samples_tested, failure_detail) on [a, b]."""
    samples = _ref_samples(plan, *ab)
    xs, ys, ts = triples(samples)
    if half_t:
        ts = np.full_like(ts, 0.5)
    n = len(xs)
    try:
        margins = _ref_margins(f, xs, ys, ts, log_space, _ref_grid_mix(samples))
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
    """A φ class's witness stays on the range: _in_range maps the certifier's."""
    _, takes_phi, log_space, half_t = _CERTIFIERS[name]
    if log_space:
        _ref_require_positivity(f, phi.domain)
    ab = _ref_range(phi) if takes_phi else (phi.domain.a, phi.domain.b)
    return _ref_run_check(f, ab, plan, log_space, half_t)


def _in_range(phi, w):
    """The witness ``w`` of the domain, whose ends must lie in the domain, as
    the triple of the range it stands for: its ends mapped by φ."""
    if w is None:
        return None
    dom = phi.domain
    assert dom.a <= w.x <= dom.b and dom.a <= w.y <= dom.b
    return SampleTriple(phi.phi.eval(w.x), phi.phi.eval(w.y), w.t)


def _assert_same_triple(got, want, phi):
    """Equal t, and ends within two ulps of the domain's scale."""
    slack = 2 * np.spacing(max(abs(phi.domain.a), abs(phi.domain.b)))
    if got is None or want is None:
        assert got is want is None
        return
    assert got.t == want.t
    assert abs(got.x - want.x) <= slack and abs(got.y - want.y) <= slack, (got, want)


def _certify(name, f, phi, plan):
    fn, takes_phi, _, _ = _CERTIFIERS[name]
    rep = fn(f, phi if takes_phi else phi.domain, plan)
    return rep.verdict, rep.min_margin, rep.witness, rep.samples_tested, rep.failure_detail


def _ref_implication_chain(f, phi, plan, tolerance=convexity.DEFAULT_TOLERANCE):
    """Link witnesses stay on the range, as in _ref_certify."""
    _ref_require_positivity(f, phi.domain)
    samples = _ref_samples(plan, *_ref_range(phi))
    xs, ys, ts = triples(samples)
    fx, fy, fm = _ref_values(f, xs, ys, ts, True, _ref_grid_mix(samples))
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
    gt = _ref_t_axis(plan.t_points)
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
    px = phi.eval_array(pair_x)
    py = phi.eval_array(pair_y)
    direct_violated = _ref_margins(f, np.repeat(px, plan.t_points), np.repeat(py, plan.t_points),
                                   ts, log_space) < -tolerance
    direct_verdict = VERDICT_VIOLATED if direct_violated.any() else VERDICT_HOLDS
    # the segment side stops at its first violated pair: a later pair's
    # positivity failure is not raised
    segment_verdict, first_bad = VERDICT_HOLDS, None
    for i in range(pair_count):
        seg = _RefSegment(f, px[i], py[i])
        if log_space:
            _ref_require_positivity(seg, UNIT)
        if _ref_run_check(seg, (0.0, 1.0), plan, log_space)[0] == VERDICT_VIOLATED:
            segment_verdict = VERDICT_VIOLATED
            first_bad = (float(pair_x[i]), float(pair_y[i]))
            break
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


def _assert_margins_match(f, samples, log_space):
    xs, ys, ts = triples(samples)
    want = _outcome(lambda: _ref_margins(f, xs, ys, ts, log_space, _ref_grid_mix(samples)))
    got = _outcome(lambda: convexity._margins(f, samples, log_space))
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        # bytes, not ==, so that -0.0 and 0.0 count as different
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    else:
        assert got == want


def _assert_all_match(f, phi, plan, pair_count=3, pair_seed=5):
    for samples in (plan.samples(phi.domain), convexity._samples(plan, *phi.range)):
        for log_space in (False, True):
            _assert_margins_match(f, samples, log_space)
    for name, (_, takes_phi, _, _) in _CERTIFIERS.items():
        got = _outcome(lambda: _certify(name, f, phi, plan))
        want = _outcome(lambda: _ref_certify(name, f, phi, plan))
        if takes_phi and isinstance(got, tuple) and len(got) == 5:
            _assert_same_triple(_in_range(phi, got[2]), want[2], phi)
            got, want = got[:2] + got[3:], want[:2] + want[3:]
        assert got == want, name

    def implication():
        rep = check_implication_chain(f, phi, plan)
        return rep.links, rep.samples_tested

    got = _outcome(implication)
    want = _outcome(lambda: _ref_implication_chain(f, phi, plan))
    if isinstance(got, tuple) and len(got) == 2 and isinstance(got[0], tuple):
        for g, w in zip(got[0], want[0]):
            _assert_same_triple(_in_range(phi, g.witness), w.witness, phi)
        got = tuple(replace(link, witness=None) for link in got[0]), got[1]
        want = tuple(replace(link, witness=None) for link in want[0]), want[1]
    assert got == want
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
    # the default plan (3 595 differences, 4 096 random triples) and the hunt
    # plan: the hypothesis test below draws plans of at most 9 x 9 and 64
    @pytest.mark.parametrize("plan", [SamplePlan(), SamplePlan(x_points=9, t_points=9,
                                                              random_count=128)],
                             ids=["default", "hunt"])
    @pytest.mark.parametrize("text, map_kind, domain", [
        ("exp(x^2)", "identity", (0.0, 1.0)),
        ("x", "reversed", (0.5, 2.0)),
        ("x^3 - x", "contracting", (-1.0, 0.25)),
        ("abs(x - 0.2) + 0.1", "contracting", (0.1, 0.35)),
    ])
    def test_matches_flat_reference_at_full_plan_size(self, plan, text, map_kind, domain):
        _assert_all_match(parse(text), _phi(map_kind, *domain), plan)

    def test_certifying_f_x_leaves_the_set_as_it_was(self):
        # f = x: its values are the set's points bit for bit, and the log
        # space takes their log in place in a copy, never in the points;
        # ln x is concave, so both find a violation
        interval = Interval(0.5, 2.0)
        samples = SamplePlan().samples(interval)
        before = [arr.tobytes() for arr in samples]
        f = parse("x")
        assert check_log_convex(f, interval).verdict == VERDICT_VIOLATED
        assert check_implication_chain(f, PhiMap.identity(interval)).verdict == VERDICT_VIOLATED
        assert SamplePlan().samples(interval) is samples
        assert [arr.tobytes() for arr in samples] == before

    def test_triples_flatten_in_difference_span_then_random_order(self):
        # the differences of the 4-step grid, k = 1 then k = 2, then the span
        # row, then the random triples
        plan = SamplePlan(x_points=3, t_points=3, random_count=4, seed=2)
        samples = plan.samples(UNIT)
        xs, ys, ts = triples(samples)
        assert len(xs) == samples.size == 3 + 1 + 3 + 4
        assert list(zip(xs[:7], ys[:7], ts[:7])) == [
            (0.0, 0.5, 0.5), (0.25, 0.75, 0.5), (0.5, 1.0, 0.5), (0.0, 1.0, 0.5),
            (1.0, 0.0, 0.0), (1.0, 0.0, 0.5), (1.0, 0.0, 1.0)]
        assert (xs[7:] == samples.rx).all() and (ys[7:] == samples.ry).all()
        assert (ts[7:] == samples.rt).all()
        flat = SampleSet(np.empty(0), np.empty(0), xs, ys, ts)
        for i in range(samples.size):
            assert samples.point(i) == flat.point(i) == SampleTriple(xs[i], ys[i], ts[i])
        assert samples.point(-1) == SampleTriple(xs[-1], ys[-1], ts[-1])
        with pytest.raises(IndexError):
            samples.point(samples.size)
        for got, want in zip(samples.flat(), (xs, ys, ts)):
            assert got.tobytes() == want.tobytes()

    def test_a_flat_set_leaves_the_kept_points(self, monkeypatch):
        # the points are built with the plan's set on [0, 1]; a flat set,
        # such as a chord check's direct side, builds its own, and every
        # segment of a chord check reads the set's, none rebuilds them
        plan = SamplePlan(x_points=3, t_points=3, random_count=4)
        samples = plan.samples(UNIT)
        kept = samples.points
        assert convexity._points(samples) is kept
        assert kept[:len(samples.fine)].base is samples.fine.base is kept
        flat = SampleSet(np.empty(0), np.empty(0), *samples.flat())
        assert convexity._points(flat) is not kept
        seen = []
        segment_eval = convexity._Segment.eval_array
        monkeypatch.setattr(convexity._Segment, "eval_array",
                            lambda seg, ts: seen.append(ts) or segment_eval(seg, ts))
        for check in (check_phi_chord_equivalence, check_log_phi_chord_equivalence):
            seen.clear()
            assert check(parse("exp(x)"), PhiMap.identity(UNIT), 4, plan).agree
            # the log check also tests each segment's positivity on its grid
            on_set = [ts for ts in seen if len(ts) != convexity.POSITIVITY_GRID + 1]
            assert len(on_set) == 4 and all(ts is kept for ts in on_set)
        assert plan.samples(UNIT) is samples

    def test_first_index_is_first_flat_occurrence_x_before_y(self):
        # f fails at one point of the set: the failure is reported at the first
        # triple whose x is that point, else whose y is, else whose mix is
        for plan in (SamplePlan(x_points=4, t_points=5, random_count=6, seed=3),
                     SamplePlan(x_points=2, t_points=3, random_count=3, seed=1)):
            samples = plan.samples(UNIT)
            xs, ys, ts = triples(samples)
            mixes = _ref_mixes(xs, ys, ts, _ref_grid_mix(samples))
            for c in np.concatenate([samples.fine, samples.rx, samples.ry,
                                     mixes[-len(samples.rx):]]):
                want = next(np.flatnonzero(at == c)[0] for at in (xs, ys, mixes)
                            if (at == c).any())
                with pytest.raises(EvalError) as err:
                    convexity._values(parse(f"1/(x - {float(c)!r})"), samples, False)
                assert err.value.index == want

    @settings(max_examples=120, deadline=None)
    @given(_plans, _domains, _map_kinds, st.data())
    def test_matches_flat_reference(self, plan, domain, map_kind, data):
        phi = _phi(map_kind, *domain)
        samples = plan.samples(phi.domain)
        ends = np.concatenate([samples.fine, samples.rx, samples.ry])
        template = data.draw(st.sampled_from(_smooth + _failing))
        if "{c}" in template:
            # c at a chord end, before or after phi, at a random mix, or
            # anywhere in the domain
            mixes = samples.mixes()
            c = data.draw(st.one_of(
                st.sampled_from(list(ends) + list(phi.eval_array(ends))),
                st.sampled_from(list(mixes[len(mixes) - len(samples.rx):]) or [domain[0]]),
                st.floats(*domain),
            ))
            template = template.format(c=repr(float(c)))
        _assert_all_match(parse(template), phi, plan,
                          pair_count=data.draw(st.integers(0, 4)),
                          pair_seed=data.draw(st.integers(0, 2**16)))


# positive on every domain of _domains, so that the log space applies
_positive_smooth = ["exp(x)", "exp(x^2)", "1/(1 + x^2)", "exp(-x^2)", "exp(30*x)",
                    "abs(x - 0.2) + 0.1"]


# ----------------------------- φ classes on the range of φ -------------------

def _catalog_phi(variant, a, b, p):
    """The benchmark catalog's continuous monotone self-maps of [a, b]:
    identity, nonlinear onto, reversed, reversed nonlinear, contracting."""
    w = repr(b - a)
    u = f"((x - {a!r})/{w})"
    return ["x", f"{a!r} + {w}*{u}^{p!r}", f"{a + b!r} - x", f"{b!r} - {w}*{u}^{p!r}",
            f"{a!r} + {w}*(0.25 + 0.5*{u}^{p!r})"][variant]


_phi_cases = st.builds(
    lambda variant, ab, p: PhiMap(parse(_catalog_phi(variant, *ab, p)), Interval(*ab)),
    st.integers(0, 4), st.sampled_from([(0.0, 1.0), (0.5, 2.0), (-1.0, 0.25), (1.0, 3.0)]),
    st.floats(0.5, 3.0).map(lambda p: round(p, 4)),
)
_reduction_plans = st.builds(
    SamplePlan,
    x_points=st.sampled_from([3, 5, 6, 9, 17]),
    t_points=st.sampled_from([3, 5, 7, 9]),
    random_count=st.integers(0, 64),
    seed=st.integers(0, 2**32),
)
# positive on every domain of _phi_cases; convex, log-convex or neither
_reduction_fs = ["exp(x)", "exp(x^2)", "x^2 + 1", "1/(2 + x)", "exp(-x^2)", "10 + x*(1 - x)",
                 "exp(3*x) + exp(-2*x)", "x^4 + 0.5", "sqrt(x + 2)", "5 + x^3"]


def _mp_text(text):
    """``text`` evaluated in mpmath at its working precision."""
    import mpmath as mp

    ns = {"__builtins__": {}, "exp": mp.exp, "ln": mp.log, "sqrt": mp.sqrt, "abs": abs}
    fn = eval(f"lambda x: {text.replace('^', '**')}", ns)  # noqa: S307 - restricted namespace
    return lambda x: fn(mp.mpf(x))


def _mp_margin(f_text, phi_text, w, log_space):
    """The class margin at φ(x), φ(y), t, with φ and f in mpmath."""
    import mpmath as mp

    f, phi = _mp_text(f_text), _mp_text(phi_text)
    px, py, t = phi(w.x), phi(w.y), mp.mpf(w.t)
    fx, fy, fm = f(px), f(py), f(t * px + (1 - t) * py)
    if log_space:
        return t * mp.log(fx) + (1 - t) * mp.log(fy) - mp.log(fm)
    return t * fx + (1 - t) * fy - fm


def _assert_stands_for(phi, w, plain):
    """``w`` is a witness of the domain whose ends φ maps to ``plain``'s, to
    within one float of x either side."""
    assert w.t == plain.t
    dom = phi.domain
    for x, u in ((w.x, plain.x), (w.y, plain.y)):
        assert dom.a <= x <= dom.b
        near = np.clip([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)], dom.a, dom.b)
        vals = phi.phi.eval_array(near)
        assert vals.min() <= u <= vals.max(), (x, u, vals)


class TestPhiReduction:
    """A φ class on D is the plain class on the range of φ: f is (log-)φ-convex
    on D exactly when it is (log-)convex on φ(D)."""

    @settings(max_examples=150, deadline=None)
    @given(_phi_cases, _reduction_plans, st.sampled_from(_reduction_fs))
    def test_phi_class_is_the_plain_class_on_the_range(self, phi, plan, text):
        f = parse(text)
        on_range = Interval(*phi.range)
        plain_phi = PhiMap.identity(on_range)
        for deformed, plain in (
            (check_phi_convex(f, phi, plan), check_convex(f, on_range, plan)),
            (check_log_phi_convex(f, phi, plan), check_log_convex(f, on_range, plan)),
            (check_log_phi_midconvex(f, phi, plan), check_log_phi_midconvex(f, plain_phi, plan)),
        ):
            assert deformed.verdict == plain.verdict
            assert deformed.min_margin == plain.min_margin
            assert deformed.samples_tested == plain.samples_tested
            assert (deformed.witness is None) == (plain.witness is None)
            if plain.witness is not None:
                _assert_stands_for(phi, deformed.witness, plain.witness)
        chain, plain_chain = (check_implication_chain(f, phi, plan),
                              check_implication_chain(f, plain_phi, plan))
        for link, plain_link in zip(chain.links, plain_chain.links):
            assert (link.verdict, link.min_margin) == (plain_link.verdict, plain_link.min_margin)
            if plain_link.witness is not None:
                _assert_stands_for(phi, link.witness, plain_link.witness)

    @settings(max_examples=60, deadline=None)
    @given(_phi_cases, _reduction_plans, st.sampled_from(
        ["sqrt(x + 2)", "10 + x*(1 - x)", "1/(2 + x)", "x^4 + 0.5", "5 + x^3"]))
    def test_violated_witness_lies_in_the_domain_and_is_violated_in_mpmath(
            self, phi, plan, text):
        f = parse(text)
        for check, log_space in ((check_phi_convex, False), (check_log_phi_convex, True),
                                 (check_log_phi_midconvex, True)):
            rep = check(f, phi, plan)
            if rep.verdict == VERDICT_VIOLATED:
                w = rep.witness
                assert phi.domain.a <= w.x <= phi.domain.b
                assert phi.domain.a <= w.y <= phi.domain.b
                assert _mp_margin(text, phi.phi.source_text, w, log_space) < -rep.tolerance
        chain = check_implication_chain(f, phi, plan)
        link = chain.links[0]
        if link.verdict == VERDICT_VIOLATED:
            assert _mp_margin(text, phi.phi.source_text, link.witness, True) < -chain.tolerance

    @pytest.mark.parametrize("phi_text, domain", [
        ("0.75", Interval(0.5, 1.0)),        # constant: a range of width 0
        ("1e-307*x", Interval(0.0, 1.0)),    # narrower than a normal fine-grid step
    ])
    def test_degenerate_range_holds(self, phi_text, domain):
        phi = PhiMap(parse(phi_text), domain)
        assert phi.range[1] - phi.range[0] < 1e-300
        f = parse("exp(x) + x^2")
        for check in (check_phi_convex, check_log_phi_convex, check_log_phi_midconvex):
            rep = check(f, phi)
            assert rep.verdict == VERDICT_HOLDS and rep.failure_kind is None
            assert rep.samples_tested == 3595 + 17 + 4096
        assert check_implication_chain(f, phi).verdict == VERDICT_HOLDS

    def test_range_is_taken_from_the_construction_grid(self):
        phi = PhiMap(parse("0.5 + 1.5*((x - 0.5)/1.5)^2"), Interval(0.5, 2.0))
        vals = phi.phi.eval_array(np.linspace(0.5, 2.0, convexity.PHI_GRID))
        assert phi.range == (float(vals.min()), float(vals.max())) == (0.5, 2.0)
        reversed_ = PhiMap(parse("2.5 - x"), Interval(0.5, 2.0))
        assert reversed_.range == (0.5, 2.0)

    @pytest.mark.parametrize("domain", [Interval(0.5, 2.0), Interval(-1.0, 1e-3), UNIT])
    def test_identity_preimage_is_the_point(self, domain):
        phi = PhiMap.identity(domain)
        us = np.concatenate([[domain.a, domain.b],
                             SamplePlan(random_count=64).samples(domain).rx])
        xs, miss = phi.preimage(us)
        assert xs.tobytes() == us.tobytes() and (miss == 0).all()

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.tuples(st.floats(-1e3, 1e3), st.floats(-12.0, 2.0))
        .map(lambda aw: Interval(aw[0], aw[0] + 10.0**aw[1])),
        st.sampled_from([Interval(-1.0, -0.0), Interval(-0.0, 1.0), Interval(-0.5, 0.5)]),
    ), st.data())
    def test_identity_preimage_is_the_general_path_bit_for_bit(self, domain, data):
        # the identity answers without refining; "1*x" is no bare variable,
        # so it takes the rounds.  u is drawn as a witness end is, a point of
        # the range at its own scale, or its ends, a zero, or a point beyond
        # them (test_identity_preimage_below_the_scale_of_the_rounds has u
        # far below that scale)
        lo, hi = PhiMap.identity(domain).range
        us = data.draw(st.lists(st.one_of(
            st.floats(0.0, 1.0).map(lambda r: lo + (hi - lo) * r),
            st.sampled_from([lo, hi, 0.0, -0.0]),
            st.floats(0.0, 1.0).flatmap(lambda d: st.sampled_from([lo - d, hi + d]))),
            min_size=1))
        got = PhiMap.identity(domain).preimage(us)
        want = PhiMap(parse("1*x"), domain).preimage(us)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    def test_identity_preimage_below_the_scale_of_the_rounds(self):
        # a negative u far below the domain's scale, in a bracket that ends at
        # 0: the rounds stop 2**24 subnormal ulps below 0, within the slack,
        # and the miss is the true one at that end; the identity gives u itself
        domain = Interval(-0.5, 0.5)
        us = [-1e-100, -2.2e-308]
        xs, miss = PhiMap.identity(domain).preimage(us)
        assert xs.tolist() == us and (miss == 0).all()
        phi = PhiMap(parse("1*x"), domain)
        xs, miss = phi.preimage(us)
        assert xs.tolist() == [-2.0**24 * 2.0**-1074] * 2
        assert (0 < miss).all() and (miss < 1e-99).all()
        assert miss.tobytes() == np.abs(phi.phi.eval_array(xs) - us).tobytes()

    @pytest.mark.parametrize("phi_text", ["2.5 - x", "0.5 + 0.5*(x - 0.5)",
                                          "0.5 + 1.5*((x - 0.5)/1.5)^0.6"])
    def test_preimage_is_within_one_float(self, phi_text):
        phi = PhiMap(parse(phi_text), Interval(0.5, 2.0))
        lo, hi = phi.range
        us = np.concatenate([[lo, hi], lo + (hi - lo) * np.linspace(0.01, 0.99, 37)])
        for x, u in zip(phi.preimage(us)[0], us):
            _assert_stands_for(phi, SampleTriple(x, x, 0.5), SampleTriple(u, u, 0.5))


# φ that jump at c = 0.50001, which no grid of φ or of the sample plan meets:
# onto the two points {0.25, 0.75}, and onto [0, 0.25] and [0.75, 1]
_JUMP = "0.25*abs(x - 0.50001)/(x - 0.50001)"
_TWO_POINTS = f"0.5 + {_JUMP}"
_TWO_PIECES = f"0.5*x + 0.25 + {_JUMP}"


def _ref_through_phi(f, phi, plan, log_space, half_t=False, tolerance=convexity.DEFAULT_TOLERANCE):
    """(verdict, min margin, witness) of the class on the domain's samples,
    with f at the images of their ends under φ, as the definition reads."""
    xs, ys, ts = triples(_ref_samples(plan, phi.domain.a, phi.domain.b))
    if half_t:
        ts = np.full_like(ts, 0.5)
    margins = _ref_margins(f, phi.phi.eval_array(xs), phi.phi.eval_array(ys), ts, log_space)
    min_margin = float(margins.min())
    if min_margin < -tolerance:
        i = int(np.argmin(margins))
        return VERDICT_VIOLATED, min_margin, SampleTriple(float(xs[i]), float(ys[i]), float(ts[i]))
    return VERDICT_HOLDS, min_margin, None


class TestJumpingPhi:
    """For a φ that jumps between the points of its construction grid, the
    range [min φ, max φ] is wider than φ(D).  A range witness that φ jumps
    over stands for no triple of D, and the class is then certified on the
    domain's samples through φ."""

    PLAN = SamplePlan(x_points=9, t_points=5, random_count=256, seed=7)

    def test_preimage_measures_the_jump(self):
        phi = PhiMap(parse(_TWO_POINTS), UNIT)
        assert phi.range == (0.25, 0.75)
        xs, miss = phi.preimage([0.25, 0.5, 0.3, 0.75])
        assert miss.tolist() == [0.0, 0.25, 0.3 - 0.25, 0.0]
        assert abs(xs[1] - 0.50001) < 1e-12  # at the jump
        assert phi.slack == 1e-9

    def test_no_violation_is_reported_between_the_images(self):
        # f lies below its chord from 0.25 to 0.75, and that is all φ-convexity
        # asks of it here; on [0.25, 0.75] it is not convex (a bump at 0.5)
        phi = PhiMap(parse(_TWO_POINTS), UNIT)
        f = parse("((x - 0.5)^2 - 0.01)^2 + 1e-6")
        assert check_convex(f, Interval(*phi.range), self.PLAN).verdict == VERDICT_VIOLATED
        for name, log_space, half_t in (("phi_convex", False, False),
                                         ("log_phi_convex", True, False),
                                         ("log_phi_midconvex", True, True)):
            rep = _CERTIFIERS[name][0](f, phi, self.PLAN)
            want = _ref_through_phi(f, phi, self.PLAN, log_space, half_t)
            assert (rep.verdict, rep.min_margin, rep.witness) == want
            assert rep.verdict == VERDICT_HOLDS
            assert rep.samples_tested == self.PLAN.samples(UNIT).size
        chain = check_implication_chain(f, phi, self.PLAN)
        assert chain.verdict == VERDICT_HOLDS
        assert chain.links[0].min_margin == _ref_through_phi(f, phi, self.PLAN, True)[1]

    @pytest.mark.parametrize("text", ["sqrt(abs(x - 0.5)) + 0.1", "exp(sqrt(abs(x - 0.5)))"])
    def test_fallback_witness_is_a_domain_sample_violated_in_mpmath(self, text):
        # the worst sample of the range has an end in the gap (0.25, 0.75)
        phi = PhiMap(parse(_TWO_PIECES), UNIT)
        f = parse(text)
        for name, log_space, half_t in (("phi_convex", False, False),
                                         ("log_phi_convex", True, False),
                                         ("log_phi_midconvex", True, True)):
            rep = _CERTIFIERS[name][0](f, phi, self.PLAN)
            want = _ref_through_phi(f, phi, self.PLAN, log_space, half_t)
            assert (rep.verdict, rep.min_margin, rep.witness) == want
            assert rep.verdict == VERDICT_VIOLATED
            assert _mp_margin(text, _TWO_PIECES, rep.witness, log_space) < -rep.tolerance
        link = check_implication_chain(f, phi, self.PLAN).links[0]
        assert (link.verdict, link.min_margin, link.witness) == _ref_through_phi(
            f, phi, self.PLAN, True)

    def test_witness_that_phi_reaches_is_kept(self):
        # sqrt is concave: the worst chord joins the ends of the range, which
        # φ reaches, so the witness of the range is pulled back
        phi = PhiMap(parse(_TWO_POINTS), UNIT)
        rep = check_phi_convex(parse("sqrt(x)"), phi, self.PLAN)
        assert rep.verdict == VERDICT_VIOLATED
        assert rep.min_margin == check_convex(parse("sqrt(x)"), Interval(*phi.range),
                                              self.PLAN).min_margin
        assert _mp_margin("sqrt(x)", _TWO_POINTS, rep.witness, False) < -rep.tolerance


class TestDirectSegmentIdentity:
    """A pair's direct margins in the chord check are, bit for bit, its
    segment margins on the span row (x, y) = (1, 0), t on the plan's t axis.
    So a violated direct side always comes with a violated segment, and a
    disagreement is always named by a segment."""

    @settings(max_examples=150, deadline=None)
    @given(_plans, _domains, _map_kinds, st.integers(1, 4), st.integers(0, 2**16),
           st.booleans(), st.data())
    def test_direct_margins_are_segment_margins(self, plan, domain, map_kind, pair_count,
                                                pair_seed, log_space, data):
        f = parse(data.draw(st.sampled_from(_positive_smooth if log_space else _smooth)))
        phi = _phi(map_kind, *domain)
        pair_x, pair_y, _, _, ts = _ref_direct_triples(phi, pair_count, plan, pair_seed)
        px, py = phi.eval_array(pair_x), phi.eval_array(pair_y)
        none = np.empty(0)
        nt = plan.t_points
        direct = convexity._margins(
            f, SampleSet(none, none, np.repeat(px, nt), np.repeat(py, nt), ts), log_space)
        unit = plan.samples(UNIT)
        start = plan.size - nt - plan.random_count  # after the differences
        assert unit.point(start) == SampleTriple(1.0, 0.0, 0.0)
        for i, (u, v) in enumerate(zip(px, py)):
            segment = convexity._margins(convexity._Segment(f, u, v), unit, log_space)
            assert segment[start:start + nt].tobytes() == direct[i * nt:(i + 1) * nt].tobytes()


# grid sizes of every kind: (x_points - 1)*(t_points - 1) a power of two or not
_grid_plans = st.builds(
    SamplePlan,
    x_points=st.integers(2, 33),
    t_points=st.sampled_from(range(3, 18, 2)),
    random_count=st.integers(0, 64),
    seed=st.integers(0, 2**32),
)
# ends of a sample set: intervals at many scales, one whose grid steps are
# subnormal, and ranges of width 0, as a constant φ gives
_intervals = st.one_of(
    st.tuples(st.floats(-1e6, 1e6), st.floats(1e-6, 1e6))
    .map(lambda aw: (aw[0], aw[0] + aw[1])).filter(lambda ab: ab[0] < ab[1]),
    st.just((0.0, 1e-310)),
    st.floats(-1e6, 1e6).map(lambda a: (a, a)),
)


def _power_of_two_grid(plan):
    n = (plan.x_points - 1) * (plan.t_points - 1)
    return n & (n - 1) == 0


def _mix_bound(plan, a, b):
    """How far a difference's mix, its grid centre, may lie from x/2 + y/2.
    Off a power of two the points m/n round, and so does the width: a sweep
    of 30 000 random plans up to 40 x 39 found at most 2 ulp of max(|a|, |b|)
    on a power of two and 2 ulp of max(|a|, |b|, b - a) off one; the bounds
    asserted are those of the lattice mixes the differences replaced."""
    if _power_of_two_grid(plan):
        return 2 * np.spacing(max(abs(a), abs(b)))
    return 3 * np.spacing(max(abs(a), abs(b), b - a))


class TestFineGrid:
    """The differences' ends and mixes are points of one fine grid, on which f
    runs once; see SampleSet."""

    @settings(max_examples=200, deadline=None)
    @given(_grid_plans, _intervals)
    def test_axis_is_every_qth_grid_point(self, plan, ab):
        a, b = ab
        samples = convexity._samples(plan, a, b)
        fine = samples.fine
        nx, nt = plan.x_points, plan.t_points
        q = nt - 1
        assert len(fine) == (nx - 1) * q + 1 and fine[-1] == b
        # on [0, 1] the t axis is every (x_points - 1)-th grid point
        unit_fine = plan.samples(UNIT).fine
        assert unit_fine[::nx - 1].tobytes() == samples.gt.tobytes()
        assert samples.gt[q // 2] == 0.5
        # the every-q-th points of a power-of-two grid with a normal step are linspace's
        if _power_of_two_grid(plan) and (b - a) / (len(fine) - 1) >= np.finfo(float).tiny:
            assert fine[::q].tobytes() == np.linspace(a, b, nx).tobytes()
            assert samples.gt.tobytes() == np.linspace(0.0, 1.0, nt).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(_grid_plans, _intervals)
    def test_index_hits_every_point_and_reads_the_mix(self, plan, ab):
        a, b = ab
        samples = convexity._samples(plan, a, b)
        fine = samples.fine
        lo, mid, hi = convexity._differences(len(fine))
        assert all(idx.dtype == np.intp for idx in (lo, mid, hi))
        assert set(np.concatenate([lo, mid, hi]).tolist()) == set(range(len(fine)))
        assert ((hi - mid) == (mid - lo)).all()
        xs, ys, ts = triples(samples)
        d = len(mid)
        assert (fine[lo] == xs[:d]).all() and (fine[hi] == ys[:d]).all()
        mixes = samples.mixes()
        assert mixes[:d].tobytes() == fine[mid].tobytes()
        assert (np.abs(mixes[:d] - (0.5 * xs[:d] + 0.5 * ys[:d])) <= _mix_bound(plan, a, b)).all()
        # the span row's mixes and the random ones are t*x + (1-t)*y
        assert mixes[d:].tobytes() == _ref_mixes(xs[d:], ys[d:], ts[d:]).tobytes()

    def test_index_is_cached_and_read_only(self):
        samples = SamplePlan().samples(UNIT)
        idx = convexity._differences(len(samples.fine))
        other = SamplePlan(random_count=5).samples(Interval(2.0, 3.0))
        assert convexity._differences(len(other.fine)) is idx
        for part in idx:
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[0] = 1

    @settings(max_examples=100, deadline=None)
    @given(_grid_plans, st.one_of(_domains, st.sampled_from([(0.0, 1e-310), (0.5, 0.5)])),
           st.sampled_from(_positive_smooth), st.booleans())
    def test_end_and_degenerate_margins(self, plan, domain, text, log_space):
        f = parse(text)
        samples = convexity._samples(plan, *domain)
        margins = convexity._margins(f, samples, log_space)
        d, nt = plan.size - plan.t_points - plan.random_count, plan.t_points
        # t = 0 and t = 1 on the span row: the mix is an end, and so is f there
        assert margins[d] == 0 and margins[d + nt - 1] == 0
        # x == y: the mix is x, so f(mix) is f(x), bit for bit
        xs, ys, _ = samples.flat()
        mixes = samples.mixes()
        same = xs == ys
        assert mixes[same].tobytes() == xs[same].tobytes()
        if domain[0] == domain[1]:
            assert same.all()

    @pytest.mark.parametrize("plan, interval", [
        (SamplePlan(x_points=4, t_points=7, random_count=16, seed=3), UNIT),
        (SamplePlan(x_points=6, t_points=5, random_count=16, seed=3), Interval(0.5, 2.0)),
        # a subnormal step
        (SamplePlan(x_points=5, t_points=5, random_count=16, seed=3), Interval(0.0, 1e-310)),
    ])
    def test_other_lattices_read_the_grid(self, plan, interval):
        # plans whose grid is no power of two, or whose step is subnormal
        samples = plan.samples(interval)
        assert samples.fine.tobytes() == _ref_fine(
            interval.a, interval.b, (plan.x_points - 1) * (plan.t_points - 1)).tobytes()
        xs, ys, ts = triples(samples)
        grid_mix = _ref_grid_mix(samples)
        for text in ("x^2 + 1", "exp(x)", "1/(1 + x^2)"):
            f = parse(text)
            for log_space in (False, True):
                got = convexity._margins(f, samples, log_space)
                want = _ref_margins(f, xs, ys, ts, log_space, grid_mix)
                assert got.tobytes() == want.tobytes()
                at_grid = convexity._values(f, samples, log_space)[:len(samples.fine)]
                at_mix = at_grid[convexity._differences(len(samples.fine))[1]]
                assert at_mix.tobytes() == f.eval_array(grid_mix).tobytes()

    @pytest.mark.parametrize("plan", [SamplePlan(), SamplePlan(x_points=6, t_points=5, seed=3)])
    def test_one_call_of_f_per_clean_set(self, plan):
        class Counted:
            def __init__(self, f):
                self.f, self.calls = f, 0

            def eval_array(self, xs):
                self.calls += 1
                return self.f.eval_array(xs)

        samples = plan.samples(Interval(0.5, 2.0))
        xs, ys, ts = triples(samples)
        grid_mix = _ref_grid_mix(samples)
        for log_space in (False, True):
            for _ in range(2):  # the second call reads the kept points
                f = Counted(parse("exp(x) + x^2"))
                got = convexity._margins(f, samples, log_space)
                assert f.calls == 1
                want = _ref_margins(f.f, xs, ys, ts, log_space, grid_mix)
                assert got.tobytes() == want.tobytes()

    def test_failure_at_a_grid_point_reported_at_its_first_triple(self):
        plan = SamplePlan(x_points=5, t_points=5, random_count=12, seed=4)
        samples = plan.samples(UNIT)
        c = float(samples.fine[1])  # first the x of the difference centred on 2/16
        rep = check_convex(parse(f"1/(x - {c!r})"), UNIT, plan)
        assert rep.failure_kind == "domain"
        assert rep.witness == SampleTriple(0.0625, 0.1875, 0.5)
        with pytest.raises(PositivityViolated, match=repr(c)):
            check_log_convex(parse(f"abs(x - {c!r})"), UNIT, plan)
        for text in (f"1/(x - {c!r})", f"abs(x - {c!r})"):
            _assert_all_match(parse(text), PhiMap.identity(UNIT), plan)

    def test_failure_at_a_point_that_is_only_a_mix(self):
        # on a grid of two steps the middle point is the mix of the one
        # difference and of the span row at t = 1/2, and no end
        plan = SamplePlan(x_points=2, t_points=3, random_count=5, seed=4)
        rep = check_convex(parse("1/(x - 0.5)"), UNIT, plan)
        assert rep.failure_kind == "domain"
        assert rep.witness == SampleTriple(0.0, 1.0, 0.5)
        for text in ("1/(x - 0.5)", "abs(x - 0.5)"):
            _assert_all_match(parse(text), PhiMap.identity(UNIT), plan)


class TestPinnedFineGrid:
    """check_log_phi_midconvex pins every t to 1/2; the differences are
    midpoint tests already, and they read the same grid and index."""

    @settings(max_examples=200, deadline=None)
    @given(_grid_plans, _intervals)
    def test_pinned_index_reads_the_midpoints(self, plan, ab):
        a, b = ab
        samples = convexity._samples(plan, a, b)
        pinned = convexity._pinned(samples)
        xs, ys, ts = pinned.flat()
        assert (ts == 0.5).all() and pinned.size == samples.size
        d = plan.size - plan.t_points - plan.random_count
        mixes = pinned.mixes()
        assert mixes[:d].tobytes() == samples.fine[convexity._differences(len(samples.fine))[1]].tobytes()
        assert (np.abs(mixes[:d] - (0.5 * xs[:d] + 0.5 * ys[:d])) <= _mix_bound(plan, a, b)).all()
        assert mixes[d:].tobytes() == _ref_mixes(xs[d:], ys[d:], ts[d:]).tobytes()
        # the degenerate chords read their end bit for bit
        same = xs == ys
        assert mixes[same].tobytes() == xs[same].tobytes()

    def test_pinned_index_is_cached_and_read_only(self):
        samples = SamplePlan().samples(UNIT)
        pinned = convexity._pinned(samples)
        assert pinned.fine is samples.fine
        assert convexity._differences(len(pinned.fine)) is convexity._differences(len(samples.fine))


class TestFactoredDomainFailures:
    PLAN = SamplePlan(x_points=5, t_points=5, random_count=12, seed=4)

    def test_first_failure_before_a_lattice_y_end(self):
        # sqrt(0.6 - x) fails from x = 0.625 on; in triple order the first
        # triple holding it is (0.5, 0.625, 1/2), but every f(x) is evaluated
        # before any f(y), so the reported triple is the first with x = 0.625
        f = parse("sqrt(0.6 - x)")
        rep = check_convex(f, UNIT, self.PLAN)
        assert rep.failure_kind == "domain"
        assert rep.witness == SampleTriple(0.625, 0.75, 0.5)
        assert "x=0.625" in rep.failure_detail
        _assert_all_match(f, PhiMap.identity(UNIT), self.PLAN)

    def test_lattice_x_failure(self):
        f = parse("ln(x - 0.5)")
        rep = check_convex(f, UNIT, self.PLAN)
        assert rep.witness == SampleTriple(0.0, 0.125, 0.5)
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

    def test_phi_failure_between_grid_points_goes_unseen(self):
        # phi is evaluated on its construction grid only: a point where it
        # cannot be evaluated, off that grid, goes unseen as it does there
        plan = SamplePlan()
        c = float(plan.samples(UNIT).rx[5])
        phi = PhiMap(parse(f"x + 0/(x - {c!r})"), UNIT)  # the 257-point grid misses c
        for check in (check_phi_convex, check_log_phi_convex, check_log_phi_midconvex):
            rep = check(parse("x^2 + 1"), phi, plan)
            assert rep.verdict == VERDICT_HOLDS and rep.failure_kind is None
        assert check_phi_convex(parse("sqrt(x)"), phi, plan).failure_kind == "inequality"

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

    def test_phi_escape_between_grid_points_goes_unseen(self):
        # phi escapes the domain only at a random x end and cannot be
        # evaluated only at a random y end, both off its construction grid:
        # the range is [0.5, 0.75], and neither point is met
        samples = self.PLAN.samples(UNIT)
        cx, cy = float(samples.rx[2]), float(samples.ry[9])
        phi = PhiMap(parse(f"0.5 + 0.25*x + 2*0^((x - {cx!r})^2) + 0/(x - {cy!r})"), UNIT)
        assert phi.range == (0.5, 0.75)
        assert check_phi_convex(parse("x^2"), phi, self.PLAN).verdict == VERDICT_HOLDS
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
        direct = SampleSet(np.empty(0), np.empty(0), phi.eval_array(xs), phi.eval_array(ys), ts)
        for text in ("exp(x^2)", "sqrt(x + 0.1)"):
            _assert_margins_match(parse(text), direct, True)


# ----------------------------- lattice reference -----------------------------
# The deterministic triples the certifiers sampled before the grid's
# differences replaced them: every (gx[i], gx[j], gt[k]) with gx the grid's
# every q-th point and t on the plan's t axis, k varying fastest, each mix
# the grid point q*j + k*(i - j); then the random triples.  Kept as the
# reference whose verdicts the differences must reach.

def _lattice_check(f, ab, plan, tolerance=convexity.DEFAULT_TOLERANCE):
    """(verdict, min margin) of plain convexity by the lattice on [a, b]."""
    samples = _ref_samples(plan, *ab)
    q, nx, nt = plan.t_points - 1, plan.x_points, plan.t_points
    x, y, t = np.meshgrid(samples.fine[::q], samples.fine[::q], samples.gt, indexing="ij")
    i, j, k = np.ogrid[:nx, :nx, :nt]
    lattice_mix = samples.fine[(q * j + k * (i - j)).reshape(-1)]
    margins = _ref_margins(f, np.concatenate([x.ravel(), samples.rx]),
                           np.concatenate([y.ravel(), samples.ry]),
                           np.concatenate([t.ravel(), samples.rt]), False, lattice_mix)
    min_margin = float(margins.min())
    return (VERDICT_VIOLATED if min_margin < -tolerance else VERDICT_HOLDS), min_margin


_DIP = "x^2 - 1e-4*exp(-1e6*(x - 0.30001)^2)"
_SWEEP_PLANS = [SamplePlan(seed=1), SamplePlan(x_points=9, t_points=9, random_count=128, seed=1),
                SamplePlan(x_points=10, t_points=7, random_count=512, seed=1)]
# mildly concave parabolas near the tolerance, and narrow bumps and dips
_SWEEP = ([f"-{eps!r}*(x - {c})^2" for eps in (1e-10, 1e-9, 1e-8, 1e-7) for c in (0.3, 0.77)]
          + [f"x^2 {sign} {h!r}*exp(-((x - 0.30001)/{w!r})^2)"
             for sign in "+-" for h in (1e-3, 1e-8) for w in (0.1, 0.01, 1e-3, 1e-4)])


class TestDifferences:
    """The grid's dyadic second differences, the span row and the random
    triples decide every verdict the lattice decided, and more."""

    @pytest.mark.parametrize("seed", range(5))
    def test_narrow_dip_violated_for_every_seed(self, seed):
        # the adjacent differences meet a dip narrower than the lattice's step,
        # which the lattice misses for seeds 1-3
        plan = SamplePlan(seed=seed)
        rep = check_convex(parse(_DIP), UNIT, plan)
        assert rep.verdict == VERDICT_VIOLATED and rep.failure_kind == "inequality"
        assert _mp_margin(_DIP, "x", rep.witness, False) < -rep.tolerance
        assert _lattice_check(parse(_DIP), (0.0, 1.0), plan)[0] == (
            VERDICT_HOLDS if seed in (1, 2, 3) else VERDICT_VIOLATED)

    def test_steep_exponential_holds(self):
        # the lattice's degenerate diagonal rounded t*f(x) + (1-t)*f(x) off
        # f(x) ~ 1.5e10 here and reported a violation
        f, phi = parse("exp(30*x)"), PhiMap.identity(UNIT)
        for rep in (check_convex(f, UNIT), check_log_convex(f, UNIT), check_phi_convex(f, phi),
                    check_log_phi_convex(f, phi), check_implication_chain(f, phi)):
            assert rep.verdict == VERDICT_HOLDS

    def test_former_rounding_band_cases_hold(self):
        # cases the benchmark's judge had set apart as rounding at f's magnitude
        phi = "0.0994017 + 0.3310823*(0.25 + 0.5*((x - 0.0994017)/0.3310823)^0.983476)"
        assert check_convex(parse("exp(13.2471*x + 16.3956)"), Interval(0.373633, 0.769413),
                            SamplePlan(seed=319054924)).verdict == VERDICT_HOLDS
        assert check_phi_convex(parse("exp(-21.2765*x + 25)"),
                                PhiMap(parse(phi), Interval(0.0994017, 0.430484)),
                                SamplePlan(seed=2059386101)).verdict == VERDICT_HOLDS
        assert check_implication_chain(parse("exp(-16.4981*x + 20.8687)"),
                                       PhiMap.identity(Interval(0.270155, 0.838815)),
                                       SamplePlan(seed=1246224447)).verdict == VERDICT_HOLDS
        phi = ("0.987931 + 0.8300390000000001*(0.25 + 0.5*((x - 0.987931)"
               "/0.8300390000000001)^1.49363)")
        rep = check_phi_chord_equivalence(parse("exp(7.32801*x + 25)"),
                                          PhiMap(parse(phi), Interval(0.987931, 1.81797)), 4,
                                          SamplePlan(seed=1496642866), seed=1496642866)
        assert rep.agree and rep.segment_verdict == VERDICT_HOLDS

    @pytest.mark.parametrize("plan", _SWEEP_PLANS, ids=["default", "hunt", "odd"])
    def test_no_verdict_only_the_lattice_reaches(self, plan):
        # a lattice violation is one of the differences too, and a violation
        # they alone find is one in mpmath
        for text in _SWEEP:
            f = parse(text)
            rep = check_convex(f, UNIT, plan)
            lattice, _ = _lattice_check(f, (0.0, 1.0), plan)
            if lattice == VERDICT_VIOLATED:
                assert rep.verdict == VERDICT_VIOLATED, text
            if rep.verdict == VERDICT_VIOLATED:
                assert _mp_margin(text, "x", rep.witness, False) < -rep.tolerance, text
