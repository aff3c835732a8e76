import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from hhv import search
from hhv.convexity import PhiMap, SamplePlan, VERDICT_VIOLATED, check_log_convex
from hhv.errors import GenerationExhausted, PhiRangeViolated
from hhv.expr import Interval, check_positive, parse
from hhv.search import (
    FamilySpec, SearchTarget, find_counterexample, generate, generate_phi, run_target,
)

UNIT = Interval(0.0, 1.0)
LIGHT = SamplePlan(x_points=9, t_points=5, random_count=64, seed=0)


class TestFamilySpec:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            FamilySpec("fourier")

    def test_positive_poly_needs_nonnegative_range(self):
        with pytest.raises(ValueError):
            FamilySpec("positive_poly", coeff_range=(-1.0, 1.0))

    @pytest.mark.parametrize("kwargs, message", [
        (dict(degree_bound=-1), "degree_bound must be >= 0, got -1"),
        (dict(coeff_range=(1.0, 1.0)), "coeff_range must be increasing"),
        (dict(coeff_range=(2.0, 1.0)), "coeff_range must be increasing"),
    ])
    def test_bad_parameters_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            FamilySpec("exp_of_poly", **kwargs)


class TestSearchTarget:
    @pytest.mark.parametrize("kind, name, message", [
        ("proof", "convex", "target kind must be 'check' or 'chain', got 'proof'"),
        ("check", "concave", "unknown check target 'concave'"),
        ("chain", "convex", "unknown chain target 'convex'"),
    ])
    def test_bad_target_rejected(self, kind, name, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SearchTarget(kind, name)


class TestGenerate:
    def test_exp_of_poly_structure(self):
        expr = generate(FamilySpec("exp_of_poly", 1, (-2, 2), seed=5), UNIT)
        assert expr.source_text.startswith("exp(")

    def test_positive_poly_positive_on_domain(self):
        for seed in range(10):
            expr = generate(FamilySpec("positive_poly", 3, (0.0, 2.0), seed=seed), UNIT)
            assert check_positive(expr, UNIT).ok

    def test_determinism(self):
        spec = FamilySpec("affine_exp", 2, (0.0, 2.0), seed=99)
        assert generate(spec, UNIT).source_text == generate(spec, UNIT).source_text

    def test_generated_text_reparses(self):
        for family in ("exp_of_poly", "positive_poly", "affine_exp"):
            expr = generate(FamilySpec(family, 2, (0.0, 2.0), seed=1), UNIT)
            assert parse(expr.source_text).root == expr.root

    def test_power_family_on_positive_domain(self):
        expr = generate(FamilySpec("power", seed=3), Interval(0.5, 2.0))
        assert expr.source_text.startswith("x^")
        assert check_positive(expr, Interval(0.5, 2.0)).ok

    def test_power_family_exhausts_on_signed_domain(self):
        # x^r with fractional r is never evaluable left of zero
        with pytest.raises(GenerationExhausted):
            generate(FamilySpec("power", seed=3), Interval(-1.0, 1.0))


class TestGeneratePhi:
    def test_self_map_and_monotone(self):
        for seed in range(8):
            phi = generate_phi(FamilySpec("positive_poly", 2, (0.1, 2.0), seed=seed), UNIT)
            assert phi.at_a == pytest.approx(0.0, abs=1e-9)
            assert phi.at_b == pytest.approx(1.0, abs=1e-9)
            import numpy as np
            grid = np.linspace(0, 1, 101)
            vals = phi.eval_array(grid)
            assert (np.diff(vals) >= -1e-12).all()

    def test_general_domain(self):
        dom = Interval(1.0, 3.0)
        phi = generate_phi(FamilySpec("positive_poly", 3, (0.1, 1.0), seed=2), dom)
        assert phi.at_a == pytest.approx(1.0, abs=1e-9)
        assert phi.at_b == pytest.approx(3.0, abs=1e-9)


def _ref_generate_phi(spec, domain):
    """generate_phi as it stood with two parses per attempt: the raw
    polynomial is parsed and evaluated at both ends of the domain."""
    a, w = domain.a, domain.width
    degree = max(1, spec.degree_bound)
    for attempt in range(search._MAX_TRIES):
        rng = search._philox(spec.seed, search._STREAM_GEN + attempt)
        deg = int(rng.integers(1, degree + 1))
        coeffs = search._open_closed(rng, max(spec.coeff_range[0], 0.0),
                                     spec.coeff_range[1], deg + 1)
        var = f"((x - {a!r})/{w!r})"
        raw_text = search._poly_text(coeffs, var=var)
        raw = parse(raw_text)
        r0 = raw.eval(domain.a)
        r1 = raw.eval(domain.b)
        if not r1 > r0:
            continue
        text = f"{a!r} + {w!r}*({raw_text} - {r0!r})/{(r1 - r0)!r}"
        try:
            return PhiMap(parse(text), domain)
        except PhiRangeViolated:
            continue
    raise GenerationExhausted("phi", search._MAX_TRIES)


def _phi_outcome(spec, domain, draw):
    try:
        return draw(spec, domain).phi.source_text
    except Exception as err:  # compared by type, message and abscissa
        return type(err).__name__, str(err), getattr(err, "x", None)


class TestGeneratePhiMatchesReference:
    # huge coefficient ranges make the raw polynomial overflow at b
    @given(st.integers(0, 6), st.floats(0, 10),
           st.one_of(st.floats(1e-9, 1e3), st.floats(1e300, 1.7e308)),
           st.integers(0, 2**64 - 1), st.floats(-1e3, 1e3), st.floats(-9, 9))
    @settings(max_examples=300, deadline=None)
    def test_matches_two_parse_draw(self, degree, lo, spread, seed, a, log_width):
        spec = FamilySpec("positive_poly", degree, (lo, lo + spread), seed)
        domain = Interval(a, a + 10**log_width)
        assert (_phi_outcome(spec, domain, generate_phi)
                == _phi_outcome(spec, domain, _ref_generate_phi))


class TestFindCounterexample:
    def test_nan_tolerance_rejected(self):
        # a NaN tolerance would report no violation for any target
        for target in (SearchTarget("check", "convex"), SearchTarget("chain", "classic_hh")):
            with pytest.raises(ValueError, match="tolerance must be a non-negative number"):
                find_counterexample(target, FamilySpec("power"), None, Interval(0.5, 2.0),
                                    budget=3, seed=3, sampler=LIGHT, tolerance=math.nan)

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            find_counterexample(SearchTarget("check", "log_convex"),
                                FamilySpec("positive_poly"), None,
                                Interval(1, 2), 0, seed=1)

    def test_positive_poly_violates_log_convexity(self):
        out = find_counterexample(
            SearchTarget("check", "log_convex"),
            FamilySpec("positive_poly", 2, (0.0, 2.0)), None,
            Interval(1, 2), budget=100, seed=42, sampler=LIGHT)
        assert out.found
        assert out.witness is not None
        # witness re-verifies under the same check and tolerances
        rep = check_log_convex(parse(out.witness.f_text), Interval(1, 2), LIGHT)
        assert rep.verdict == VERDICT_VIOLATED

    def test_log_linear_family_never_violates(self):
        out = find_counterexample(
            SearchTarget("check", "log_convex"),
            FamilySpec("exp_of_poly", 1, (-2, 2)), None,
            Interval(1, 2), budget=1000, seed=42, sampler=LIGHT)
        assert not out.found
        assert out.trials == 1000

    def test_valid_family_never_breaks_theorem1_chain(self):
        out = find_counterexample(
            SearchTarget("chain", "theorem1"),
            FamilySpec("exp_of_poly", 1, (-2, 2)),
            FamilySpec("positive_poly", 2, (0.1, 2.0)),
            UNIT, budget=1000, seed=7, quad_tol=1e-9)
        assert not out.found
        assert out.trials == 1000

    def test_valid_family_never_breaks_theorem2_chain(self):
        out = find_counterexample(
            SearchTarget("chain", "theorem2"),
            FamilySpec("exp_of_poly", 1, (-2, 2)),
            FamilySpec("positive_poly", 2, (0.1, 2.0)),
            UNIT, budget=1000, seed=7, quad_tol=1e-9)
        assert not out.found
        assert out.trials == 1000

    def test_concave_family_breaks_classic_chain(self):
        out = find_counterexample(
            SearchTarget("chain", "classic_hh"),
            FamilySpec("power", 0, (0.0, 1.0)), None,
            Interval(0.5, 2.0), budget=50, seed=3)
        # x^r is concave for 0 < r < 1 and for r < 0 it is convex; either
        # way some draw in 50 trials lands in the concave band
        assert out.found
        assert out.witness.report.verdict == "link_violated"

    @pytest.mark.parametrize("target", [SearchTarget("check", "convex"),
                                        SearchTarget("chain", "dragomir_mond")])
    def test_no_phi_drawn_for_targets_without_phi(self, target, monkeypatch):
        import hhv.search as search
        calls = []

        def counting(spec, domain):
            calls.append(spec)
            return generate_phi(spec, domain)

        monkeypatch.setattr(search, "generate_phi", counting)
        out = find_counterexample(
            target, FamilySpec("power", 0, (0.0, 1.0)),
            FamilySpec("positive_poly", 2, (0.1, 2.0)),
            Interval(0.5, 2.0), budget=50, seed=3, sampler=LIGHT)
        assert out.found and out.witness.phi_text is None
        assert calls == []

    def test_endpoint_product_underflow_skips_the_trial(self):
        # f and g near exp(-410): f*g underflows at both ends in every trial
        out = find_counterexample(
            SearchTarget("chain", "theorem2"), FamilySpec("exp_of_poly", 0, (-420, -400)),
            None, UNIT, budget=3, seed=0)
        assert not out.found
        assert out.skipped == {"ChainTermError": 3}

    def test_outcome_deterministic(self):
        args = dict(target=SearchTarget("check", "log_convex"),
                    f_spec=FamilySpec("positive_poly", 2, (0.0, 2.0)),
                    phi_spec=None, domain=Interval(1, 2), budget=25, seed=11,
                    sampler=LIGHT)
        assert find_counterexample(**args) == find_counterexample(**args)

    def test_lowest_trial_index_reported(self):
        out = find_counterexample(
            SearchTarget("check", "log_convex"),
            FamilySpec("positive_poly", 2, (0.0, 2.0)), None,
            Interval(1, 2), budget=100, seed=42, sampler=LIGHT)
        assert out.trials == out.witness.trial + 1
        # no earlier trial violates
        for trial in range(out.witness.trial):
            import dataclasses
            from hhv.search import _derive_seed
            spec = dataclasses.replace(FamilySpec("positive_poly", 2, (0.0, 2.0)),
                                       seed=_derive_seed(42, trial, 0))
            rep = check_log_convex(generate(spec, Interval(1, 2)), Interval(1, 2), LIGHT)
            assert rep.verdict != VERDICT_VIOLATED


class TestRunTarget:
    @pytest.mark.parametrize("target, takes_phi, takes_g", [
        (SearchTarget("check", "convex"), False, False),
        (SearchTarget("check", "log_convex"), False, False),
        (SearchTarget("check", "phi_convex"), True, False),
        (SearchTarget("check", "log_phi_convex"), True, False),
        (SearchTarget("check", "log_phi_midconvex"), True, False),
        (SearchTarget("chain", "classic_hh"), False, False),
        (SearchTarget("chain", "dragomir_mond"), False, False),
        (SearchTarget("chain", "theorem1"), True, False),
        (SearchTarget("chain", "theorem2"), True, True),
    ])
    def test_inputs_each_target_takes(self, target, takes_phi, takes_g):
        assert (target.takes_phi, target.takes_g) == (takes_phi, takes_g)

    def test_default_tolerance_follows_target_kind(self):
        f = parse("exp(x)")
        check, _ = run_target(SearchTarget("check", "convex"), f, None, None, UNIT, LIGHT)
        chain, _ = run_target(SearchTarget("chain", "classic_hh"), f, None, None, UNIT)
        assert (check.tolerance, chain.tolerance) == (1e-9, 1e-8)
        chain, _ = run_target(SearchTarget("chain", "classic_hh"), f, None, None, UNIT,
                              tolerance=1e-3)
        assert chain.tolerance == 1e-3

    @pytest.mark.parametrize("name", ["classic_hh", "dragomir_mond"])
    def test_plain_chains_build_no_phi(self, name, monkeypatch):
        def refuse(domain):
            raise AssertionError("a plain chain built an identity phi")

        monkeypatch.setattr(PhiMap, "identity", staticmethod(refuse))
        rep, violated = run_target(SearchTarget("chain", name), parse("exp(x)"), None, None,
                                   UNIT)
        assert (rep.chain_id, violated) == (name, False)

    @pytest.mark.parametrize("name", ["classic_hh", "dragomir_mond", "theorem1", "theorem2"])
    def test_diagnostics_reach_the_phi_chains(self, name):
        rep, _ = run_target(SearchTarget("chain", name), parse("exp(x)"), None, None, UNIT,
                            diagnostics=True)
        assert (rep.diagnostics is not None) == (name in ("theorem1", "theorem2"))

    def test_search_tolerance_reaches_chains(self):
        args = (SearchTarget("chain", "theorem1"), FamilySpec("exp_of_poly", 1, (-30, 30)),
                None, UNIT, 5, 0)
        assert find_counterexample(*args).found
        assert not find_counterexample(*args, tolerance=1e6).found
