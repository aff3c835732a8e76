import pytest

from hhv.convexity import PhiMap, SamplePlan, VERDICT_VIOLATED, check_log_convex
from hhv.errors import GenerationExhausted
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


class TestFindCounterexample:
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
