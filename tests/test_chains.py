import math
import warnings

import pytest

from hhv.chains import (
    VERDICT_CHAIN_HOLDS, VERDICT_LINK_VIOLATED,
    eval_classic_hh, eval_dragomir_mond, eval_theorem1, eval_theorem2,
)
from hhv.convexity import PhiMap, SamplePlan, check_log_phi_convex
from hhv.errors import (
    ChainTermError, DegeneratePhi, OpenPanelLimitExceeded, PositivityViolated,
)
from hhv.expr import Interval, parse

UNIT = Interval(0.0, 1.0)
E = math.e


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

    def test_open_panel_limit_ends_a_runaway_term(self):
        # the reflected geometric mean of this f refines everywhere near
        # both poles; the open-panel limit ends it before memory runs out
        with pytest.raises(ChainTermError) as exc:
            eval_theorem1(parse("1/(x-0.3001)^2"), PhiMap.identity(UNIT))
        assert exc.value.term == "mean_geometric_reflected"
        assert isinstance(exc.value.__cause__, OpenPanelLimitExceeded)

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

    def test_positivity_of_both_required(self):
        with pytest.raises(PositivityViolated):
            eval_theorem2(parse("exp(x)"), parse("x - 2"), PhiMap.identity(UNIT))
