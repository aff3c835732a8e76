import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hhv import expr, search
from hhv.convexity import (
    POSITIVITY_GRID, PhiMap, SamplePlan, VERDICT_VIOLATED, check_log_convex,
)
from hhv.errors import GenerationExhausted, HHVError, PhiRangeViolated
from hhv.expr import Interval, check_positive, evaluate_array, parse
from hhv.search import (
    FamilySpec, SearchOutcome, SearchTarget, SearchWitness, find_counterexample, generate,
    generate_phi, run_target,
)

UNIT = Interval(0.0, 1.0)
LIGHT = SamplePlan(x_points=9, t_points=5, random_count=64, seed=0)


def height(node) -> int:
    """The height of a tree, a leaf's being 1, without recursion."""
    best, todo = 0, [(node, 1)]
    while todo:
        node, h = todo.pop()
        best = max(best, h)
        if type(node) is expr.Binary:
            todo += [(node.left, h + 1), (node.right, h + 1)]
        elif type(node) is expr.Unary:
            todo.append((node.arg, h + 1))
    return best


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
        (dict(coeff_range=(-1e308, 1e308)), "coeff_range (-1e+308, 1e+308) is too wide"),
        (dict(coeff_range=(-math.inf, 0.0)), "is too wide to draw from"),
        (dict(family="positive_poly", coeff_range=(0.0, math.inf)), "is too wide"),
        (dict(family="affine_exp", coeff_range=(-2.0, -1.0)),
         "affine_exp requires a positive coeff_range upper bound, got (-2.0, -1.0)"),
        (dict(family="affine_exp", coeff_range=(-1.0, 0.0)), "positive coeff_range upper"),
        # the rate is drawn in [-hi, hi]
        (dict(family="affine_exp", coeff_range=(0.0, 1e308)), "is too wide to draw from"),
    ])
    def test_bad_parameters_rejected(self, kwargs, message):
        kwargs = {"family": "exp_of_poly", **kwargs}
        with pytest.raises(ValueError, match=re.escape(message)):
            FamilySpec(**kwargs)

    @pytest.mark.parametrize("family, coeff_range", [
        ("exp_of_poly", (-8e307, 8e307)),
        ("affine_exp", (-1e308, 8e307)),
        ("power", (-1e308, 1e308)),  # the range is not drawn from
    ])
    def test_widest_drawable_ranges_accepted(self, family, coeff_range):
        for stream in range(4):
            search._build(FamilySpec(family, 1, coeff_range), search._philox(3, stream))


class TestFamilySpecFields:
    def test_numpy_integers_give_the_int_spec(self):
        spec = FamilySpec("power", np.int64(2), seed=np.int64(3))
        assert spec == FamilySpec("power", 2, seed=3)
        assert type(spec.degree_bound) is int and type(spec.seed) is int
        for family in search.FAMILIES:
            want = generate(FamilySpec(family, 3, seed=3), Interval(0.5, 2.0))
            got = generate(FamilySpec(family, np.int64(3), seed=np.int64(3)), Interval(0.5, 2.0))
            assert got == want
        assert (generate_phi(FamilySpec("positive_poly", 3, seed=np.uint32(7)), UNIT)
                == generate_phi(FamilySpec("positive_poly", 3, seed=7), UNIT))

    @pytest.mark.parametrize("kwargs", [dict(degree_bound=1.5), dict(degree_bound=2.0),
                                        dict(seed=0.5)])
    def test_fractions_rejected(self, kwargs):
        with pytest.raises(TypeError):
            FamilySpec("power", **kwargs)

    def test_degree_bound_keeps_every_tree_within_max_depth(self):
        top = expr.MAX_DEPTH - search._PHI_HEIGHT
        for family in search.FAMILIES:
            FamilySpec(family, top)
            with pytest.raises(ValueError, match=f"degree_bound must be <= {top}, got {top + 1}"):
                FamilySpec(family, top + 1)
        heights = [height(generate_phi(FamilySpec("positive_poly", top, seed=s),
                                       Interval(-1.0, 1.0)).phi.root) for s in range(300)]
        assert max(heights) == expr.MAX_DEPTH
        for family in search.FAMILIES:
            for s in range(20):
                spec = FamilySpec(family, top, (0.0, 1.0), seed=s)
                assert height(generate(spec, Interval(0.5, 1.0)).root) < expr.MAX_DEPTH


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
        for family, coeff_range, domain in [
            ("exp_of_poly", (-2.0, 2.0), Interval(-3.0, -0.0)),
            ("positive_poly", (0.0, 2.0), UNIT),
            ("affine_exp", (-1.0, 2.0), Interval(-1.0, 1.0)),
            ("power", (0.0, 1.0), Interval(0.5, 2.0)),
        ]:
            for seed in range(4):
                spec = FamilySpec(family, 3, coeff_range, seed=seed)
                phi_spec = replace(spec, family="positive_poly", coeff_range=(0.1, 2.0))
                for expr in (generate(spec, domain), generate_phi(phi_spec, domain).phi):
                    # repr tells -0.0 from 0.0, which == does not
                    assert repr(parse(expr.source_text).root) == repr(expr.root)

    @pytest.mark.parametrize("family", search.FAMILIES)
    def test_built_tree_equals_parsed_tree_with_its_hash(self, family):
        domain = Interval(0.5, 2.0)
        for seed in range(6):
            built = search._build(FamilySpec(family, 3, (0.0, 2.0)), search._philox(seed, 0))
            parsed = parse(built.source_text).root
            assert parsed == built.root and hash(parsed) == hash(built.root)
        phi = generate_phi(FamilySpec("positive_poly", 3, (0.1, 2.0), seed=4), domain).phi
        parsed = parse(phi.source_text).root
        assert parsed == phi.root and hash(parsed) == hash(phi.root)

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


def _poly_text(coeffs, var="x"):
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = float(coeffs[k])
        mag = repr(abs(c))
        if k >= 2:
            piece = f"{mag}*{var}^{k}"
        elif k == 1:
            piece = f"{mag}*{var}"
        else:
            piece = mag
        if not parts:
            parts.append(piece if c >= 0 else f"-{piece}")
        else:
            parts.append(f" {'+' if c >= 0 else '-'} {piece}")
    return "".join(parts)


def _build_text(spec, rng):
    lo, hi = spec.coeff_range
    if spec.family == "exp_of_poly":
        degree = int(rng.integers(0, spec.degree_bound + 1))
        coeffs = rng.uniform(lo, hi, degree + 1)
        return f"exp({_poly_text(coeffs)})"
    if spec.family == "positive_poly":
        degree = int(rng.integers(min(1, spec.degree_bound), spec.degree_bound + 1))
        coeffs = search._open_closed(rng, lo, hi, degree + 1)
        return _poly_text(coeffs)
    if spec.family == "affine_exp":
        scale = float(search._open_closed(rng, max(lo, 0.0), hi, 1)[0])
        rate = float(rng.uniform(-hi, hi))
        shift = float(rng.uniform(max(lo, 0.0), hi))
        return f"{scale!r}*exp({rate!r}*x) + {shift!r}"
    if spec.family == "power":
        r = float(rng.uniform(-3.0, 3.0))
        return f"x^{r!r}"
    raise AssertionError(spec.family)


def _ref_generate(spec, domain):
    """generate as it stood with a parse per attempt: each candidate is
    written as text and the text is parsed."""
    for attempt in range(search._MAX_TRIES):
        rng = search._philox(spec.seed, search._STREAM_GEN + attempt)
        expr = parse(_build_text(spec, rng))
        if check_positive(expr, domain).ok:
            return expr
    raise GenerationExhausted(spec.family, search._MAX_TRIES)


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
        raw_text = _poly_text(coeffs, var=var)
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


def _outcome(spec, domain, draw):
    try:
        expr = draw(spec, domain)
    except Exception as err:  # compared by type, message and abscissa
        return type(err).__name__, str(err), getattr(err, "x", None)
    expr = getattr(expr, "phi", expr)
    # repr tells -0.0 from 0.0, which == does not
    return expr.source_text, repr(expr.root)


_BIG = 1.7e308
# moderate values, and values of any size up to near the float maximum,
# -0.0 among them
_any_float = st.one_of(st.floats(-10, 10), st.floats(-_BIG, _BIG))


@st.composite
def _ranges(draw, nonnegative=False):
    lo, hi = sorted(draw(st.lists(_any_float, min_size=2, max_size=2, unique=True)))
    if nonnegative:
        lo, hi = sorted((abs(lo), abs(hi)))
        assume(lo < hi)
    return lo, hi


def _unvalidated(family, degree, coeff_range, seed):
    """A FamilySpec built without the checks that would reject it."""
    spec = object.__new__(FamilySpec)
    for name, value in zip(("family", "degree_bound", "coeff_range", "seed"),
                           (family, degree, coeff_range, seed)):
        object.__setattr__(spec, name, value)
    return spec


@st.composite
def _domains(draw):
    a, b = draw(_ranges())
    assume(math.isfinite(b - a))
    return Interval(a, b)


class TestGeneratePhiMatchesReference:
    # huge coefficient ranges make the raw polynomial overflow at b
    @given(st.integers(0, 6), st.floats(0, 10),
           st.one_of(st.floats(1e-9, 1e3), st.floats(1e300, 1.7e308)),
           st.integers(0, 2**64 - 1), st.floats(-1e3, 1e3), st.floats(-9, 9))
    @settings(max_examples=300, deadline=None)
    def test_matches_two_parse_draw(self, degree, lo, spread, seed, a, log_width):
        spec = FamilySpec("positive_poly", degree, (lo, lo + spread), seed)
        domain = Interval(a, a + 10**log_width)
        assert (_outcome(spec, domain, generate_phi)
                == _outcome(spec, domain, _ref_generate_phi))

    @given(st.integers(0, 6), _ranges(), st.integers(0, 2**64 - 1), _domains())
    # a range whose width overflows, which FamilySpec rejects
    @example(0, (-9.769313486231587e+306, 1.7e+308), 0, Interval(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_matches_two_parse_draw_at_any_scale(self, degree, coeff_range, seed, domain):
        # generate_phi reads no family, and clips a negative lo to 0
        try:
            spec = FamilySpec("exp_of_poly", degree, coeff_range, seed)
        except ValueError as err:
            # rejected because exp_of_poly could not draw from it; clipped
            # to a non-negative lo, generate_phi still can
            assert not math.isfinite(coeff_range[1] - coeff_range[0])
            assert str(err).endswith("is too wide to draw from: its width overflows")
            spec = _unvalidated("exp_of_poly", degree, coeff_range, seed)
        assert (_outcome(spec, domain, generate_phi)
                == _outcome(spec, domain, _ref_generate_phi))


class TestGenerateMatchesReference:
    @pytest.mark.parametrize("family", search.FAMILIES)
    @given(degree=st.integers(0, 6), data=st.data(), seed=st.integers(0, 2**64 - 1),
           domain=_domains())
    @settings(max_examples=200, deadline=None)
    def test_matches_text_then_parse(self, family, degree, data, seed, domain):
        coeff_range = data.draw(_ranges(nonnegative=family == "positive_poly"))
        try:
            spec = FamilySpec(family, degree, coeff_range, seed)
        except ValueError:
            # FamilySpec rejects only ranges that the reference cannot draw a
            # candidate from: numpy refuses the range, or every affine_exp
            # candidate with hi <= 0 is zero
            spec = _unvalidated(family, degree, coeff_range, seed)
            failed = _outcome(spec, domain, _ref_generate)[0]
            assert failed in ("OverflowError", "ValueError", "GenerationExhausted")
            return
        assert _outcome(spec, domain, generate) == _outcome(spec, domain, _ref_generate)


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

    @pytest.mark.parametrize("target, takes", [
        (SearchTarget("chain", "theorem2"), 2),  # f and g
        (SearchTarget("check", "log_phi_convex"), 1),
        (SearchTarget("chain", "dragomir_mond"), 1),
    ])
    def test_each_candidate_evaluated_once_on_the_positivity_grid(self, target, takes,
                                                                  monkeypatch):
        # generate checks each candidate's positivity and the target checks it
        # again, on the same Interval object: the second check is remembered
        on_grid = []

        def counting(f, xs):
            if np.size(xs) == POSITIVITY_GRID + 1:
                on_grid.append(f)
            return evaluate_array(f, xs)

        monkeypatch.setattr(expr, "evaluate_array", counting)
        out = find_counterexample(target, FamilySpec("exp_of_poly", 1, (-2, 2)),
                                  FamilySpec("positive_poly", 2, (0.1, 2.0)), UNIT,
                                  budget=20, seed=5, sampler=LIGHT)
        # on_grid holds every candidate, so no two of them share an id
        per_expr = Counter(map(id, on_grid))
        assert out.trials == 20 and not out.skipped
        assert len(per_expr) == takes * out.trials
        assert set(per_expr.values()) == {1}

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


def _ref_find_counterexample(target, f_spec, phi_spec, domain, budget, seed, sampler):
    """find_counterexample's loop with every per-trial spec built by
    dataclasses.replace, which validates it again."""
    skipped: dict[str, int] = {}
    for trial in range(budget):
        try:
            f = generate(replace(f_spec, seed=search._derive_seed(seed, trial, 0)), domain)
            phi = None
            if phi_spec is not None and target.takes_phi:
                phi = generate_phi(replace(phi_spec, seed=search._derive_seed(seed, trial, 1)),
                                   domain)
            g = None
            if target.takes_g:
                g = generate(replace(f_spec, seed=search._derive_seed(seed, trial, 2)), domain)
            report, violated = run_target(target, f, g, phi, domain, sampler)
        except HHVError as err:
            skipped[type(err).__name__] = skipped.get(type(err).__name__, 0) + 1
            continue
        if violated:
            return SearchOutcome(True, SearchWitness(
                f.source_text, phi.phi.source_text if phi is not None else None,
                g.source_text if g is not None else None, trial, report), trial + 1, seed, skipped)
    return SearchOutcome(False, None, budget, seed, skipped)


_TARGETS = [SearchTarget("check", name) for name in search._CHECKS] + [
    SearchTarget("chain", name) for name in search.CHAIN_IDS]


class TestPerTrialSpecs:
    """Each trial's specs are copies of the validated spec with the trial's
    seed, equal to what dataclasses.replace builds."""

    @pytest.mark.parametrize("family", search.FAMILIES)
    @pytest.mark.parametrize("target", _TARGETS, ids=lambda t: f"{t.kind}:{t.name}")
    def test_outcome_equals_replace_loop(self, family, target, monkeypatch):
        f_spec = FamilySpec(family, 2, (0.0, 2.0))
        phi_spec = FamilySpec("positive_poly", 2, (0.1, 2.0))
        domain, budget, seed = Interval(0.5, 2.0), 4, 17
        specs = []

        def recording(fn, base):
            def wrapper(spec, domain):
                specs.append((base, spec))
                return fn(spec, domain)
            return wrapper

        monkeypatch.setattr(search, "generate", recording(generate, f_spec))
        monkeypatch.setattr(search, "generate_phi", recording(generate_phi, phi_spec))
        got = find_counterexample(target, f_spec, phi_spec, domain, budget, seed,
                                  sampler=LIGHT)
        monkeypatch.undo()
        assert got == _ref_find_counterexample(target, f_spec, phi_spec, domain, budget,
                                               seed, LIGHT)
        assert specs
        for base, spec in specs:
            want = replace(base, seed=spec.seed)
            assert type(spec) is FamilySpec and spec == want and hash(spec) == hash(want)
            assert spec is not base and spec.seed != base.seed

    def test_copies_carry_the_derived_seeds(self, monkeypatch):
        seen = []

        def recording(spec, domain):
            seen.append(spec.seed)
            return generate(spec, domain)

        monkeypatch.setattr(search, "generate", recording)
        find_counterexample(SearchTarget("chain", "theorem2"),
                            FamilySpec("exp_of_poly", 1, (0.0, 1.0)), None, UNIT, 3, 9)
        assert seen == [search._derive_seed(9, trial, role)
                        for trial in range(3) for role in (0, 2)]


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
        # exp of a concave quadratic is not log-convex, and theorem1 fails for
        # it by percents of its terms; a relative tolerance of 0.1 masks that
        args = (SearchTarget("chain", "theorem1"), FamilySpec("exp_of_poly", 2, (-3, 3)),
                None, UNIT, 5, 0)
        outcome = find_counterexample(*args)
        assert outcome.found
        report = outcome.witness.report
        scale = max(abs(v) for _, v in report.terms)
        assert min(report.pair_margins) < -0.01 * scale
        assert not find_counterexample(*args, tolerance=0.1).found

    def test_exp_of_affine_theorem1_search_finds_no_witness(self):
        # every exp(k*x + c) is log-convex, so no link may fail at any scale
        outcome = find_counterexample(SearchTarget("chain", "theorem1"),
                                      FamilySpec("exp_of_poly", 1, (-30, 30)),
                                      None, UNIT, 100, 0)
        assert not outcome.found and outcome.trials == 100
