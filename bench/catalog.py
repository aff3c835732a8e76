"""Seeded job catalogs for the three benchmark workloads.

Every job is a plain JSON-able dict (a *spec*) built from ``random.Random``
keyed on the workload seed and a pass number, so one seed always gives the
same jobs in the same order, and every pass of a run gets inputs of its own
with the same family mix.  The fixed anchors join one pass only: no input
repeats within a process, so a cache keyed on an expression never hits
across passes.  A spec carries what the program needs (expression text and
numbers) plus the expected outcome that follows from how the case was built
(``expect``).  Nothing here imports ``hhv``: turning specs into calls is the
worker's set-up step.

Function families, all on intervals inside (0, 3]:

* ``exp_affine``  exp(k*x + c), |k| <= 40, c <= 25, peak exponent -5 to 60:
  log-convex, and the scale stress of ROADMAP item 1.
* ``exp_poly``    exp of a polynomial of degree 1..6 that is convex on x >= 0:
  log-convex.
* ``nested_lc``   sums, quotients and compositions that stay log-convex.
* ``convex_nlc``  convex but strictly log-concave: (p*x + s)^r with r > 1,
  and positive affine maps.
* ``concave``     strictly concave and log-concave: powers r < 1, sqrt, ln.
* ``nonpos``      not positive on the interval, so every log class and
  positivity-requiring chain must end in ``PositivityViolated``.

Every log-convex function is also convex; every other family is strictly
outside the log-convex class on the whole interval, so sampling always
finds the violation.
"""
from __future__ import annotations

import random

CHECK_CLASSES = ("convex", "log_convex", "phi_convex", "log_phi_convex",
                 "log_phi_midconvex")
LOG_CLASSES = ("log_convex", "log_phi_convex", "log_phi_midconvex")
PHI_CLASSES = ("phi_convex", "log_phi_convex", "log_phi_midconvex", "implication")
CHAIN_JOBS = (("classic_hh", False), ("dragomir_mond", False), ("theorem1", False),
              ("theorem1", True), ("theorem2", False), ("theorem2", True))
POSITIVITY = "PositivityViolated"

# the search plan of scripts/hunt_counterexamples.py
HUNT_PLAN = {"x_points": 9, "t_points": 9, "random_count": 128}


def _n(v: float) -> str:
    return f"{v:.6g}"


def _r(v: float) -> float:
    return float(_n(v))


def _lin(k: float, c: float, var: str = "x") -> str:
    sign = "+" if c >= 0 else "-"
    return f"{_n(k)}*{var} {sign} {_n(abs(c))}"


def _lhs(rng: random.Random, n: int, dims: int = 2) -> list[tuple[float, ...]]:
    """Latin-hypercube draws: each dimension hits every 1/n stratum once, so
    the mix of scales does not drift from seed to seed."""
    cols = []
    for _ in range(dims):
        perm = list(range(n))
        rng.shuffle(perm)
        cols.append([(p + rng.random()) / n for p in perm])
    return list(zip(*cols))


def _interval(rng: random.Random, lo_a: float, hi_a: float, lo_w: float,
              hi_w: float) -> tuple[float, float]:
    a = _r(rng.uniform(lo_a, hi_a))
    b = _r(a + rng.uniform(lo_w, hi_w))
    return a, b


def fcase(text, a, b, family, convex, log_convex, positive=True) -> dict:
    return {"f": text, "a": a, "b": b, "family": family, "convex": convex,
            "log_convex": log_convex and positive, "positive": positive}


# ----------------------------- function families ------------------------------

def exp_affine(rng: random.Random, u: tuple[float, float]) -> dict:
    """exp(k*x + c) with the slope and the peak exponent E = max(k*x + c)
    both stratified, since E sets the magnitude that ROADMAP item 1's
    defects depend on; c is capped at 25."""
    a, b = _interval(rng, 0.0, 1.0, 0.25, 1.0)
    k = 40.0 * (2.0 * u[0] - 1.0)
    k = k if abs(k) >= 1.0 else 1.0
    peak = -5.0 + 65.0 * u[1]
    c = min(25.0, peak - max(k * a, k * b))
    return fcase(f"exp({_lin(k, c)})", a, b, "exp_affine", True, True)


def exp_poly(rng: random.Random, degree: int) -> dict:
    a, b = _interval(rng, 0.05, 1.2, 0.3, 1.2)
    parts = [_n(rng.uniform(-3.0, 5.0)), f"{_n(rng.uniform(-3.0, 3.0))}*x"]
    for j in range(2, degree + 1):
        parts.append(f"{_n(rng.uniform(0.5, 6.0) / b ** j)}*x^{j}")
    return fcase(f"exp({' + '.join(parts)})", a, b, "exp_poly", True, True)


def nested_lc(rng: random.Random, variant: int) -> dict:
    a, b = _interval(rng, 0.05, 1.2, 0.3, 1.2)
    if variant == 0:
        k1, k2, c = rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0), rng.uniform(0.0, 2.0)
        text = f"exp({_n(k1)}*x) + exp({_n(c)} - {_n(k2)}*x)"
    elif variant == 1:
        text = f"(x + {_n(rng.uniform(0.1, 1.0))})^(-{_n(rng.uniform(0.5, 3.0))})"
    elif variant == 2:
        k = rng.uniform(0.3, 2.5) / b
        text = f"exp(exp({_n(k)}*x) + {_n(rng.uniform(-1.0, 1.0))})"
    else:
        m, q, s = rng.uniform(a, b), rng.uniform(0.5, 3.0), rng.uniform(0.1, 1.0)
        text = f"exp({_n(q)}*(x - {_n(m)})^2)/(x + {_n(s)})"
    return fcase(text, a, b, "nested_lc", True, True)


def convex_nlc(rng: random.Random, variant: int) -> dict:
    a, b = _interval(rng, 0.05, 1.2, 0.3, 1.2)
    if variant == 0:
        text = (f"({_lin(rng.uniform(0.5, 2.0), rng.uniform(0.1, 1.0))})"
                f"^{_n(rng.uniform(1.5, 4.0))}")
    else:
        text = _lin(rng.uniform(0.5, 3.0), rng.uniform(0.2, 1.0))
    return fcase(text, a, b, "convex_nlc", True, False)


def concave(rng: random.Random, variant: int) -> dict:
    a, b = _interval(rng, 0.05, 1.2, 0.3, 1.2)
    p, s = rng.uniform(0.5, 2.0), rng.uniform(0.1, 1.0)
    if variant == 0:
        text = f"({_lin(p, s)})^{_n(rng.uniform(0.3, 0.8))}"
    elif variant == 1:
        text = f"sqrt({_lin(p, s)})"
    else:
        # shift so that p*a + s >= 1.2: ln stays positive on [a, b]
        text = f"ln({_lin(p, 1.2 - p * a + s)})"
    return fcase(text, a, b, "concave", False, False)


def nonpos(rng: random.Random, variant: int) -> dict:
    a, b = _interval(rng, 0.05, 1.2, 0.3, 1.2)
    m = _r(rng.uniform(a + 0.25 * (b - a), b - 0.25 * (b - a)))
    if variant == 0:
        d = rng.uniform(0.01, 0.2) * (b - a) ** 2
        return fcase(f"(x - {_n(m)})^2 - {_n(d)}", a, b, "nonpos", True, False, False)
    # ln crosses zero at m and its argument stays positive on [a, b]
    p = rng.uniform(0.3, 0.9) / (m - a)
    return fcase(f"ln({_lin(p, 1.0 - p * m)})", a, b, "nonpos", False, False, False)


def function_mix(rng: random.Random, counts: dict[str, int]) -> list[dict]:
    """``counts`` fixes how many cases each family gets, so every seed gives
    the same composition and only the parameters move."""
    out: list[dict] = []
    n = counts.get("exp_affine", 0)
    out += [exp_affine(rng, u) for u in _lhs(rng, n)] if n else []
    out += [exp_poly(rng, 1 + i % 6) for i in range(counts.get("exp_poly", 0))]
    out += [nested_lc(rng, i % 4) for i in range(counts.get("nested_lc", 0))]
    out += [convex_nlc(rng, i % 2) for i in range(counts.get("convex_nlc", 0))]
    out += [concave(rng, i % 3) for i in range(counts.get("concave", 0))]
    out += [nonpos(rng, i % 2) for i in range(counts.get("nonpos", 0))]
    return out


def phi_text(rng: random.Random, a: float, b: float, variant: int) -> str:
    """Continuous monotone self-maps of [a, b]: identity, nonlinear onto,
    reversed (phi(a) > phi(b)), reversed nonlinear, and contracting.  The
    endpoints are written in full so that phi stays inside [a, b]."""
    w = repr(b - a)
    p = _n(rng.uniform(0.5, 3.0))
    u = f"((x - {a!r})/{w})"
    if variant == 0:
        return "x"
    if variant == 1:
        return f"{a!r} + {w}*{u}^{p}"
    if variant == 2:
        return f"{(a + b)!r} - x"
    if variant == 3:
        return f"{b!r} - {w}*{u}^{p}"
    return f"{a!r} + {w}*(0.25 + 0.5*{u}^{p})"


# ----------------------------- expected outcomes -------------------------------

def expect_check(case: dict, cls: str) -> str:
    if cls in LOG_CLASSES or cls == "implication":
        if not case["positive"]:
            return POSITIVITY
        return "holds" if case["log_convex"] else "violated"
    return "holds" if case["convex"] else "violated"


def expect_chain(case: dict, chain: str, g: dict | None) -> str | None:
    """The theorem's verdict where its hypothesis holds by construction; None
    leaves the verdict to the high-precision terms."""
    if chain == "classic_hh":
        return "holds" if case["convex"] else None
    if not case["positive"] or (g is not None and not g["positive"]):
        return POSITIVITY
    if case["log_convex"] and (g is None or g["log_convex"]):
        return "holds"
    return None


# ----------------------------- anchors ----------------------------------------

# scripts/chain_survey.py, with its two phi maps, on [0, 1]
SURVEY = [
    fcase("exp(x)", 0.0, 1.0, "anchor", True, True),
    fcase("exp(x^2)", 0.0, 1.0, "anchor", True, True),
    fcase("x^2 + 0.5", 0.0, 1.0, "anchor", True, False),
    fcase("2*x + 1", 0.0, 1.0, "anchor", True, False),
    fcase("sqrt(x + 0.25)", 0.0, 1.0, "anchor", False, False),
    fcase("1/(1 + x)", 0.0, 1.0, "anchor", True, True),
]
SURVEY_PHIS = ("x", "x^2")

# ROADMAP item 1: equality cases that the seed code reports as violated
SCALE_ANCHORS = [
    fcase("exp(30*x)", 0.0, 1.0, "anchor", True, True),
    fcase("exp(10*x)", 0.0, 1.0, "anchor", True, True),
    fcase("exp(20*x)", 0.0, 1.0, "anchor", True, True),
]


def _check_job(case: dict, cls: str, phi: str | None, seed: int) -> dict:
    return {"job": "check", "cls": cls, "f": case["f"], "a": case["a"], "b": case["b"],
            "phi": phi, "seed": seed, "expect": expect_check(case, cls),
            "family": case["family"]}


def _chord_job(case: dict, log: bool, phi: str, pairs: int, seed: int) -> dict:
    cls = "log_phi_convex" if log else "phi_convex"
    return {"job": "chord", "log": log, "f": case["f"], "a": case["a"], "b": case["b"],
            "phi": phi, "pairs": pairs, "seed": seed, "expect": expect_check(case, cls),
            "family": case["family"]}


def _chain_job(case: dict, chain: str, diag: bool, phi: str, g: dict | None) -> dict:
    g = g if chain == "theorem2" else None
    return {"job": "chain", "chain": chain, "diag": diag, "f": case["f"],
            "g": g["f"] if g is not None else None, "a": case["a"], "b": case["b"],
            "phi": phi if chain in ("theorem1", "theorem2") else None,
            "expect": expect_chain(case, chain, g), "family": case["family"]}


# ----------------------------- workloads --------------------------------------

CERTIFY_MIX = {"exp_affine": 40, "exp_poly": 24, "nested_lc": 16, "convex_nlc": 16,
               "concave": 18, "nonpos": 6}


def certify(seed: int, rep: int, anchors: bool) -> list[dict]:
    rng = random.Random(f"certify:{seed}:{rep}")
    cases = function_mix(rng, CERTIFY_MIX)
    jobs = []
    for i, case in enumerate(cases):
        cls = (CHECK_CLASSES + ("implication",))[i % 6]
        phi = phi_text(rng, case["a"], case["b"], i % 5) if cls in PHI_CLASSES else None
        jobs.append(_check_job(case, cls, phi, rng.randrange(2 ** 31)))
    # chord jobs: a fixed minority with 2 to 8 pairs, the p90 tail
    chord_cases = function_mix(rng, {"exp_affine": 12, "exp_poly": 8, "nested_lc": 6,
                                     "convex_nlc": 6, "concave": 6, "nonpos": 2})
    for j, case in enumerate(chord_cases):
        jobs.append(_chord_job(case, j % 2 == 0, phi_text(rng, case["a"], case["b"], j % 5),
                               2 + j % 7, rng.randrange(2 ** 31)))
    if anchors:
        for case in SCALE_ANCHORS[:1]:
            jobs.append(_check_job(case, "convex", None, 0))
        jobs.append(_check_job(SURVEY[0], "log_phi_convex", "x^2", 7))  # README example
        for k, case in enumerate(SURVEY):
            jobs.append(_check_job(case, CHECK_CLASSES[k % 5], SURVEY_PHIS[k % 2], k))
    rng.shuffle(jobs)
    return jobs


CHAINS_MIX = {"exp_affine": 16, "exp_poly": 4, "nested_lc": 4, "convex_nlc": 2,
              "concave": 2, "nonpos": 2}


def chains(seed: int, rep: int, anchors: bool) -> list[dict]:
    rng = random.Random(f"chains:{seed}:{rep}")
    cases = function_mix(rng, CHAINS_MIX)
    groups = []
    for i, case in enumerate(cases):
        phi = phi_text(rng, case["a"], case["b"], i % 5)
        # g shares f's interval; a log-convex g keeps theorem2's hypothesis
        g = fcase(f"exp({_lin(rng.uniform(-3, 3), rng.uniform(-1, 2))})",
                  case["a"], case["b"], "exp_affine", True, True)
        groups.append([_chain_job(case, c, d, phi, g) for c, d in CHAIN_JOBS])
    for case in SURVEY if anchors else ():
        for phi in SURVEY_PHIS:
            groups.append([_chain_job(case, c, d, phi, case) for c, d in CHAIN_JOBS
                           if phi == "x" or c in ("theorem1", "theorem2")])
    for case in SCALE_ANCHORS[1:] if anchors else ():
        groups.append([_chain_job(case, c, d, "x", case) for c, d in CHAIN_JOBS])
    rng.shuffle(groups)
    # every chain of one f runs back to back, so work on f can be shared
    return [job for group in groups for job in group]


SEARCH_TARGETS = tuple(f"check:{c}" for c in CHECK_CLASSES) + (
    "chain:classic_hh", "chain:dragomir_mond", "chain:theorem1", "chain:theorem2")
# (family, degree bound, coefficient range) from the hunt script's families
SEARCH_FAMILIES = (
    ("exp_of_poly", 1, (-2.0, 2.0)), ("exp_of_poly", 2, (-2.0, 2.0)),
    ("exp_of_poly", 4, (-1.0, 1.0)), ("exp_of_poly", 1, (-10.0, 10.0)),
    ("positive_poly", 2, (0.0, 2.0)), ("affine_exp", 0, (0.0, 2.0)),
    ("power", 0, (0.0, 1.0)),
)
SEARCH_BUDGET = 6


def protected(target: str, family: str, degree: int, lo: float, domain_a: float) -> bool:
    """True when the target's theorem rules out any counterexample for the
    family: exp of an affine function and a*exp(r*x) + s (a > 0, s >= 0) are
    log-convex, and a polynomial with non-negative coefficients is convex on
    x >= 0.  Any witness found there is wrong."""
    log_convex = (family == "exp_of_poly" and degree <= 1) or family == "affine_exp"
    convex = log_convex or (family == "positive_poly" and lo >= 0.0 and domain_a >= 0.0)
    kind, _, name = target.partition(":")
    if name in ("convex", "phi_convex", "classic_hh"):
        return convex
    return log_convex


def _search_job(target, family, degree, lo, hi, a, b, phi_poly, seed, budget) -> dict:
    return {"job": "search", "target": target, "family": family, "degree": degree,
            "lo": lo, "hi": hi, "a": a, "b": b, "phi_poly": phi_poly, "seed": seed,
            "budget": budget, "protected": protected(target, family, degree, lo, a)}


SEARCH_JOBS = 252


def search(seed: int, rep: int, anchors: bool) -> list[dict]:
    rng = random.Random(f"search:{seed}:{rep}")
    jobs = []
    for i in range(SEARCH_JOBS):
        target = SEARCH_TARGETS[i % len(SEARCH_TARGETS)]
        family, degree, (lo, hi) = SEARCH_FAMILIES[i % len(SEARCH_FAMILIES)]
        a, b = _interval(rng, 0.1, 1.0, 0.5, 1.0)
        jobs.append(_search_job(target, family, degree, lo, hi, a, b,
                                (i // 9) % 2 == 1, rng.randrange(2 ** 31), SEARCH_BUDGET))
    # scripts/hunt_counterexamples.py at its default seed, then ROADMAP item 1's
    # false witnesses (seeds at which the seed code reports one), then README
    hunt = [
        ("check:log_convex", "positive_poly", 2, 0.0, 2.0, 1.0, 2.0, False, 0),
        ("check:log_convex", "exp_of_poly", 2, -2.0, 2.0, 0.0, 1.0, False, 0),
        ("check:log_convex", "exp_of_poly", 1, -2.0, 2.0, 0.0, 1.0, False, 0),
        ("check:convex", "power", 0, 0.0, 1.0, 0.5, 2.0, False, 0),
        ("chain:classic_hh", "power", 0, 0.0, 1.0, 0.5, 2.0, False, 0),
        ("chain:theorem1", "exp_of_poly", 1, -2.0, 2.0, 0.0, 1.0, True, 0),
        ("chain:theorem2", "exp_of_poly", 1, -2.0, 2.0, 0.0, 1.0, True, 0),
        ("chain:theorem1", "exp_of_poly", 1, -30.0, 30.0, 0.0, 1.0, False, 0),
        ("chain:theorem1", "exp_of_poly", 1, -10.0, 10.0, 0.0, 1.0, False, 22),
        ("chain:theorem2", "exp_of_poly", 1, -10.0, 10.0, 0.0, 1.0, False, 10),
    ] if anchors else []
    for target, family, degree, lo, hi, a, b, phi_poly, job_seed in hunt:
        jobs.append(_search_job(target, family, degree, lo, hi, a, b, phi_poly,
                                job_seed, SEARCH_BUDGET))
    if anchors:
        jobs.append(_search_job("check:log_convex", "positive_poly", 2, 0.0, 2.0, 1.0, 2.0,
                                False, 42, 100))
    rng.shuffle(jobs)
    return jobs


# ----------------------------- cli --------------------------------------------

_CLI_FAST = ["--grid-x", str(HUNT_PLAN["x_points"]), "--grid-t", str(HUNT_PLAN["t_points"]),
             "--samples", str(HUNT_PLAN["random_count"])]


def cli_argv(spec: dict) -> list[str]:
    """``python -m hhv`` arguments for an in-process check, chain or search spec."""
    job = spec["job"]
    ends = ["--a", repr(spec["a"]), "--b", repr(spec["b"])]
    if job == "check":
        argv = ["check", "--class", spec["cls"].replace("_", "-"), "--f", spec["f"], *ends,
                "--seed", str(spec["seed"])]
        return argv + (["--phi", spec["phi"]] if spec["phi"] else [])
    if job == "chain":
        argv = ["chain", "--id", spec["chain"], "--f", spec["f"], *ends]
        if spec["g"] is not None and spec["chain"] == "theorem2":
            argv += ["--g", spec["g"]]
        if spec["phi"]:
            argv += ["--phi", spec["phi"]]
        return argv + (["--diagnostics"] if spec["diag"] else [])
    argv = ["search", "--target", spec["target"], "--f-family", spec["family"],
            "--f-degree", str(spec["degree"]), "--f-coeff-min", repr(spec["lo"]),
            "--f-coeff-max", repr(spec["hi"]), *ends, "--budget", str(spec["budget"]),
            "--seed", str(spec["seed"]), *_CLI_FAST]
    return argv + (["--phi-family", "poly"] if spec["phi_poly"] else [])


def cli(seed: int) -> list[list[str]]:
    """``python -m hhv`` argument lists for the cli layer: checks, chains and
    searches drawn from the seeded catalogs, mixed."""
    checks = [s for s in certify(seed, 0, False) if s.get("cls") in CHECK_CLASSES]
    jobs = [*checks[:3], *chains(seed, 0, False)[:2], *search(seed, 0, False)[:2]]
    random.Random(f"cli:{seed}").shuffle(jobs)
    return [cli_argv(s) for s in jobs]


BUILDERS = {"certify": certify, "chains": chains, "search": search}
WORKLOADS = tuple(BUILDERS)
