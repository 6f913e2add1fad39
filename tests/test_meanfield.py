import math

import numpy as np
import pytest

from gridcascade import (
    BimodalLoads,
    DeltaLoads,
    UniformLoads,
    Verdict,
    apply_disturbance,
    find_d_critical,
    monte_carlo,
    run_bimodal,
    run_recursion,
)
from gridcascade.meanfield import bimodal_verdict, mean_failed_load
from gridcascade.threshold import model_verdict


def stage_one(a0, d_m):
    return run_recursion(a0, d_m)[1][0]


def test_initializer_values():
    state = stage_one(0.8, 0.1)
    p0 = math.exp(-2)
    D1 = p0 / (1 - p0) * 1.1
    assert D1 == pytest.approx(0.17216940702463226)
    assert state.a_n == 0.8
    assert state.D_n == pytest.approx(D1)
    q = math.exp(-2)
    assert state.p_n == pytest.approx(q / (1 - q) * math.expm1(D1 / 0.1))


def test_initializer_low_load():
    state = stage_one(0.5, 0.1)
    assert math.exp(-5) == pytest.approx(0.006737946999085467)
    assert state.D_n == pytest.approx(
        math.exp(-5) / (1 - math.exp(-5)) * 1.1
    )


def test_initializer_vanishing_disturbance():
    state = stage_one(0.8, 1e-4)
    assert state.D_n < 1e-100
    assert state.p_n < 1e-100


@pytest.mark.parametrize("a0,d_m", [(0.0, 0.1), (1.0, 0.1), (0.5, 0.0), (0.5, -1)])
def test_initializer_domain_errors(a0, d_m):
    with pytest.raises(ValueError):
        run_recursion(a0, d_m)


def test_mean_failed_load_limit_and_bounds():
    # D -> 0 limit of 1 + d_m - D/(e^(D/d_m) - 1) is 1
    assert mean_failed_load(0.0, 0.1) == 1.0
    assert mean_failed_load(1e-14, 0.1) == pytest.approx(1.0, abs=1e-9)
    for D in (0.01, 0.1, 0.5, 2.0):
        mu = mean_failed_load(D, 0.1)
        assert 1.0 < mu <= 1.1 + 1e-12
    # D/d_m underflows to 0 or overflows to inf: the two limits, 1 and 1 + d_m
    assert mean_failed_load(5e-324, 10.0) == 1.0
    assert mean_failed_load(1e300, 1e-10) == 1.0 + 1e-10


def test_mean_failed_load_at_an_infinite_and_at_an_overflowing_ratio():
    # D/d_m rounds to inf, and expm1(inf) is inf: the isinf branch gives 1 + d_m
    assert 0.5 / 1e-309 == math.inf
    assert mean_failed_load(0.5, 1e-309) == 1.0 + 1e-309
    # a finite D/d_m past log(DBL_MAX) = 709.78... raises from math.expm1
    assert mean_failed_load(709.78, 1.0) == pytest.approx(2.0)
    for D, d_m in ((709.79, 1.0), (1.0, 0.001), (1e300, 1e-8)):
        assert math.isfinite(D / d_m)
        with pytest.raises(OverflowError):
            mean_failed_load(D, d_m)


def test_subcritical_failure_probabilities_decrease():
    _, trace = run_recursion(0.8, 0.03)
    assert trace[0].p_n == pytest.approx(5.70e-5, rel=0.05)
    p = [s.p_n for s in trace]
    assert len(p) >= 6  # stage 1 and at least five steps
    assert all(b < a for a, b in zip(p, p[1:]))


def test_supercritical_run_blacks_out():
    verdict, trace = run_recursion(0.8, 0.07)
    assert verdict is Verdict.COMPLETE_OUTAGE


def test_subcritical_run_survives_below_capacity():
    verdict, trace = run_recursion(0.8, 0.03)
    assert verdict is Verdict.SURVIVES
    assert trace[-1].a_n < 1.0
    assert trace[-1].p_n < 1e-12


def test_vanishing_disturbance_survives_at_initial_floor():
    verdict, trace = run_recursion(0.8, 1e-4)
    assert verdict is Verdict.SURVIVES
    assert trace[-1].a_n == pytest.approx(0.8, abs=1e-6)


def test_floor_is_nondecreasing():
    for d_m in (0.03, 0.05, 0.07):
        _, trace = run_recursion(0.8, d_m)
        floors = [s.a_n for s in trace]
        assert all(b >= a for a, b in zip(floors, floors[1:]))


def test_trace_is_reproducible():
    v1, t1 = run_recursion(0.8, 0.045)
    v2, t2 = run_recursion(0.8, 0.045)
    assert v1 is v2
    assert [(s.a_n, s.p_n, s.D_n) for s in t1] == [(s.a_n, s.p_n, s.D_n) for s in t2]


def test_max_iter_exhaustion_is_undetermined():
    verdict, trace = run_recursion(0.8, 0.03, max_iter=2, tol=1e-300)
    assert verdict is Verdict.UNDETERMINED
    # a numpy count is a stage budget too, as it is a trial count
    assert run_recursion(0.8, 0.03, max_iter=np.int64(2), tol=1e-300) == (verdict, trace)
    assert (repr(run_bimodal(0.5, 0.9, 0.25, 0.022, max_iter=np.int64(3)))
            == repr(run_bimodal(0.5, 0.9, 0.25, 0.022, max_iter=3)))
    assert (find_d_critical(DeltaLoads(0.8), max_iter=np.int64(50))
            == find_d_critical(DeltaLoads(0.8), max_iter=50))


@pytest.mark.parametrize("max_iter", [0, 1.5, True, np.int64(0)])
def test_zero_stage_budget_is_rejected(max_iter):
    # 1.5 used to fail in range() with a TypeError naming neither max_iter
    # nor the function, and True to run one stage
    for run in (lambda: run_recursion(0.8, 0.03, max_iter=max_iter),
                lambda: run_bimodal(0.5, 0.9, 0.25, 0.03, max_iter=max_iter),
                lambda: find_d_critical(DeltaLoads(0.8), max_iter=max_iter)):
        with pytest.raises(ValueError, match="max_iter"):
            run()


def test_nan_disturbance_is_rejected_not_undetermined():
    # used to run all 10,000 stages and return Undetermined
    with pytest.raises(ValueError):
        run_recursion(0.8, math.nan)


# 10**400 holds no float: run_recursion(0.8, 10**400) raised OverflowError
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 pytest.param(10**400, id="10**400")])
def test_nonfinite_inputs_are_rejected(bad):
    with pytest.raises(ValueError):
        run_recursion(bad, 0.05)
    with pytest.raises(ValueError):
        run_recursion(0.8, bad)
    with pytest.raises(ValueError):
        run_recursion(0.8, 0.03, tol=bad)


def _message(f, *args) -> str:
    with pytest.raises(ValueError) as err:
        f(*args)
    return str(err.value)


def _shocked_spec(spec, d_m, *fields):
    apply_disturbance(spec(*fields).sample(3, np.random.default_rng(0)), d_m,
                      np.random.default_rng(1))


# (a0, d_m) with at least one input outside the one-mode model; where both
# are, the model's rule is the one reported
ONE_MODE_BAD = [
    (0.0, 0.05), (1.0, 0.05), (-0.5, 0.05), (math.nan, 0.05), (math.inf, 0.05),
    (-math.inf, 0.05), (0.8, 0.0), (0.8, -1.0), (0.8, math.nan), (0.8, math.inf),
    (0.8, -math.inf), (math.nan, math.nan), (1.5, 0.0),
]
# (a0, b0, pa, d_m), likewise for the two-mode model
TWO_MODE_BAD = [
    (0.0, 0.9, 0.5, 0.05), (math.nan, 0.9, 0.5, 0.05), (-math.inf, 0.9, 0.5, 0.05),
    (0.5, 1.0, 0.5, 0.05), (0.5, math.nan, 0.5, 0.05), (0.5, math.inf, 0.5, 0.05),
    (0.9, 0.5, 0.5, 0.05), (0.5, 0.9, -0.1, 0.05), (0.5, 0.9, 1.5, 0.05),
    (0.5, 0.9, math.nan, 0.05), (0.5, 0.9, math.inf, 0.05), (0.5, 0.9, 0.25, 0.0),
    (0.5, 0.9, 0.25, math.nan), (0.5, 0.9, 0.25, -math.inf), (0.9, 0.5, math.nan, math.nan),
]


@pytest.mark.parametrize("a0,d_m", ONE_MODE_BAD)
def test_one_mode_rules_are_one_set_with_one_message(a0, d_m):
    messages = {
        _message(_shocked_spec, DeltaLoads, d_m, a0),
        _message(run_recursion, a0, d_m),
        _message(lambda: model_verdict(DeltaLoads(a0), d_m)),
        _message(run_bimodal, a0, a0, 1.0, d_m),
        _message(bimodal_verdict, a0, a0, 1.0, d_m),
    }
    assert len(messages) == 1, messages


@pytest.mark.parametrize("a0,b0,pa,d_m", TWO_MODE_BAD)
def test_two_mode_rules_are_one_set_with_one_message(a0, b0, pa, d_m):
    messages = {
        _message(_shocked_spec, BimodalLoads, d_m, a0, b0, pa),
        _message(run_bimodal, a0, b0, pa, d_m),
        _message(bimodal_verdict, a0, b0, pa, d_m),
    }
    assert len(messages) == 1, messages


# each real-number argument of the library, at the entry point that checks
# it, with good values for the rest
REAL_ARGS = {
    "a0": lambda x: BimodalLoads(x, 0.9, 0.25),
    "b0": lambda x: BimodalLoads(0.5, x, 0.25),
    "pa": lambda x: BimodalLoads(0.5, 0.9, x),
    "d_m": lambda x: monte_carlo(5, 0.5, UniformLoads(), x, 2, 0),
    "tol": lambda x: find_d_critical(BimodalLoads(0.5, 0.9, 0.25), tol=x),
    "tol_d": lambda x: find_d_critical(DeltaLoads(0.8), tol_d=x),
}


@pytest.mark.parametrize("arg,value", [
    *((arg, value) for arg in REAL_ARGS for value in (True, "0.1", None)),
    *(pytest.param(arg, 10**400, id=f"{arg}-10**400") for arg in REAL_ARGS),
    ("every", "np.float64 or int"),
])
def test_a_real_argument_must_be_a_real_number(arg, value):
    """A bool, a string, None or an integer that no float holds raises
    ValueError wherever a real number enters; a numpy float or an int is a
    real number."""
    if arg in REAL_ARGS:
        with pytest.raises(ValueError, match=f"^{arg if arg != 'd_m' else 'disturbance mean'} "):
            REAL_ARGS[arg](value)
        return
    f = np.float64
    assert BimodalLoads(f(0.5), f(0.9), 1) == BimodalLoads(0.5, 0.9, 1.0)
    assert REAL_ARGS["d_m"](1) == REAL_ARGS["d_m"](f(1.0)) == REAL_ARGS["d_m"](1.0)
    assert REAL_ARGS["tol"](f(1e-12)) == REAL_ARGS["tol"](1e-12)
    assert REAL_ARGS["tol_d"](1) == REAL_ARGS["tol_d"](f(1.0)) == REAL_ARGS["tol_d"](1.0)
    assert find_d_critical(BimodalLoads(f(0.5), 0.9, f(0.25))) == REAL_ARGS["tol"](1e-12)


# a surviving, a failing, an outage-at-stage-0 (p0 rounds to 1) and an
# overflowing-stage-1 start
@pytest.mark.parametrize("a0,d_m", [(0.8, 0.045), (0.8, 0.07), (0.3, 1e308), (0.8, 1e3)])
def test_two_mode_run_with_one_mode_starts_as_the_one_mode_run(a0, d_m):
    one = run_recursion(a0, d_m)[1][0]
    two = run_bimodal(a0, a0, 1.0, d_m)[1][0]
    fields = ("n", "a_n", "p_n", "D_n", "mu_prev")
    assert ([float(getattr(two, f)).hex() for f in fields]
            == [float(getattr(one, f)).hex() for f in fields])


def _trace_z_scores(model, d_m, seed, n=10**6):
    """How far one n-node complete-graph cascade's stage failures are from
    the recursion's trace, in standard deviations: stage 0 against the
    initial failing mass, stage k >= 1 as failures[k]/alive_k against p_k,
    for the stages the trace is still running with n*p_k >= 100.

    Each stage's count is Poisson about its mean, and its noise carries into
    every later stage and grows there above the threshold, so the band is
    not the stage's own Poisson noise alone. To first order, with r_k the
    relative error of stage k's count and x = D_k/d_m, D_k inherits r_{k-1}
    and every earlier shift moves the floors:

        r_k = eps_k + x/(1 - exp(-x)) * r_{k-1} + s_{k-1},
        s_k = s_{k-1} + x * r_{k-1},

    eps_k being stage k's own noise, of variance 1/mean_k. Both modes take
    the same shift, so this holds for two modes until the upper one dies."""
    if isinstance(model, DeltaLoads):
        a0, b0, pa = model.a0, model.a0, 1.0
        verdict, trace = run_recursion(a0, d_m)
    else:
        a0, b0, pa = model.a0, model.b0, model.pa
        verdict, trace = run_bimodal(a0, b0, pa, d_m)
    outcome = monte_carlo(n, 1.0, model, d_m, 1, seed).outcomes[0]
    failures = outcome.failures_per_stage + (0,) * len(trace)
    means = [n * (pa * math.exp(-(1.0 - a0) / d_m) + (1.0 - pa) * math.exp(-(1.0 - b0) / d_m))]
    r, s = np.ones(1), np.zeros(1)  # coefficients of each stage's eps
    zs = [(failures[0] - means[0]) / math.sqrt(means[0])]
    alive = n - failures[0]
    for k, state in enumerate(trace, start=1):
        if state.verdict is not Verdict.RUNNING or n * state.p_n < 100:
            break
        x = state.D_n / d_m
        means.append(alive * state.p_n)
        r, s = np.append(x / -math.expm1(-x) * r + s, 1.0), np.append(s + x * r, 0.0)
        sigma = math.sqrt(np.sum(r * r / np.array(means)))
        zs.append((failures[k] / means[-1] - 1.0) / sigma)
        alive -= failures[k]
    return verdict, outcome.survivor_fraction, zs


# each model on both sides of its threshold (0.0493 and 0.0220); a complete
# graph either loses no load or all of it
@pytest.mark.parametrize("model,d_m", [
    (DeltaLoads(0.8), 0.045),
    (DeltaLoads(0.8), 0.054),
    (BimodalLoads(0.5, 0.9, 0.25), 0.018),
    (BimodalLoads(0.5, 0.9, 0.25), 0.024),
    pytest.param(BimodalLoads(0.4, 0.9, 0.8), 0.06, marks=pytest.mark.xfail(
        strict=True, reason="the recursion lets the upper mode fail more than all "
        "of itself and calls an outage the process survives (ROADMAP item 2)")),
])
def test_trace_follows_a_large_complete_graph_cascade_stage_by_stage(model, d_m):
    verdict, f, zs = _trace_z_scores(model, d_m, seed=5)
    assert len(zs) >= 3
    assert max(map(abs, zs)) <= 5.0, zs
    assert f == (1.0 if verdict is Verdict.SURVIVES else 0.0)
