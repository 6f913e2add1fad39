import math

import pytest

from gridcascade import Verdict, run_recursion
from gridcascade.meanfield import mean_failed_load


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


def test_zero_stage_budget_is_rejected():
    with pytest.raises(ValueError, match="max_iter"):
        run_recursion(0.8, 0.03, max_iter=0)


def test_nan_disturbance_is_rejected_not_undetermined():
    # used to run all 10,000 stages and return Undetermined
    with pytest.raises(ValueError):
        run_recursion(0.8, math.nan)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_inputs_are_rejected(bad):
    with pytest.raises(ValueError):
        run_recursion(bad, 0.05)
    with pytest.raises(ValueError):
        run_recursion(0.8, bad)
    with pytest.raises(ValueError):
        run_recursion(0.8, 0.03, tol=bad)
