import math

import pytest

from gridcascade import Branch, Verdict, run_bimodal, run_recursion


def stage_one(*args):
    return run_bimodal(*args)[1][0]


def test_initializer_value():
    state = stage_one(0.5, 0.9, 0.25, 0.05)
    p0 = 0.25 * math.exp(-10) + 0.75 * math.exp(-2)
    assert p0 == pytest.approx(0.101513, abs=1e-6)
    assert state.D_n == pytest.approx(p0 / (1 - p0) * 1.05)
    assert state.a_n == 0.5
    assert state.b_n == 0.9


def test_initializer_single_mode_weight_depends_only_on_that_mode():
    only_b = stage_one(0.5, 0.9, 0.0, 0.05)
    other_a = stage_one(0.3, 0.9, 0.0, 0.05)
    assert only_b.p_n == other_a.p_n
    assert only_b.D_n == other_a.D_n


def test_equal_modes_match_unimodal_initializer():
    bi = stage_one(0.8, 0.8, 1.0, 0.05)
    uni = run_recursion(0.8, 0.05)[1][0]
    assert bi.p_n == pytest.approx(uni.p_n, rel=1e-12)
    assert bi.D_n == pytest.approx(uni.D_n, rel=1e-12)


@pytest.mark.parametrize(
    "args",
    [(0.9, 0.5, 0.5, 0.05), (0.0, 0.5, 0.5, 0.05), (0.5, 0.9, -0.1, 0.05),
     (0.5, 0.9, 0.5, 0.0)],
)
def test_initializer_domain_errors(args):
    with pytest.raises(ValueError):
        run_bimodal(*args)


@pytest.mark.parametrize("d_m", [0.01, 0.03, 0.045, 0.05, 0.07])
def test_degenerate_trajectory_matches_unimodal(d_m):
    uni_verdict, uni_trace = run_recursion(0.8, d_m)
    bi_verdict, bi_trace = run_bimodal(0.8, 0.8, 0.5, d_m)
    assert bi_verdict is uni_verdict
    for u, b in zip(uni_trace, bi_trace):
        assert b.a_n == pytest.approx(u.a_n, rel=1e-9)
        assert b.p_n == pytest.approx(u.p_n, rel=1e-9, abs=1e-300)
        assert b.D_n == pytest.approx(u.D_n, rel=1e-9, abs=1e-300)


def test_degenerate_verdicts_any_weight():
    for pa in (0.0, 0.3, 1.0):
        verdict, _ = run_bimodal(0.8, 0.8, pa, 0.03)
        assert verdict is Verdict.SURVIVES
        verdict, _ = run_bimodal(0.8, 0.8, pa, 0.07)
        assert verdict is Verdict.COMPLETE_OUTAGE


def test_subcritical_survives():
    verdict, _ = run_bimodal(0.5, 0.9, 0.25, 0.015)
    assert verdict is Verdict.SURVIVES


def test_supercritical_blacks_out():
    verdict, _ = run_bimodal(0.5, 0.9, 0.25, 0.03)
    assert verdict is Verdict.COMPLETE_OUTAGE


def test_upper_mode_death_is_absorbing():
    # a supercritical run passes through the upper-mode-death branch once,
    # after which b stays clamped at 1
    _, trace = run_bimodal(0.5, 0.9, 0.25, 0.03)
    branches = [s.branch for s in trace]
    assert branches.count(Branch.UPPER_DIES) <= 1
    if Branch.UPPER_DIES in branches:
        at = branches.index(Branch.UPPER_DIES)
        assert all(s.b_n == 1.0 for s in trace[at:])
        assert all(
            s.branch in (Branch.LOWER_ONLY,) for s in trace[at + 1:]
        ) or trace[-1].verdict is not Verdict.RUNNING


def test_upper_mode_death_records_failing_mass():
    _, trace = run_bimodal(0.5, 0.9, 0.25, 0.03)
    died = [s for s in trace if s.branch is Branch.UPPER_DIES]
    for s in died:
        assert 0.0 < s.p_tilde <= 1.0


def test_mode_floors_stay_ordered():
    for d_m in (0.015, 0.03):
        _, trace = run_bimodal(0.5, 0.9, 0.25, d_m)
        for s in trace:
            assert s.a_n <= s.b_n <= 1.0 + 1e-12


def test_nan_disturbance_is_rejected_not_an_outage():
    # used to return COMPLETE_OUTAGE
    with pytest.raises(ValueError):
        run_bimodal(0.5, 0.9, 0.25, math.nan)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", range(4))
def test_nonfinite_inputs_are_rejected(bad, slot):
    args = [0.5, 0.9, 0.25, 0.05]
    args[slot] = bad
    with pytest.raises(ValueError):
        run_bimodal(*args)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0])
def test_bad_tolerance_is_rejected(tol):
    with pytest.raises(ValueError):
        run_bimodal(0.5, 0.9, 0.25, 0.015, tol=tol)
