import math

import pytest

from gridcascade import (
    BimodalLoads,
    DeltaLoads,
    Verdict,
    coarse_scan,
    find_d_critical,
    sweep_bimodal_fixed_mean,
    sweep_dcrit_vs_a0,
)
from gridcascade.threshold import model_verdict


def test_unimodal_threshold_matches_reported_range():
    res = find_d_critical(DeltaLoads(0.8))
    assert 0.045 <= res.d_critical <= 0.052
    assert res.d_low < res.d_critical <= res.d_high
    assert res.d_high - res.d_low <= 1e-4


def test_bimodal_threshold_matches_reported_range():
    res = find_d_critical(BimodalLoads(0.5, 0.9, 0.25))
    assert 0.015 <= res.d_critical <= 0.025


def test_bracket_endpoints_verified():
    res = find_d_critical(DeltaLoads(0.8))
    assert model_verdict(DeltaLoads(0.8), res.d_low) is Verdict.SURVIVES
    assert model_verdict(DeltaLoads(0.8), res.d_high) is Verdict.COMPLETE_OUTAGE


def test_near_unit_load_threshold_collapses():
    res = find_d_critical(DeltaLoads(0.999))
    assert res.d_critical < 0.002


def test_threshold_decreases_with_load():
    lo = find_d_critical(DeltaLoads(0.5)).d_critical
    hi = find_d_critical(DeltaLoads(0.8)).d_critical
    assert lo > hi


def test_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        find_d_critical(DeltaLoads(0.8), tol_d=0.0)


@pytest.mark.parametrize("tol_d", [math.nan, math.inf])
def test_rejects_nonfinite_tolerance(tol_d):
    # tol_d=nan used to return the unrefined scan bracket, d_critical=0.048
    with pytest.raises(ValueError):
        find_d_critical(DeltaLoads(0.8), tol_d=tol_d)


def test_undetermined_probe_is_reported():
    assert not find_d_critical(DeltaLoads(0.8)).undetermined_in_bracket
    # 20 stages cannot resolve the slow dynamics near the threshold
    res = find_d_critical(DeltaLoads(0.8), max_iter=20)
    assert res.undetermined_in_bracket
    assert model_verdict(DeltaLoads(0.8), res.d_high, max_iter=20) is not Verdict.SURVIVES


def test_sweeps_carry_the_undetermined_flag():
    (row,) = sweep_dcrit_vs_a0([0.8], tol_d=1e-8)
    assert row.undetermined_in_bracket
    (row,) = sweep_bimodal_fixed_mean(0.8, [0.5], [0.9], tol_d=1e-8)
    assert row.undetermined_in_bracket
    assert not sweep_dcrit_vs_a0([0.8])[0].undetermined_in_bracket


def test_coarse_scan_single_flip():
    grid = [0.001 * i for i in range(1, 71)]
    out = coarse_scan(DeltaLoads(0.8), grid)
    fails = [v is not Verdict.SURVIVES for _, v in out]
    assert sum(1 for a, b in zip(fails, fails[1:]) if a != b) == 1


def test_sweep_singleton_matches_direct_search():
    rows = sweep_dcrit_vs_a0([0.8])
    assert len(rows) == 1
    direct = find_d_critical(DeltaLoads(0.8))
    assert rows[0].d_critical == pytest.approx(direct.d_critical, abs=1e-4)
    assert rows[0].headroom == pytest.approx(0.2)


def test_sweep_headroom_dominates_threshold():
    row = sweep_dcrit_vs_a0([0.8])[0]
    assert row.headroom / row.d_critical > 4


def test_sweep_is_monotone_over_grid():
    rows = sweep_dcrit_vs_a0([0.5, 0.8])
    assert rows[0].d_critical > rows[1].d_critical


def test_fixed_mean_known_point():
    rows = sweep_bimodal_fixed_mean(0.8, [0.5], [0.9])
    (row,) = rows
    assert row.feasible
    assert row.pa == pytest.approx(0.25)
    assert row.d_critical == pytest.approx(0.02, abs=0.005)


def test_fixed_mean_diagonal_uses_unimodal_model():
    rows = sweep_bimodal_fixed_mean(0.8, [0.8], [0.8])
    (row,) = rows
    assert row.feasible
    assert 0.045 <= row.d_critical <= 0.052


def test_fixed_mean_infeasible_pairs_are_marked():
    # both modes above the mean: no weight can satisfy the constraint
    rows = sweep_bimodal_fixed_mean(0.8, [0.85], [0.9])
    (row,) = rows
    assert not row.feasible
    assert math.isnan(row.d_critical)


def test_fixed_mean_descending_pairs_are_marked_not_raised():
    # (0.825, 0.5) would force pa in (0, 1), but a0 names the lighter mode
    rows = sweep_bimodal_fixed_mean(0.8, [0.5, 0.825], [0.5, 0.9])
    assert [(r.a0, r.b0, r.feasible) for r in rows] == [
        (0.5, 0.5, False), (0.5, 0.9, True), (0.825, 0.5, False), (0.825, 0.9, False),
    ]
    assert math.isnan(rows[2].pa) and math.isnan(rows[2].d_critical)
    assert rows[1] == sweep_bimodal_fixed_mean(0.8, [0.5], [0.9])[0]


def test_fixed_mean_continuity_near_diagonal():
    near = sweep_bimodal_fixed_mean(0.8, [0.79], [0.81])[0]
    diag = find_d_critical(DeltaLoads(0.8)).d_critical
    assert near.feasible
    assert abs(near.d_critical - diag) / diag < 0.2
