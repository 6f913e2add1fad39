import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcascade import (
    BimodalLoads,
    DeltaLoads,
    NonMonotoneError,
    ThresholdResult,
    UniformLoads,
    Verdict,
    coarse_scan,
    find_d_critical,
    meanfield,
    monte_carlo,
    run_recursion,
    sweep_bimodal_fixed_mean,
    sweep_dcrit_vs_a0,
    threshold,
)
from gridcascade.threshold import model_verdict


def test_unimodal_threshold_matches_reported_range():
    res = find_d_critical(DeltaLoads(0.8))
    assert 0.045 <= res.d_critical <= 0.052
    assert res.d_low < res.d_critical <= res.d_high
    assert res.d_high - res.d_low <= 1e-4


def _closed_form_d_critical(a0):
    """The exact unimodal threshold. Every alive node carries a0 plus one
    shared shift C, and the cascade stops at the first C with
    (1 + d) * exp(-(1 - a0 - C)/d) <= C; some C in [0, 1 - a0) has it
    exactly when d * (1 + ln(1 + 1/d)) <= 1 - a0. The left side increases
    in d: bisect it down to adjacent floats."""
    lo, hi = 0.0, 1.0 - a0
    mid = 0.5 * hi
    while lo < mid < hi:
        if mid * (1.0 + math.log1p(1.0 / mid)) < 1.0 - a0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return lo


@pytest.mark.parametrize("a0", [round(0.30 + 0.05 * k, 2) for k in range(14)])
def test_unimodal_threshold_matches_the_closed_form(a0):
    res = find_d_critical(DeltaLoads(a0))
    assert abs(res.d_critical - _closed_form_d_critical(a0)) <= res.resolution


@settings(max_examples=300, deadline=None)
@given(
    a0=st.floats(min_value=0.01, max_value=0.99),
    d_m=st.floats(min_value=1e-4, max_value=2.0),
    # else d_m is this far from the threshold, relative
    near=st.one_of(st.none(), st.floats(min_value=-1e-3, max_value=1e-3)),
    max_iter=st.sampled_from([3, 50, 10_000]),
    tol=st.sampled_from([1e-12, 1e-6]),
)
def test_one_mode_verdict_is_the_traced_run_where_that_resolves(a0, d_m, near, max_iter, tol):
    """A one-mode probe is decided in closed form, takes no stage budget,
    is never Undetermined, and agrees with every traced run that reaches a
    verdict within the budget it was given, except a survival at tol 1e-6
    (the xfail below): there only a traced outage is compared."""
    if near is not None:
        d_m = _closed_form_d_critical(a0) * (1.0 + near)
    verdict = model_verdict(DeltaLoads(a0), d_m)
    assert verdict in (Verdict.SURVIVES, Verdict.COMPLETE_OUTAGE)
    traced, _ = run_recursion(a0, d_m, max_iter=max_iter, tol=tol)
    if tol == 1e-12 or traced is Verdict.COMPLETE_OUTAGE:
        assert traced in (verdict, Verdict.UNDETERMINED)


# Just above the threshold, at d = d_critical*(1 + rel), a run's failing
# probability dips to about c*rel (c from 0.9 at a0 = 0.05 to 0.009 at
# 0.99) before it grows to an outage, over about 2.6/sqrt(rel) stages. A
# tol above that dip ends the run as a survival; at tol 1e-12, max_iter
# 10,000 runs out first.
@pytest.mark.xfail(strict=True, reason="the traced run's p < tol exit is no proof of "
                   "survival (ROADMAP item 12)")
@pytest.mark.parametrize("a0,rel", [(0.5, 1e-6), (0.99, 1e-4)])
def test_traced_one_mode_run_fails_just_above_the_threshold_at_a_loose_tol(a0, rel):
    d_m = _closed_form_d_critical(a0) * (1.0 + rel)
    assert run_recursion(a0, d_m, tol=1e-6)[0] is Verdict.COMPLETE_OUTAGE


@pytest.mark.parametrize("a0", [0.5, 0.99])
def test_one_mode_verdict_holds_at_extreme_disturbances(a0):
    # 1/d overflows at 5e-324, where log1p(1/d) would make it an outage
    assert math.log1p(1.0 / 5e-324) == math.inf
    for d in (5e-324, 1e-300, 1e-15):
        assert model_verdict(DeltaLoads(a0), d) is Verdict.SURVIVES
    for d in (1.0, 1e300):
        assert model_verdict(DeltaLoads(a0), d) is Verdict.COMPLETE_OUTAGE


@settings(max_examples=50, deadline=None)
@given(a0=st.floats(min_value=0.01, max_value=0.99),
       width=st.floats(min_value=1e-9, max_value=0.5))
def test_one_mode_coarse_scan_flips_once(a0, width):
    # the oracle and the library round the criterion differently, so the
    # grid skips the threshold itself
    d_c = _closed_form_d_critical(a0)
    grid = [d_c * (1.0 + width * k / 100) for k in range(-100, 101) if k]
    fails = [v is not Verdict.SURVIVES for _, v in coarse_scan(DeltaLoads(a0), grid)]
    assert fails == [False] * 100 + [True] * 100


def _modes(model):
    """``(a0, b0, pa)`` of either model: a one-mode one as two equal modes."""
    if isinstance(model, DeltaLoads):
        return model.a0, model.a0, 1.0
    return model.a0, model.b0, model.pa


def _two_mode_survives(a0, b0, pa, d):
    """The exact two-mode verdict. As in the unimodal case, the cascade
    stops at the first shift C with H(C) <= C, for some C in [0, 1 - a0).
    With both modes alive (C <= 1 - b0) that is (1 + d) F(C) <= C, where
    the failing mass is F(C) = F(0) exp(C/d); with the upper mode dead
    (C >= 1 - b0) it is pa (1 + d) F_a(C) + pb (b0 + d) <= pa C. On each
    piece, left side minus right is convex, least where the failing mass
    (F, or F_a) is d/(1 + d): test each piece at that point, clipped."""
    pb, knee = 1.0 - pa, d / (1.0 + d)
    f0 = pa * math.exp(-(1.0 - a0) / d) + pb * math.exp(-(1.0 - b0) / d)
    c = min(max(d * math.log(knee / f0), 0.0), 1.0 - b0)
    if (1.0 + d) * f0 * math.exp(c / d) <= c:
        return True
    c = max(1.0 - a0 + d * math.log(knee), 1.0 - b0)
    return pa * (1.0 + d) * math.exp(-(1.0 - a0 - c) / d) + pb * (b0 + d) <= pa * c


def _two_mode_d_critical(a0, b0, pa):
    """The largest surviving disturbance mean: the exact verdict is
    monotone in d, so bisect it down to adjacent floats."""
    lo, hi, mid = 0.0, 1.0, 0.5
    while lo < mid < hi:
        if _two_mode_survives(a0, b0, pa, mid):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return lo


@pytest.mark.parametrize("a0", [0.3, 0.6, 0.8, 0.95])
def test_two_mode_oracle_with_one_mode_is_the_closed_form(a0):
    assert _two_mode_d_critical(a0, a0, 1.0) == pytest.approx(_closed_form_d_critical(a0),
                                                              rel=1e-12)


# (mean, a0, b0) splits of the fixed-mean grid where the two-mode recursion
# misses the exact threshold by more than tol_d; ROADMAP item 1 rebuilds it
RECURSION_MISSES = {
    (0.6, 0.3, 0.91), (0.6, 0.35, 0.97), (0.6, 0.4, 0.97), (0.6, 0.45, 0.94),
    (0.6, 0.45, 0.97), (0.6, 0.5, 0.91), (0.6, 0.5, 0.94), (0.6, 0.5, 0.97),
    (0.6, 0.55, 0.88), (0.6, 0.55, 0.91), (0.6, 0.55, 0.94), (0.6, 0.55, 0.97),
    (0.7, 0.45, 0.94), (0.7, 0.6, 0.97), (0.7, 0.65, 0.94), (0.7, 0.65, 0.97),
    (0.8, 0.35, 0.94), (0.8, 0.4, 0.97), (0.8, 0.5, 0.97),
}
FIXED_MEAN_SPLITS = [
    pytest.param(mean, a0, b0, marks=[pytest.mark.xfail(
        strict=True, reason="two-mode recursion off the exact threshold (ROADMAP item 1)",
    )] if (mean, a0, b0) in RECURSION_MISSES else [])
    for mean in (0.6, 0.7, 0.8)
    for a0 in (round(0.30 + 0.05 * k, 2) for k in range(12))
    for b0 in (round(0.82 + 0.03 * k, 2) for k in range(6))
    if a0 < b0 and 0.0 < (b0 - mean) / (b0 - a0) < 1.0
]


@pytest.mark.parametrize("mean,a0,b0", FIXED_MEAN_SPLITS)
def test_two_mode_threshold_matches_the_exact_process(mean, a0, b0):
    pa = (b0 - mean) / (b0 - a0)
    res = find_d_critical(BimodalLoads(a0, b0, pa))
    assert abs(res.d_critical - _two_mode_d_critical(a0, b0, pa)) <= res.resolution


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("scale,fraction", [(0.85, 1.0), (1.15, 0.0)])
def test_two_mode_oracle_brackets_large_complete_graph_cascades(seed, scale, fraction):
    # the oracle's 0.1037 for (0.4, 0.9, 0.8), where the recursion gives
    # 0.0483: N = 2e5 complete-graph trials survive 15% below it, and fail
    # completely 15% above it
    d = scale * _two_mode_d_critical(0.4, 0.9, 0.8)
    stats = monte_carlo(200_000, 1.0, BimodalLoads(0.4, 0.9, 0.8), d, 3, seed)
    assert [o.survivor_fraction for o in stats.outcomes] == [fraction] * 3


# the simulator referees the search: 20,000-node complete-graph trials
# survive in full 10% below each model's d_critical and fail completely 10%
# above it; the recursion's search puts (0.4, 0.9, 0.8) at 0.0483 and
# (0.78, 0.98, 0.9) at 0.0068, where the exact thresholds are 0.1037 and
# 0.0226, so 10% above its result those trials survive
SEARCH_BELOW_THE_PROCESS = pytest.mark.xfail(
    strict=True, reason="two-mode recursion off the exact threshold (ROADMAP item 1)")


@pytest.mark.parametrize("model", [
    DeltaLoads(0.8),
    BimodalLoads(0.5, 0.9, 0.25),
    pytest.param(BimodalLoads(0.4, 0.9, 0.8), marks=SEARCH_BELOW_THE_PROCESS),
    pytest.param(BimodalLoads(0.78, 0.98, 0.9), marks=SEARCH_BELOW_THE_PROCESS),
], ids=repr)
def test_complete_graph_cascades_bracket_the_searched_threshold(model):
    d_c = find_d_critical(model).d_critical
    below, above = (monte_carlo(20_000, 1.0, model, scale * d_c, 100, 11).outcomes
                    for scale in (0.9, 1.1))
    assert sum(o.survivor_fraction == 1.0 for o in below) >= 95
    assert sum(o.survivor_fraction == 0.0 for o in above) >= 95


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
    model = BimodalLoads(0.5, 0.9, 0.25)
    assert not find_d_critical(model).undetermined_in_bracket
    # at a fine resolution a probe lands so near the threshold that the
    # 10,000 stages of the default budget cannot resolve its slow dynamics
    res = find_d_critical(model, tol_d=1e-8)
    assert res.undetermined_in_bracket
    assert model_verdict(model, res.d_high) is Verdict.UNDETERMINED
    # a one-mode search runs no stage, so it is never Undetermined
    assert not find_d_critical(DeltaLoads(0.8)).undetermined_in_bracket
    assert not find_d_critical(DeltaLoads(0.8), tol_d=1e-8).undetermined_in_bracket


def test_sweeps_carry_the_undetermined_flag():
    (row,) = sweep_bimodal_fixed_mean(0.8, [0.5], [0.9], tol_d=1e-8)
    assert row.undetermined_in_bracket
    assert not sweep_bimodal_fixed_mean(0.8, [0.5], [0.9])[0].undetermined_in_bracket
    # one-mode searches are never Undetermined: their sweep's rows carry no flag
    assert not hasattr(sweep_dcrit_vs_a0([0.8], tol_d=1e-8)[0], "undetermined_in_bracket")
    assert not sweep_bimodal_fixed_mean(0.8, [0.8], [0.8], tol_d=1e-8)[0].undetermined_in_bracket


def test_coarse_scan_single_flip():
    grid = [0.001 * i for i in range(1, 71)]
    out = coarse_scan(DeltaLoads(0.8), grid)
    fails = [v is not Verdict.SURVIVES for _, v in out]
    assert sum(1 for a, b in zip(fails, fails[1:]) if a != b) == 1


def stub_verdicts(monkeypatch, verdict_at):
    monkeypatch.setattr(threshold, "model_verdict", lambda model, d, **kwargs: verdict_at(d))


def test_search_without_a_failing_level_raises(monkeypatch):
    stub_verdicts(monkeypatch, lambda d: Verdict.SURVIVES)
    with pytest.raises(NonMonotoneError, match="below d_max=1.0"):
        find_d_critical(DeltaLoads(0.8))


@pytest.mark.parametrize("model", [UniformLoads(), None, "0.8"])
def test_search_rejects_an_unsupported_model_before_any_probe(monkeypatch, model):
    stub_verdicts(monkeypatch, lambda d: pytest.fail(f"probed {model!r} at {d}"))
    with pytest.raises(TypeError, match="DeltaLoads or a BimodalLoads"):
        find_d_critical(model)


def _modes_past_their_check():
    model = BimodalLoads(0.5, 0.9, 0.25)
    object.__setattr__(model, "pa", 1.5)  # a frozen model, changed past its constructor
    return model


@pytest.mark.parametrize("model,error,match", [
    (UniformLoads(), TypeError, "DeltaLoads or a BimodalLoads"),
    (None, TypeError, "DeltaLoads or a BimodalLoads"),
    ("x", TypeError, "DeltaLoads or a BimodalLoads"),  # used to raise AttributeError
    (_modes_past_their_check(), ValueError, "pa must be a number in"),
], ids=["uniform", "none", "str", "bad-pa"])
def test_scan_rejects_an_unsupported_model_before_any_probe(monkeypatch, model, error, match):
    stub_verdicts(monkeypatch, lambda d: pytest.fail(f"probed {model!r} at {d}"))
    with pytest.raises(error, match=match):
        coarse_scan(model, [0.1])
    with pytest.raises(error, match=match):
        find_d_critical(model)


def test_search_failing_at_every_level_reports_no_headroom(monkeypatch):
    stub_verdicts(monkeypatch, lambda d: Verdict.COMPLETE_OUTAGE)
    res = find_d_critical(DeltaLoads(0.8))
    assert (res.d_critical, res.d_low, res.d_high) == (0.0, 0.0, 1e-15)


def test_coarse_scan_rejects_two_flips(monkeypatch):
    stub_verdicts(monkeypatch, lambda d: (
        Verdict.COMPLETE_OUTAGE if 0.02 < d < 0.05 else Verdict.SURVIVES))
    with pytest.raises(NonMonotoneError, match="flipped 2 times"):
        coarse_scan(DeltaLoads(0.8), [0.01 * i for i in range(1, 8)])


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


# find_d_critical results recorded before the search kept a probe record
RECORDED = [
    (DeltaLoads(0.8), ThresholdResult(
        0.04928125, 0.04925, 0.0493125, 0.0001, False, 16)),
    (BimodalLoads(0.5, 0.9, 0.25), ThresholdResult(
        0.02196875, 0.0219375, 0.022, 0.0001, False, 14)),
    (BimodalLoads(0.4, 0.9, 0.8), ThresholdResult(
        0.04828125, 0.04825, 0.0483125, 0.0001, False, 16)),
]


@pytest.mark.parametrize("model,expected", RECORDED)
def test_each_level_is_probed_once(monkeypatch, model, expected):
    probed = []

    def counting(model, d, **kwargs):
        probed.append(d)
        return model_verdict(model, d, **kwargs)

    monkeypatch.setattr(threshold, "model_verdict", counting)
    res = find_d_critical(model)
    assert len(probed) == len(set(probed)) == res.evaluations
    assert res == expected


@pytest.mark.parametrize("tol_d,max_iter", [(1e-4, 10_000), (1e-18, 500)])
@pytest.mark.parametrize("model", [
    *(DeltaLoads(a0) for a0 in (0.3, 0.6, 0.8, 0.95)),
    BimodalLoads(0.5, 0.9, 0.25),
    BimodalLoads(0.4, 0.9, 0.8),
], ids=repr)
def test_bracket_endpoints_hold_on_a_fresh_evaluation(model, tol_d, max_iter):
    # the search never checks its endpoints again, so a fresh evaluation must
    # agree with the probes that set them; the verdict-only loop at a budget
    # of max_iter stages (a one-mode model as two equal modes) may leave an
    # endpoint Undetermined, but never turns it over
    res = find_d_critical(model, tol_d=tol_d)
    assert model_verdict(model, res.d_low) is Verdict.SURVIVES
    assert model_verdict(model, res.d_high) is not Verdict.SURVIVES
    modes = _modes(model)
    assert meanfield.bimodal_verdict(*modes, res.d_low, max_iter) is not Verdict.COMPLETE_OUTAGE
    assert meanfield.bimodal_verdict(*modes, res.d_high, max_iter) is not Verdict.SURVIVES
    if tol_d < 1e-17:
        assert math.nextafter(res.d_low, math.inf) >= res.d_high


def test_tolerance_below_float_spacing_stops_at_adjacent_floats():
    # the bisection used to spin forever once mid equalled an endpoint
    res = find_d_critical(DeltaLoads(0.8), tol_d=1e-18)
    assert math.nextafter(res.d_low, math.inf) == res.d_high
    assert 0.045 <= res.d_critical <= 0.052
    assert model_verdict(DeltaLoads(0.8), res.d_low) is Verdict.SURVIVES
    assert model_verdict(DeltaLoads(0.8), res.d_high) is not Verdict.SURVIVES


def test_sweeps_carry_the_evaluation_count():
    (row,) = sweep_dcrit_vs_a0([0.8])
    assert row.evaluations == find_d_critical(DeltaLoads(0.8)).evaluations > 0
    rows = sweep_bimodal_fixed_mean(0.8, [0.5, 0.85], [0.9])
    assert rows[0].evaluations == find_d_critical(BimodalLoads(0.5, 0.9, 0.25)).evaluations
    assert not rows[1].feasible and rows[1].evaluations == 0


# sha256 of the repr of 32 find_d_critical results on seeded random
# two-mode splits (pa 0, 1 or random; tol_d 1e-4 and 1e-8 in turn),
# recorded before the probes stopped checking their model; 12 of the
# searches met an Undetermined probe
SEARCH_GOLDEN = "afd1fa157adfd04e5fc7f55cf8e732f1be700f318fb094ff76af0bd4540868d2"


def test_two_mode_searches_match_golden_digest():
    rng = random.Random(20261020)
    digest = hashlib.sha256()
    for k in range(32):
        a0 = rng.uniform(0.01, 0.99)
        b0 = rng.uniform(a0, 0.99)
        pa = rng.choice((0.0, 1.0, rng.random()))
        res = find_d_critical(BimodalLoads(a0, b0, pa), tol_d=(1e-4, 1e-8)[k % 2])
        digest.update(repr(res).encode())
    assert digest.hexdigest() == SEARCH_GOLDEN


@pytest.mark.parametrize("model,checks", [
    (BimodalLoads(0.5, 0.9, 0.25), 1), (BimodalLoads(0.4, 0.9, 0.8), 1), (DeltaLoads(0.8), 0),
], ids=repr)
def test_a_search_checks_its_model_at_most_once(monkeypatch, model, checks):
    """The model is checked when it is built and once per search, never
    per probe."""
    calls = []
    real = meanfield.check_modes

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in (meanfield, threshold):
        monkeypatch.setattr(module, "check_modes", counting)
    assert find_d_critical(model).evaluations > 1
    assert len(calls) == checks


@pytest.mark.parametrize("model", [DeltaLoads(0.8), BimodalLoads(0.5, 0.9, 0.25)], ids=repr)
@pytest.mark.parametrize("d_m,max_iter,tol,message", [
    (0.05, 0, 1e-12, "max_iter"),
    (0.05, 1.5, 1e-12, "max_iter"),
    (0.05, True, 1e-12, "max_iter"),
    (0.05, 10_000, 0.0, "tol"),
    (0.05, 10_000, math.nan, "tol"),
    (0.05, 10_000, "1e-12", "tol"),
    (math.nan, 0, 0.0, "disturbance mean"),  # d_m first
    (0.05, 0, 0.0, "max_iter"),              # then max_iter
    pytest.param(10**400, 10_000, 1e-12, "disturbance mean",  # used to overflow
                 id="10**400-10000-1e-12-disturbance mean"),
])
def test_a_probe_checks_d_m_then_the_budget_for_either_model(model, d_m, max_iter, tol,
                                                            message):
    """The search's probe, ``model_verdict``, takes no budget and checks d_m
    alone; the verdict-only loop of a two-mode probe, given a budget (a
    one-mode model as two equal modes), checks d_m, then max_iter, then
    tol."""
    with pytest.raises(ValueError, match=f"^{message} "):
        meanfield.bimodal_verdict(*_modes(model), d_m, max_iter, tol)
    if message == "disturbance mean":
        with pytest.raises(ValueError, match=f"^{message} "):
            model_verdict(model, d_m)


@pytest.mark.parametrize("kwargs,message", [
    ({"mean": math.nan}, "mean must be a finite number, got nan"),
    ({"mean": math.inf}, "mean must be a finite number, got inf"),
    ({"mean": True}, "mean must be a finite number, got True"),
    ({"a0_grid": [0.5, math.nan]}, "a0 must be a number in (0, 1), got nan"),
    ({"b0_grid": [math.inf]}, "b0 must be a number in (0, 1), got inf"),
    ({"a0_grid": [1.5]}, "a0 must be a number in (0, 1), got 1.5"),
    ({"a0_grid": ["0.5"]}, "a0 must be a number in (0, 1), got '0.5'"),
    ({"a0_grid": [None]}, "a0 must be a number in (0, 1), got None"),
    ({"tol_d": 0.0}, "tol_d must be a finite number > 0, got 0.0"),
])
def test_fixed_mean_sweep_rejects_bad_input_before_any_search(monkeypatch, kwargs, message):
    """Each of these used to give infeasible marker rows (or a TypeError);
    the default grid has no feasible cell, so no search would run."""
    monkeypatch.setattr(threshold, "find_d_critical", lambda *a, **k: pytest.fail("searched"))
    args = {"mean": 0.8, "a0_grid": [0.85], "b0_grid": [0.9], "tol_d": 1e-4, **kwargs}
    with pytest.raises(ValueError) as err:
        sweep_bimodal_fixed_mean(**args)
    assert str(err.value) == message


@pytest.mark.parametrize("a0_grid,bad", [
    ([0.5, 0.6, math.nan], "nan"), ([0.5, 1.0], "1.0"), ([0.5, "0.6"], "'0.6'")])
def test_unimodal_sweep_rejects_bad_input_before_any_search(monkeypatch, a0_grid, bad):
    """A bad level used to be found only as its model was built, after the
    searches of the levels before it."""
    monkeypatch.setattr(threshold, "find_d_critical", lambda *a, **k: pytest.fail("searched"))
    with pytest.raises(ValueError) as err:
        sweep_dcrit_vs_a0(a0_grid)
    assert str(err.value) == f"a0 must be a number in (0, 1), got {bad}"


@pytest.mark.parametrize("grid", [tuple, iter], ids=["tuple", "iterator"])
def test_sweeps_take_a_grid_of_any_iterable(grid):
    """A grid used to be read twice, once to check it and once to search it,
    so an iterator was used up by the check and the sweep returned no row."""
    assert sweep_dcrit_vs_a0(grid([0.5, 0.8])) == sweep_dcrit_vs_a0([0.5, 0.8])
    rows = sweep_bimodal_fixed_mean(0.8, [0.6, 0.7], [0.85, 0.9])
    assert len(rows) == 4 and all(r.feasible for r in rows)
    assert sweep_bimodal_fixed_mean(0.8, grid([0.6, 0.7]), [0.85, 0.9]) == rows
    assert sweep_bimodal_fixed_mean(0.8, [0.6, 0.7], grid([0.85, 0.9])) == rows


def test_sweeps_check_the_resolution_up_front():
    with pytest.raises(ValueError, match="^tol_d must be a finite number > 0, got 0.0$"):
        sweep_dcrit_vs_a0([], tol_d=0.0)
    # a finite mean outside (0, 1) is no input error: no split can have it
    assert [r.feasible for r in sweep_bimodal_fixed_mean(1.5, [0.5], [0.5, 0.9])] == [False] * 2
