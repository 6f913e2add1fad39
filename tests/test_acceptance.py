"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line (visible with ``pytest -s`` or
``-rP``) including the measured runtime where the criterion carries a
budget.
"""

import math
import time

import numpy as np
import pytest

from gridcascade import (
    BimodalLoads,
    DeltaLoads,
    UniformLoads,
    Verdict,
    apply_disturbance,
    find_d_critical,
    generate_er_graph,
    init_loads,
    monte_carlo,
    run_recursion,
    sweep_bimodal_fixed_mean,
)
from gridcascade import cascade


def report(num, text, elapsed=None):
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"\nACCEPTANCE {num}: PASS — {text}{suffix}")


def test_criterion_1_unimodal_threshold_scan():
    t0 = time.perf_counter()
    grid = [round(0.001 * i, 3) for i in range(1, 71)]
    verdicts = [run_recursion(0.8, d)[0] for d in grid]
    fails = [v is not Verdict.SURVIVES for v in verdicts]
    flips = [i for i in range(len(fails) - 1) if fails[i] != fails[i + 1]]
    elapsed = time.perf_counter() - t0
    assert len(flips) == 1
    boundary = grid[flips[0] + 1]
    assert 0.045 <= boundary <= 0.052
    assert elapsed < 1.0
    report(1, f"unimodal scan flips once, boundary {boundary:.3f} in [0.045, 0.052]",
           elapsed)


def test_criterion_2_bimodal_threshold():
    t0 = time.perf_counter()
    res = find_d_critical(BimodalLoads(0.5, 0.9, 0.25))
    elapsed = time.perf_counter() - t0
    assert 0.015 <= res.d_critical <= 0.025
    assert elapsed < 1.0
    report(2, f"bimodal d_critical {res.d_critical:.4f} in [0.015, 0.025]", elapsed)


def test_criterion_3_equal_load_optimality():
    t0 = time.perf_counter()
    a0_grid = [0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8]
    b0_grid = [0.8, 0.83, 0.86, 0.89, 0.92, 0.95]
    rows = sweep_bimodal_fixed_mean(0.8, a0_grid, b0_grid, tol_d=1e-4)
    feasible = [r for r in rows if r.feasible]
    elapsed = time.perf_counter() - t0
    assert len(feasible) >= 20
    diag = [r for r in feasible if r.a0 == r.b0 == 0.8]
    off = [r for r in feasible if not (r.a0 == r.b0 == 0.8)]
    assert len(diag) == 1 and off
    best_off = max(r.d_critical for r in off)
    assert diag[0].d_critical > best_off
    assert elapsed < 30.0
    report(3, f"equal-load cell {diag[0].d_critical:.4f} beats best off-diagonal "
              f"{best_off:.4f} over {len(feasible)} feasible points", elapsed)


def test_criterion_4_redistribution_limit():
    # the recursion's first shift D_1 is the large-N limit of the load that
    # fails at stage 0, shared over the survivors
    t0 = time.perf_counter()
    n = 100_000
    predicted = run_recursion(0.8, 0.1)[1][0].D_n
    assert predicted == pytest.approx(math.exp(-2) / (1 - math.exp(-2)) * 1.1)
    for seed in (101, 202, 303):
        rng = np.random.default_rng(seed)
        loads = apply_disturbance(init_loads(n, DeltaLoads(0.8), rng), 0.1, rng)
        failed = loads >= 1.0
        empirical = loads[failed].sum() / (n - failed.sum())
        assert abs(empirical - predicted) / predicted < 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(4, f"empirical per-survivor load within 2% of {predicted:.5f} "
              f"for 3/3 seeds", elapsed)


def test_criterion_5_meanfield_simulation_agreement():
    t0 = time.perf_counter()
    sub = monte_carlo(5000, 1.0, DeltaLoads(0.8), 0.03, 100, master_seed=1001)
    sup = monte_carlo(5000, 1.0, DeltaLoads(0.8), 0.07, 100, master_seed=1002)
    elapsed = time.perf_counter() - t0
    survive_frac = np.mean(np.array([o.survivor_fraction for o in sub.outcomes]) == 1.0)
    outage_frac = np.mean(np.array([o.survivor_fraction for o in sup.outcomes]) == 0.0)
    assert run_recursion(0.8, 0.03)[0] is Verdict.SURVIVES
    assert run_recursion(0.8, 0.07)[0] is Verdict.COMPLETE_OUTAGE
    assert survive_frac >= 0.95
    assert outage_frac >= 0.95
    assert elapsed < 120.0
    report(5, f"N=5000 fully connected: {survive_frac:.0%} survive at d_m=0.03, "
              f"{outage_frac:.0%} black out at d_m=0.07", elapsed)


def test_criterion_6_complete_graph_dichotomy():
    stats = monte_carlo(50, 1.0, UniformLoads(), 0.1, 1000, master_seed=2024)
    assert {o.survivor_fraction for o in stats.outcomes} <= {0.0, 1.0}
    report(6, "1000/1000 complete-graph trials end at f exactly 0 or 1")


def test_criterion_7_connectivity_monotonicity():
    m = 1000
    dense = monte_carlo(50, 1.0, UniformLoads(), 0.1, m, master_seed=31)
    sparse = monte_carlo(50, 0.1, UniformLoads(), 0.1, m, master_seed=32)
    p1, p2 = dense.prob_no_outage, sparse.prob_no_outage
    se = math.sqrt(p1 * (1 - p1) / m + p2 * (1 - p2) / m)
    assert p1 - p2 > 2 * se
    report(7, f"P(no outage) {p1:.3f} at p=1.0 vs {p2:.3f} at p=0.1 "
              f"(gap {(p1 - p2) / se:.1f} standard errors)")


def test_criterion_8_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    for _ in range(10_000):
        n = int(rng.integers(2, 101))
        adj = generate_er_graph(n, float(rng.random()), rng)  # p < 1: a matrix
        loads = rng.random(n) * float(rng.uniform(0.8, 1.6))
        alive = n  # the finite loads; dead nodes carry -inf
        stages = 0
        while True:
            before_alive = loads > -np.inf
            failing = loads >= 1.0
            idx = np.flatnonzero(failing)
            recv = np.flatnonzero(before_alive & ~failing)
            all_have_recipient = bool(
                np.all(adj[np.ix_(recv, idx)].sum(axis=0) > 0)
            ) if idx.size else True
            before_sum = loads[before_alive].sum()
            failed, _ = cascade._stage(adj, loads, alive)
            if failed == 0:
                break
            alive -= failed
            stages += 1
            after_alive = loads > -np.inf
            assert np.all(before_alive | ~after_alive)
            if all_have_recipient:
                assert loads[after_alive].sum() == pytest.approx(before_sum, rel=1e-9)
        assert stages <= n
    # seed determinism, serial vs worker pool
    for seed in (5, 6):
        serial = monte_carlo(40, 0.5, UniformLoads(), 0.1, 30, seed, workers=1)
        pooled = monte_carlo(40, 0.5, UniformLoads(), 0.1, 30, seed, workers=4)
        assert ([o.survivor_fraction for o in serial.outcomes]
                == [o.survivor_fraction for o in pooled.outcomes])
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(8, "conservation, termination, monotone death over 10000 fuzzed "
              "instances; seed determinism across worker counts", elapsed)
