import dataclasses
import hashlib
import math
import sys
import threading

import numpy as np
import pytest

from gridcascade import (
    BimodalLoads,
    CascadeState,
    DeltaLoads,
    UniformLoads,
    apply_disturbance,
    generate_er_graph,
    init_loads,
    monte_carlo,
    run_cascade,
    run_trial,
    step_cascade,
    trial_rng,
    validate_redistribution_limit,
)
from gridcascade import cascade
from gridcascade.graph import GraphTopology


def k3():
    return generate_er_graph(3, 1.0, np.random.default_rng(0))


# --- initial loads --------------------------------------------------------

def test_delta_loads_are_constant():
    loads = init_loads(3, DeltaLoads(0.8), np.random.default_rng(0))
    assert (loads == 0.8).all()


def test_uniform_loads_mean():
    loads = init_loads(100_000, UniformLoads(), np.random.default_rng(5))
    assert abs(loads.mean() - 0.5) < 0.005


def test_bimodal_loads_mean():
    # 0.25 * 0.5 + 0.75 * 0.9 = 0.8
    loads = init_loads(100_000, BimodalLoads(0.5, 0.9, 0.25), np.random.default_rng(5))
    assert set(np.unique(loads)) == {0.5, 0.9}
    assert abs(loads.mean() - 0.8) < 0.005


@pytest.mark.parametrize(
    "spec",
    [
        lambda: DeltaLoads(0.0),
        lambda: DeltaLoads(1.0),
        lambda: BimodalLoads(0.9, 0.5, 0.5),
        lambda: BimodalLoads(0.5, 0.9, 1.5),
    ],
)
def test_invalid_load_specs_rejected(spec):
    with pytest.raises(ValueError):
        spec()


# --- disturbance ----------------------------------------------------------

def test_vanishing_disturbance_leaves_loads_unchanged():
    loads = np.full(100, 0.5)
    out = apply_disturbance(loads, 1e-12, np.random.default_rng(0))
    assert np.allclose(out, loads, atol=1e-9)


def test_disturbance_mean():
    noise = apply_disturbance(np.zeros(100_000), 0.1, np.random.default_rng(3))
    assert abs(noise.mean() - 0.1) < 0.002


def test_overload_fraction_matches_exponential_tail():
    # P(0.8 + Exp(0.1) >= 1) = exp(-2)
    loads = apply_disturbance(np.full(100_000, 0.8), 0.1, np.random.default_rng(11))
    assert abs(np.mean(loads >= 1.0) - math.exp(-2)) < 0.01


@pytest.mark.parametrize("d_m", [math.nan, math.inf])
def test_disturbance_rejects_nonfinite_mean(d_m):
    with pytest.raises(ValueError):
        apply_disturbance(np.zeros(3), d_m, np.random.default_rng(0))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_disturbance_rejects_nonfinite_loads(bad):
    with pytest.raises(ValueError):
        apply_disturbance(np.array([0.5, bad, 0.5]), 0.1, np.random.default_rng(0))


def test_disturbance_rejects_nonpositive_mean():
    with pytest.raises(ValueError):
        apply_disturbance(np.zeros(3), 0.0, np.random.default_rng(0))


# --- stepping -------------------------------------------------------------

def test_single_failure_splits_load_equally():
    state = CascadeState.from_graph(k3(), np.array([1.2, 0.3, 0.2]))
    state, failed = step_cascade(state)
    assert failed == 1
    assert np.allclose(state.loads, [0.0, 0.9, 0.8])
    state, failed = step_cascade(state)
    assert failed == 0


def test_simultaneous_failures_do_not_transfer_to_each_other():
    state = CascadeState.from_graph(k3(), np.array([1.2, 0.5, 0.6]))
    state, failed = step_cascade(state)
    assert failed == 1
    assert np.allclose(state.loads, [0.0, 1.1, 1.2])
    state, failed = step_cascade(state)
    # nodes 1 and 2 fail together with no alive neighbor left: loads dropped
    assert failed == 2
    assert np.allclose(state.loads, 0.0)


def test_stable_state_is_unchanged():
    state = CascadeState.from_graph(k3(), np.array([0.4, 0.5, 0.6]))
    after, failed = step_cascade(state)
    assert failed == 0
    assert (after.loads == state.loads).all()
    assert after.stage == state.stage


def test_run_cascade_trivial():
    out = run_cascade(k3(), np.array([0.4, 0.5, 0.6]))
    assert out.termination_stage == 0
    assert out.survivor_fraction == 1.0
    assert out.failures_per_stage == ()


def test_run_cascade_total_blackout():
    out = run_cascade(k3(), np.array([1.2, 0.5, 0.6]))
    assert out.survivor_fraction == 0.0
    assert out.termination_stage == 2
    assert out.failures_per_stage == (1, 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_run_cascade_rejects_nonfinite_loads(bad):
    with pytest.raises(ValueError):
        run_cascade(k3(), np.array([bad, 0.5, 0.6]))
    with pytest.raises(ValueError):
        CascadeState.from_graph(k3(), np.array([0.4, 0.5, bad]))


def test_hand_built_incomplete_graph_never_takes_the_shift_path():
    # path 0-1-2 labelled edge_prob=1.0: node 0's load all goes to node 1
    adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)
    g = GraphTopology(3, adj, 1.0)
    state, failed = step_cascade(CascadeState.from_graph(g, np.array([1.2, 0.3, 0.2])))
    assert failed == 1
    assert np.allclose(state.loads, [0.0, 1.5, 0.2])
    assert run_cascade(g, np.array([1.2, 0.3, 0.2])).failures_per_stage == (1, 1, 1)


@pytest.mark.parametrize("p", [0.3, 1.0])
def test_cascade_leaves_the_graph_unchanged(p):
    g = generate_er_graph(40, p, np.random.default_rng(4))
    before = g.adjacency.copy()
    loads = np.random.default_rng(5).random(40) * 1.5
    assert run_cascade(g, loads).termination_stage > 0
    state, failed = CascadeState.from_graph(g, loads), 1
    while failed:
        state, failed = step_cascade(state)
    assert state.adjacency is g.adjacency
    assert (g.adjacency == before).all()
    assert not g.adjacency.flags.writeable


def test_run_cascade_rejects_negative_loads():
    with pytest.raises(ValueError):
        run_cascade(k3(), np.array([-0.1, 0.5, 0.6]))


def test_overflowing_total_load_is_rejected():
    # every load is finite, but their total overflows to inf, which made the
    # survivor fraction and final load NaN
    g = GraphTopology(3, np.zeros((3, 3), dtype=bool), 0.0)
    loads = np.array([1e308, 1e308, 0.5])
    with pytest.raises(ValueError, match="total load"):
        run_cascade(g, loads)
    with pytest.raises(ValueError, match="total load"):
        CascadeState.from_graph(g, loads)


def test_run_cascade_leaves_the_callers_loads_unchanged():
    g = generate_er_graph(30, 0.3, np.random.default_rng(2))
    loads = np.random.default_rng(3).random(30) * 1.5
    before = loads.copy()
    assert run_cascade(g, loads).termination_stage > 0
    assert (loads == before).all()


def test_step_cascade_leaves_its_input_state_unchanged():
    g = generate_er_graph(30, 0.3, np.random.default_rng(2))
    state = CascadeState.from_graph(g, np.random.default_rng(3).random(30) * 1.5)
    loads, alive = state.loads.copy(), state.alive.copy()
    after, failed = step_cascade(state)
    assert failed > 0 and after.stage == 1
    assert (state.loads == loads).all() and (state.alive == alive).all()
    assert state.stage == 0


def test_isolated_failing_node_drops_load():
    g = generate_er_graph(2, 0.0, np.random.default_rng(0))
    out = run_cascade(g, np.array([1.5, 0.5]))
    assert out.survivor_fraction == pytest.approx(0.25)
    assert out.total_final_load == pytest.approx(0.5)


# sha256 of the repr of every CascadeOutcome field of 60 trials (uniform
# loads, d_m 0.1, master seed 42) per (n, p), recorded from the stage kernel
# that gathered its block with np.ix_. The stage matvec's summation order
# shows in the last digits at n=50, p=0.1, so any reordering fails there.
STAGE_GOLDEN = {
    (10, 0.1): "8fb50f51d53343e9d6d6a8ea4b0137a6831c87a03575ff094cbfa802f29e8f1f",
    (10, 0.3): "11ca1cc22439093632240a0a2cceac3db9a60ec3bb1fa29b2e61f6b6057c6652",
    (10, 0.7): "ea616164eb2bb10df03c4894ac67b473fd3c9a4a428129669c4fd78e3cf8c9df",
    (50, 0.1): "761b2e413c4a226b3b506e8c171a9ad8804127e8c3c942e6e82fe1af7f771422",
    (50, 0.3): "9eb5ee2affe6e73ace43d5ac5718c9016aed6ee5c39139b437e984afaa472497",
    (50, 0.7): "2da9bb219756fe809cd4de3ec63b1b0c86862ea1e571e8c1048003902b61d475",
    (100, 0.1): "a76b57262f1ce32c48d903759536c9ac17c87a171c918ea6de103f12482e2412",
    (100, 0.3): "4cb5b69fcd64f88d1c18ff1c82a06d93e5601242c3375244a0643d69fd02c280",
    (100, 0.7): "59ab65b05638f14c6cc30519203f821c6bc153959fc88b1e5f784e28320924ca",
}


@pytest.mark.parametrize("n,p", sorted(STAGE_GOLDEN))
def test_stage_kernel_matches_golden_digest(n, p):
    h = hashlib.sha256()
    for k in range(60):
        out = run_trial(n, p, UniformLoads(), 0.1, trial_rng(42, k))
        h.update(repr(dataclasses.astuple(out)).encode())
    assert h.hexdigest() == STAGE_GOLDEN[n, p]


# --- Monte Carlo ----------------------------------------------------------

def test_complete_graph_outcomes_are_all_or_nothing():
    stats = monte_carlo(20, 1.0, UniformLoads(), 0.1, 200, master_seed=7)
    assert set(stats.per_trial_fractions) <= {0.0, 1.0}
    assert stats.prob_no_outage == pytest.approx(
        1.0 - stats.mean_outage_fraction
    )


def test_tiny_disturbance_means_no_outage():
    stats = monte_carlo(20, 0.5, DeltaLoads(0.5), 1e-6, 50, master_seed=3)
    assert stats.prob_no_outage == 1.0


def test_connectivity_helps():
    dense = monte_carlo(50, 1.0, UniformLoads(), 0.1, 400, master_seed=21)
    sparse = monte_carlo(50, 0.1, UniformLoads(), 0.1, 400, master_seed=21)
    assert dense.prob_no_outage > sparse.prob_no_outage


def test_monte_carlo_is_deterministic_across_worker_counts():
    serial = monte_carlo(30, 0.5, UniformLoads(), 0.1, 40, master_seed=9, workers=1)
    parallel = monte_carlo(30, 0.5, UniformLoads(), 0.1, 40, master_seed=9, workers=3)
    assert serial.per_trial_fractions == parallel.per_trial_fractions
    assert serial.prob_no_outage == parallel.prob_no_outage


# (n, p, master seed) points run back to back: a seed switch between them
MC_POINTS = [(20, 0.3, 5), (12, 1.0, 5), (20, 0.3, 6)]


def _assert_each_trial_is_its_substream(stats, n, p, seed):
    assert len(stats.outcomes) == 25
    for k, out in enumerate(stats.outcomes):
        assert out == run_trial(n, p, UniformLoads(), 0.1, trial_rng(seed, k))


@pytest.mark.parametrize("workers", [1, 2])
def test_monte_carlo_trial_k_is_run_trial_on_trial_rng_k(workers):
    for n, p, seed in MC_POINTS:
        stats = monte_carlo(n, p, UniformLoads(), 0.1, 25, seed, workers=workers)
        _assert_each_trial_is_its_substream(stats, n, p, seed)


def test_monte_carlo_after_a_trial_raised_partway(monkeypatch):
    calls = []

    def fail_on_third(g, loads):
        calls.append(None)  # the graph and the loads are drawn by now
        if len(calls) == 3:
            raise RuntimeError("stop")
        return run_cascade(g, loads)

    monkeypatch.setattr(cascade, "run_cascade", fail_on_third)
    with pytest.raises(RuntimeError, match="stop"):
        monte_carlo(20, 0.3, UniformLoads(), 0.1, 25, 5)
    monkeypatch.undo()
    for n, p, seed in MC_POINTS:
        stats = monte_carlo(n, p, UniformLoads(), 0.1, 25, seed)
        _assert_each_trial_is_its_substream(stats, n, p, seed)


def test_concurrent_threads_do_not_share_a_trial_generator():
    # each thread reuses its own generator; a shared one would interleave
    # draws between threads and change their outcomes
    expected = {pt: monte_carlo(*pt[:2], UniformLoads(), 0.1, 25, pt[2]) for pt in MC_POINTS}
    results, interval = {}, sys.getswitchinterval()

    def run(i, pt):
        results[i, pt] = monte_carlo(*pt[:2], UniformLoads(), 0.1, 25, pt[2])

    threads = [threading.Thread(target=run, args=(i, pt)) for i in range(2) for pt in MC_POINTS]
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert {key: stats.outcomes for key, stats in results.items()} == {
        (i, pt): expected[pt].outcomes for i in range(2) for pt in MC_POINTS}


def test_monte_carlo_rejects_zero_trials():
    with pytest.raises(ValueError):
        monte_carlo(10, 0.5, UniformLoads(), 0.1, 0, master_seed=1)


# --- large-N redistributed load -------------------------------------------

def test_redistribution_limit_matches_closed_form():
    check = validate_redistribution_limit(100_000, 0.8, 0.1, np.random.default_rng(42))
    expected = math.exp(-2) / (1 - math.exp(-2)) * 1.1
    assert check.predicted == pytest.approx(expected)
    assert abs(check.empirical - check.predicted) / check.predicted < 0.02


def test_redistribution_limit_vanishes_with_disturbance():
    check = validate_redistribution_limit(100, 0.8, 1e-3, np.random.default_rng(0))
    assert check.predicted < 1e-50
    assert check.empirical == 0.0


def test_redistribution_limit_reports_zero_survivors():
    # hunt for a draw where every node fails; must be reported, not raised
    for seed in range(200):
        check = validate_redistribution_limit(3, 0.99, 20.0, np.random.default_rng(seed))
        if check.survivors == 0:
            assert check.empirical == math.inf
            return
    pytest.fail("no zero-survivor draw found")


def test_redistribution_limit_reports_a_certain_stage_zero_failure():
    # p0 = exp(-0.5/1e17) rounds to 1.0: the prediction is its p0 -> 1 limit
    check = validate_redistribution_limit(10, 0.5, 1e17, np.random.default_rng(0))
    assert check.predicted == math.inf
    assert (check.survivors, check.failed) == (0, 10)
    assert check.empirical == math.inf
