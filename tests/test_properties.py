"""Randomized invariant checks for the cascade engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcascade import (
    BimodalLoads,
    CascadeState,
    DeltaLoads,
    UniformLoads,
    apply_disturbance,
    generate_er_graph,
    init_loads,
    monte_carlo,
    run_bimodal,
    run_cascade,
    run_recursion,
    step_cascade,
)
from gridcascade.graph import GraphTopology
from gridcascade.threshold import model_verdict


def random_instance(rng):
    n = int(rng.integers(2, 101))
    p = float(rng.random())
    g = generate_er_graph(n, p, rng)
    # scale uniform loads so a decent share of instances start over capacity
    loads = rng.random(n) * float(rng.uniform(0.8, 1.6))
    return g, loads


def check_invariants(g, loads):
    state = CascadeState.from_graph(g, loads)
    stages = 0
    while True:
        failing = state.alive & (state.loads >= 1.0)
        idx = np.flatnonzero(failing)
        recv = state.alive & ~failing
        all_have_recipient = bool(
            np.all(state.adjacency[np.ix_(np.flatnonzero(recv), idx)].sum(axis=0) > 0)
        ) if idx.size else True
        before_alive = state.alive.copy()
        before_sum = state.loads.sum()
        state, failed = step_cascade(state)
        if failed == 0:
            break
        stages += 1
        # monotone death
        assert np.all(before_alive | ~state.alive)
        assert not state.alive[idx].any()
        assert (state.loads[idx] == 0.0).all()
        # conservation holds whenever every failing node kept a recipient
        if all_have_recipient:
            assert state.loads.sum() == pytest.approx(before_sum, rel=1e-9)
    assert stages <= g.n
    out = run_cascade(g, loads)
    assert out.termination_stage == stages


@pytest.mark.parametrize("master_seed", [0, 1, 2, 3])
def test_randomized_cascades_respect_invariants(master_seed):
    rng = np.random.default_rng(master_seed)
    for _ in range(100):
        g, loads = random_instance(rng)
        check_invariants(g, loads)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_hypothesis_fuzzed_instances(seed):
    rng = np.random.default_rng(seed)
    g, loads = random_instance(rng)
    check_invariants(g, loads)


def test_complete_graph_dichotomy_holds_for_every_trial():
    stats = monte_carlo(30, 1.0, UniformLoads(), 0.1, 300, master_seed=17)
    assert set(stats.per_trial_fractions) <= {0.0, 1.0}


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_run_cascade_matches_manual_stepping(seed):
    rng = np.random.default_rng(seed)
    g, loads = random_instance(rng)
    out = run_cascade(g, loads)
    state = CascadeState.from_graph(g, loads)
    counts = []
    while True:
        state, failed = step_cascade(state)
        if failed == 0:
            break
        counts.append(failed)
    assert out.failures_per_stage == tuple(counts)
    assert out.termination_stage == len(counts)
    assert out.termination_stage <= g.n


def _final_loads(g, loads):
    state, failed = CascadeState.from_graph(g, loads), 1
    while failed:
        state, failed = step_cascade(state)
    return state.loads


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=400),
    spec=st.sampled_from([UniformLoads(), DeltaLoads(0.8), DeltaLoads(0.6),
                          BimodalLoads(0.5, 0.9, 0.25)]),
    d_m=st.floats(min_value=0.01, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_complete_graph_shift_path_matches_general_path(n, spec, d_m, seed):
    rng = np.random.default_rng(seed)
    g = generate_er_graph(n, 1.0, rng)
    loads = apply_disturbance(init_loads(n, spec, rng), d_m, rng)
    # the same adjacency, hand-built and so not flagged complete
    general = GraphTopology(n, g.adjacency, 1.0)
    assert g.complete and not general.complete
    assert run_cascade(g, loads) == run_cascade(general, loads)
    # the shift and the matvec sum in different orders
    np.testing.assert_allclose(_final_loads(g, loads), _final_loads(general, loads),
                               rtol=4 * np.finfo(np.float64).eps, atol=0.0)


@settings(max_examples=200, deadline=None)
@given(
    a0=st.floats(min_value=0.01, max_value=0.99),
    gap=st.floats(min_value=0.0, max_value=0.98),
    pa=st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
    d_m=st.floats(min_value=1e-4, max_value=0.5),
    bimodal=st.booleans(),
    max_iter=st.sampled_from([3, 50, 10_000]),
)
def test_model_verdict_matches_the_traced_run(a0, gap, pa, d_m, bimodal, max_iter):
    if bimodal:
        b0 = min(a0 + gap, 0.99)
        model = BimodalLoads(a0, b0, pa)
        verdict, trace = run_bimodal(a0, b0, pa, d_m, max_iter=max_iter)
    else:
        model = DeltaLoads(a0)
        verdict, trace = run_recursion(a0, d_m, max_iter=max_iter)
    assert trace[-1].verdict is verdict
    assert model_verdict(model, d_m, max_iter=max_iter) is verdict
