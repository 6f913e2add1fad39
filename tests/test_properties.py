"""Randomized invariant checks for the cascade engine."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcascade import (
    BimodalLoads,
    CascadeState,
    DeltaLoads,
    UniformLoads,
    Verdict,
    apply_disturbance,
    generate_er_graph,
    init_loads,
    monte_carlo,
    run_bimodal,
    run_cascade,
    run_recursion,
    step_cascade,
)
import gridcascade
from gridcascade.bimodal import BOTH_ALIVE, LOWER_ONLY, UPPER_DIES, bimodal_rows
from gridcascade.graph import GraphTopology
from gridcascade.meanfield import mean_failed_load, recursion_rows
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
    # up to 2.0 so that overflow outages are drawn as well
    d_m=st.floats(min_value=1e-4, max_value=2.0),
    bimodal=st.booleans(),
    max_iter=st.sampled_from([3, 50, 10_000]),
    tol=st.sampled_from([1e-12, 1e-6]),
)
def test_model_verdict_matches_the_traced_run(a0, gap, pa, d_m, bimodal, max_iter, tol):
    if bimodal:
        b0 = min(a0 + gap, 0.99)
        model = BimodalLoads(a0, b0, pa)
        verdict, trace = run_bimodal(a0, b0, pa, d_m, max_iter=max_iter, tol=tol)
        _, rows = bimodal_rows(a0, b0, pa, d_m, max_iter=max_iter, tol=tol)
    else:
        model = DeltaLoads(a0)
        verdict, trace = run_recursion(a0, d_m, max_iter=max_iter, tol=tol)
        _, rows = recursion_rows(a0, d_m, max_iter=max_iter, tol=tol)
    assert trace[-1].verdict is verdict
    assert all(s.verdict is Verdict.RUNNING for s in trace[:-1])
    # a state is its row, then the verdict; repr compares the nan p_tilde
    assert repr([dataclasses.astuple(s)[:-1] for s in trace]) == repr(rows)
    assert model_verdict(model, d_m, max_iter=max_iter, tol=tol) is verdict


def _unchanged(row, prev):
    """The row an outage exit appends: ``prev`` again, at most renumbered."""
    return row[1:] == prev[1:]


OUTAGE, SURVIVES, UNDETERMINED = (
    Verdict.COMPLETE_OUTAGE, Verdict.SURVIVES, Verdict.UNDETERMINED)


# one input per exit of the two recursion loops: (args, max_iter, verdict,
# the exit's mark on the rows); the inputs were found by classifying exits
@pytest.mark.parametrize("args,max_iter,verdict,mark", [
    pytest.param((0.5, 1e300), 10_000, OUTAGE,
                 lambda r: len(r) == 1 and r[0][2:4] == (1.0, 0.0), id="p0>=1"),
    pytest.param((0.99, 10.0), 10_000, OUTAGE,
                 lambda r: len(r) == 1 and r[0][2] == 1.0 and r[0][3] > 0, id="stage1-overflow"),
    pytest.param((0.8350591552699234, 0.05538368295059026), 10_000, OUTAGE,
                 lambda r: len(r) == 3 and r[-1][2] == 1.0 and r[-1][1] != r[-2][1],
                 id="in-loop-overflow"),
    pytest.param((0.8, 0.06), 10_000, OUTAGE,
                 lambda r: len(r) == 4 and r[-1][2] >= 1.0, id="p-reaches-1"),
    pytest.param((0.095, 0.820800320267225), 10_000, OUTAGE,
                 lambda r: len(r) == 2 and r[1] == r[0], id="D>1-a"),
    pytest.param((0.8, 0.0492), 50, UNDETERMINED, lambda r: len(r) == 51, id="undetermined"),
    pytest.param((0.8, 0.03), 10_000, SURVIVES, lambda r: r[-1][2] < 1e-12, id="survives"),
    pytest.param((0.5, 0.6, 0.5, 1e300), 10_000, OUTAGE,
                 lambda r: len(r) == 1 and r[0][2:4] == (1.0, 0.0), id="bimodal-p0>=1"),
    pytest.param((0.5, 0.99, 0.01, 10.0), 10_000, OUTAGE,
                 lambda r: len(r) == 1 and r[0][2] == 1.0 and r[0][3] > 0,
                 id="bimodal-stage1-overflow"),
    pytest.param((0.3086649662486171, 0.7758460524594606, 0.0, 0.12487978815625465),
                 10_000, OUTAGE, lambda r: len(r) == 2 and r[1] == (2, *r[0][1:]),
                 id="bimodal-both-alive-overflow"),
    pytest.param((0.1275, 0.1275, 1.0, 0.783710856279495), 10_000, OUTAGE,
                 lambda r: len(r) == 2 and r[1] == (2, *r[0][1:]), id="bimodal-zero-division"),
    pytest.param((0.6283942036192659, 0.8428549755423915, 0.8932104504495303,
                  0.1067907600640591), 10_000, OUTAGE,
                 lambda r: len(r) == 6 and r[-2][6] is LOWER_ONLY and _unchanged(r[-1], r[-2]),
                 id="bimodal-lower-only-overflow"),
    pytest.param((0.1, 0.15, 0.0, 0.7581446735269813), 10_000, OUTAGE,
                 lambda r: len(r) == 2 and r[1][5:7] == (1.0, UPPER_DIES)
                 and r[1][:5] == (2, *r[0][1:5]), id="bimodal-pa=0-upper-dies"),
    pytest.param((0.3345147029234756, 0.7176202104352863, 0.8610088608533248,
                  0.3479239788029015), 10_000, OUTAGE,
                 lambda r: len(r) == 3 and r[-2][6] is UPPER_DIES and _unchanged(r[-1], r[-2]),
                 id="bimodal-fall-through"),
    pytest.param((0.5, 0.9, 0.25, 0.022), 3, UNDETERMINED, lambda r: len(r) == 4,
                 id="bimodal-undetermined"),
    pytest.param((0.5, 0.9, 0.25, 0.01), 10_000, SURVIVES, lambda r: r[-1][2] < 1e-12,
                 id="bimodal-survives"),
])
def test_each_loop_exit_gives_its_verdict_and_trace(args, max_iter, verdict, mark):
    unimodal = len(args) == 2
    run, rows_of = (run_recursion, recursion_rows) if unimodal else (run_bimodal, bimodal_rows)
    model = DeltaLoads(*args[:1]) if unimodal else BimodalLoads(*args[:3])
    traced, trace = run(*args, max_iter=max_iter)
    rows_verdict, rows = rows_of(*args, max_iter=max_iter)
    # model_verdict runs the same loop without a row list
    assert traced is rows_verdict is model_verdict(model, args[-1], max_iter) is verdict
    assert repr([dataclasses.astuple(s)[:-1] for s in trace]) == repr(rows)
    assert mark(rows)


def test_mu_prev_is_the_mean_failed_load_of_the_previous_shift():
    """Every computed unimodal, BOTH_ALIVE and LOWER_ONLY row carries
    mean_failed_load(D_prev, d_m) bit for bit."""
    seen = {"unimodal": 0, BOTH_ALIVE: 0, LOWER_ONLY: 0}
    d_grid = [1e-3 * 1.2 ** k for k in range(38)]  # 0.001 .. ~0.85
    runs = [((a0,), recursion_rows) for a0 in (0.3, 0.6, 0.8, 0.95)]
    runs += [(model, bimodal_rows) for model in
             ((0.5, 0.9, 0.25), (0.4, 0.9, 0.8), (0.6, 0.85, 0.9), (0.2, 0.7, 0.5))]
    for model, rows_of in runs:
        for d_m in d_grid:
            _, rows = rows_of(*model, d_m)
            for prev, row in zip(rows, rows[1:]):
                if _unchanged(row, prev):
                    continue  # an outage exit, no stage computed
                kind = "unimodal" if len(row) == 5 else row[6]
                if kind in seen:
                    assert row[4].hex() == mean_failed_load(prev[3], d_m).hex()
                    seen[kind] += 1
    assert all(seen.values()), seen


def test_every_exported_name_resolves():
    assert [n for n in gridcascade.__all__ if not hasattr(gridcascade, n)] == []
