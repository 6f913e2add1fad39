"""Randomized invariant checks for the cascade engine."""

import dataclasses
import hashlib
import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridcascade import (
    BimodalLoads,
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
)
import gridcascade
from gridcascade import cascade, harness, threshold
from gridcascade.meanfield import (
    BOTH_ALIVE,
    LOWER_ONLY,
    UPPER_DIES,
    bimodal_verdict,
    mean_failed_load,
)
from gridcascade.threshold import model_verdict


def one_mode_verdict(a0, d_m, max_iter=10_000, tol=1e-12, rows=None):
    """The one-mode counterpart of ``bimodal_verdict``: given a row list,
    ``run_recursion``'s verdict, its states' rows appended to ``rows``;
    without one, the threshold search's probe, ``model_verdict``'s closed
    form."""
    if rows is None:
        return model_verdict(DeltaLoads(a0), d_m, max_iter, tol)
    verdict, trace = run_recursion(a0, d_m, max_iter, tol)
    rows.extend(dataclasses.astuple(s)[:-1] for s in trace)
    return verdict


def _agrees(probe, traced, one_mode) -> bool:
    """Whether a verdict-only call ends as the traced call does. A one-mode
    probe is the closed form, never Undetermined, so it also decides what
    a traced one-mode run leaves Undetermined."""
    if one_mode and traced is Verdict.UNDETERMINED:
        return probe in (Verdict.SURVIVES, Verdict.COMPLETE_OUTAGE)
    return probe == traced


def random_instance(rng):
    """An adjacency and loads; ``p < 1``, so the adjacency is a matrix."""
    n = int(rng.integers(2, 101))
    p = float(rng.random())
    adj = generate_er_graph(n, p, rng)
    # scale uniform loads so a decent share of instances start over capacity
    loads = rng.random(n) * float(rng.uniform(0.8, 1.6))
    return adj, loads


def check_invariants(adj, init):
    # the alive nodes are the finite loads; dead nodes carry -inf
    loads, alive = init.copy(), init.size
    stages = 0
    while True:
        before_alive = loads > -np.inf
        failing = loads >= 1.0
        idx = np.flatnonzero(failing)
        recv = before_alive & ~failing
        all_have_recipient = bool(
            np.all(adj[np.ix_(np.flatnonzero(recv), idx)].sum(axis=0) > 0)
        ) if idx.size else True
        before_sum = loads[before_alive].sum()
        failed, _ = cascade._stage(adj, loads, alive)
        if failed == 0:
            break
        alive -= failed
        stages += 1
        # monotone death: the finite set shrinks, by the failing nodes
        after_alive = loads > -np.inf
        assert np.all(before_alive | ~after_alive)
        assert (loads[idx] == -np.inf).all()
        assert np.count_nonzero(after_alive) == alive
        # conservation over the finite loads holds whenever every failing
        # node kept a recipient
        if all_have_recipient:
            assert loads[after_alive].sum() == pytest.approx(before_sum, rel=1e-9)
    assert stages <= init.size
    out = run_cascade(adj, init)
    assert out.termination_stage == stages


@pytest.mark.parametrize("master_seed", [0, 1, 2, 3])
def test_randomized_cascades_respect_invariants(master_seed):
    rng = np.random.default_rng(master_seed)
    for _ in range(100):
        adj, loads = random_instance(rng)
        check_invariants(adj, loads)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_hypothesis_fuzzed_instances(seed):
    rng = np.random.default_rng(seed)
    adj, loads = random_instance(rng)
    check_invariants(adj, loads)


def test_complete_graph_dichotomy_holds_for_every_trial():
    stats = monte_carlo(30, 1.0, UniformLoads(), 0.1, 300, master_seed=17)
    assert {o.survivor_fraction for o in stats.outcomes} <= {0.0, 1.0}


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_run_cascade_matches_manual_stepping(seed):
    rng = np.random.default_rng(seed)
    adj, loads = random_instance(rng)
    out = run_cascade(adj, loads)
    loads, alive = loads.copy(), loads.size
    counts = []
    while True:
        failed, _ = cascade._stage(adj, loads, alive)
        if failed == 0:
            break
        counts.append(failed)
        alive -= failed
    assert out.failures_per_stage == tuple(counts)
    assert out.termination_stage == len(counts)
    assert out.termination_stage <= loads.size


def _final_loads(adj, loads):
    """The loads a cascade ends with, failed nodes at -inf."""
    loads, alive = loads.copy(), loads.size
    while failed := cascade._stage(adj, loads, alive)[0]:
        alive -= failed
    return loads


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
    assert generate_er_graph(n, 1.0, rng) is None
    loads = apply_disturbance(init_loads(n, spec, rng), d_m, rng)
    # K_n, hand-built and so an array, which takes the general path
    general = ~np.eye(n, dtype=bool)
    general.setflags(write=False)
    assert run_cascade(None, loads) == run_cascade(general, loads)
    # the shift and the matvec sum in different orders
    np.testing.assert_allclose(_final_loads(None, loads), _final_loads(general, loads),
                               rtol=4 * np.finfo(np.float64).eps, atol=0.0)


@settings(max_examples=200, deadline=None)
@given(
    a0=st.floats(min_value=0.01, max_value=0.99),
    gap=st.floats(min_value=0.0, max_value=0.98),
    pa=st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
    # up to 2.0 so that overflow outages are drawn as well
    d_m=st.floats(min_value=1e-4, max_value=2.0),
    max_iter=st.sampled_from([3, 50, 10_000]),
    tol=st.sampled_from([1e-12, 1e-6]),
)
def test_model_verdict_matches_the_traced_run(a0, gap, pa, d_m, max_iter, tol):
    """A two-mode probe is the traced run's loop without a row list (the
    one-mode probe's closed form is tested in test_threshold.py)."""
    b0 = min(a0 + gap, 0.99)
    model = BimodalLoads(a0, b0, pa)
    verdict, trace = run_bimodal(a0, b0, pa, d_m, max_iter=max_iter, tol=tol)
    rows = []
    bimodal_verdict(a0, b0, pa, d_m, max_iter=max_iter, tol=tol, rows=rows)
    assert trace[-1].verdict is verdict
    assert all(s.verdict is Verdict.RUNNING for s in trace[:-1])
    # a state is its row, then the verdict; repr compares the nan p_tilde
    assert repr([dataclasses.astuple(s)[:-1] for s in trace]) == repr(rows)
    assert model_verdict(model, d_m, max_iter=max_iter, tol=tol) is verdict


@settings(max_examples=200, deadline=None)
@given(
    a0=st.floats(min_value=0.01, max_value=0.99),
    d_m=st.floats(min_value=1e-4, max_value=2.0),
    max_iter=st.sampled_from([3, 50, 10_000]),
    tol=st.sampled_from([1e-12, 1e-6]),
)
# the one-mode outage exits of test_each_loop_exit_gives_its_verdict_and_trace
@example(a0=0.8350591552699234, d_m=0.05538368295059026, max_iter=10_000, tol=1e-12)
@example(a0=0.095, d_m=0.820800320267225, max_iter=10_000, tol=1e-12)
@example(a0=0.0125, d_m=0.9157115631207786, max_iter=10_000, tol=1e-12)
def test_one_mode_recursion_is_the_two_mode_one_with_equal_modes(a0, d_m, max_iter, tol):
    """run_recursion(a0, ...) is run_bimodal(a0, a0, 1.0, ...): the same
    verdict, which the two-mode loop also reaches without a row list, and
    the same first five fields of every row, at every exit."""
    rows, two_mode_rows = [], []
    verdict = one_mode_verdict(a0, d_m, max_iter, tol, rows)
    assert bimodal_verdict(a0, a0, 1.0, d_m, max_iter, tol, two_mode_rows) is verdict
    assert repr([row[:5] for row in two_mode_rows]) == repr(rows)
    assert bimodal_verdict(a0, a0, 1.0, d_m, max_iter, tol) is verdict


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
                 lambda r: len(r) == 3 and r[-1] == (3, *r[-2][1:]), id="in-loop-overflow"),
    pytest.param((0.8, 0.06), 10_000, OUTAGE,
                 lambda r: len(r) == 4 and r[-1][2] >= 1.0, id="p-reaches-1"),
    pytest.param((0.095, 0.820800320267225), 10_000, OUTAGE,
                 lambda r: len(r) == 2 and r[1] == (2, *r[0][1:]), id="D>1-a"),
    # D1 = 1 - a0 exactly: the top-of-pass exit stops the stage whose floor
    # would reach 1, where q = 1 would divide by zero
    pytest.param((0.0125, 0.9157115631207786), 10_000, OUTAGE,
                 lambda r: len(r) == 2 and r[1] == (2, *r[0][1:]) and r[0][1] + r[0][3] == 1.0,
                 id="zero-division"),
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
    run, loop = (run_recursion, one_mode_verdict) if unimodal else (run_bimodal, bimodal_verdict)
    model = DeltaLoads(*args[:1]) if unimodal else BimodalLoads(*args[:3])
    traced, trace = run(*args, max_iter=max_iter)
    rows = []
    assert traced is loop(*args, max_iter=max_iter, rows=rows) is verdict
    # a two-mode probe runs the same loop without a row list; a one-mode
    # probe, the closed form, is never Undetermined
    assert _agrees(model_verdict(model, args[-1], max_iter), verdict, unimodal)
    assert repr([dataclasses.astuple(s)[:-1] for s in trace]) == repr(rows)
    assert mark(rows)


def test_mu_prev_is_the_mean_failed_load_of_the_previous_shift():
    """Every computed unimodal, BOTH_ALIVE and LOWER_ONLY row carries
    mean_failed_load(D_prev, d_m) bit for bit."""
    seen = {"unimodal": 0, BOTH_ALIVE: 0, LOWER_ONLY: 0}
    d_grid = [1e-3 * 1.2 ** k for k in range(38)]  # 0.001 .. ~0.85
    runs = [((a0,), one_mode_verdict) for a0 in (0.3, 0.6, 0.8, 0.95)]
    runs += [(model, bimodal_verdict) for model in
             ((0.5, 0.9, 0.25), (0.4, 0.9, 0.8), (0.6, 0.85, 0.9), (0.2, 0.7, 0.5))]
    for model, loop in runs:
        for d_m in d_grid:
            rows = []
            loop(*model, d_m, rows=rows)
            for prev, row in zip(rows, rows[1:]):
                if _unchanged(row, prev):
                    continue  # an outage exit, no stage computed
                kind = "unimodal" if len(row) == 5 else row[6]
                if kind in seen:
                    assert row[4].hex() == mean_failed_load(prev[3], d_m).hex()
                    seen[kind] += 1
    assert all(seen.values()), seen


# sha256 of repr((verdict, rows)), or repr((exception type, message)), of
# every one-mode and bimodal_verdict call, given a row list, over a
# grid of extreme inputs:
# floors next to capacity, disturbance means from 1e-300 to 1e300, a 3-stage
# budget, a denormal tol, and two-mode splits with pa 0, 0.25 and 1. Recorded
# from the loops that called mean_failed_load, guards and all, every stage.
EXTREME_GOLDEN = "346bd9a682b3386872c299e4142af397bd53187d988a09aaeb42d1aad68d443c"


def _call(loop, *args, rows=None):
    """The loop's verdict, or (exception type, message) if it raises."""
    try:
        return loop(*args, rows=rows)
    except Exception as exc:
        return (type(exc).__name__, str(exc))


def _outcome(loop, *args):
    """repr of the traced call's (verdict, rows), or of its exception, after
    checking that the verdict-only call, which may stop a surviving run
    early on a proven bound, ends the same way."""
    rows = []
    traced = _call(loop, *args, rows=rows)
    assert _agrees(_call(loop, *args), traced, loop is one_mode_verdict), (loop.__name__, args)
    return repr(traced if isinstance(traced, tuple) else (traced, rows))


def test_recursions_on_extreme_inputs_match_golden_digest():
    h = hashlib.sha256()
    d_grid = (1e-300, 1e-5, 1e-3, 1e-2, *(0.01 * 1.3 ** k for k in range(16)), 10.0, 1e17, 1e300)
    for a0 in (0.05, 0.3, 0.6, 0.8, 0.95, 1.0 - 1e-12):
        for d_m in d_grid:
            for max_iter, tol in ((3, 1e-12), (10_000, 1e-12), (10_000, 1e-320)):
                h.update(_outcome(one_mode_verdict, a0, d_m, max_iter, tol).encode())
                for b0 in (a0, a0 + 0.5 * (1.0 - a0)):
                    for pa in (0.0, 0.25, 1.0):
                        h.update(_outcome(bimodal_verdict, a0, b0, pa, d_m, max_iter, tol).encode())
    assert h.hexdigest() == EXTREME_GOLDEN


def _loop(args):
    """one_mode_verdict for (a0, d_m), bimodal_verdict for (a0, b0, pa, d_m)."""
    return one_mode_verdict if len(args) == 2 else bimodal_verdict


@pytest.mark.parametrize("mode", [(0.8,), (0.5, 0.9, 0.25), (0.4, 0.9, 0.8)])
def test_verdict_only_calls_match_traced_calls_next_to_the_threshold(mode):
    """Right at the threshold a surviving run decays slowest and a failing
    run grows slowest, where the survival bound is tightest; on both sides
    of d_low and of d_high the verdict-only call must end as the traced
    call does (as ``_agrees`` reads it for a one-mode call)."""
    model = DeltaLoads(*mode) if len(mode) == 1 else BimodalLoads(*mode)
    res = threshold.find_d_critical(model)
    for k in range(1, 10):
        for edge in (res.d_low, res.d_high):
            for d in (edge * (1.0 - 10.0 ** -k), edge, edge * (1.0 + 10.0 ** -k)):
                args = (*mode, d)
                traced = _loop(args)(*args, rows=[])
                assert _agrees(_loop(args)(*args), traced, len(mode) == 1), args


@pytest.mark.parametrize("args", [
    (0.8, 0.04925), (0.8, 0.03), (0.4, 0.9, 0.8, 0.03), (0.5, 0.9, 0.25, 0.0219375)])
def test_verdict_only_survival_needs_the_traced_stage_budget(args):
    """A traced survivor of N rows needs max_iter >= N: a proven two-mode
    survival must still fit the budget the full loop would use, at every
    budget. A one-mode probe runs no stage, so it survives at every budget."""
    rows = []
    assert _loop(args)(*args, rows=rows) is SURVIVES
    n = len(rows)
    verdicts = [_loop(args)(*args, max_iter) for max_iter in range(1, n + 2)]
    undetermined = 0 if len(args) == 2 else n - 1
    assert verdicts == [UNDETERMINED] * undetermined + [SURVIVES] * (n + 1 - undetermined)


# failing probes whose shift grows again after a dip: one-mode, and
# two-mode after the upper mode has died (traced rows: 94 and 13); only
# the traced stages decide them, as no outage is proven early
GROWING = [(0.8, 0.0493125), (0.4, 0.9, 0.8, 0.0485)]


@pytest.mark.parametrize("args", GROWING)
def test_verdict_only_outage_needs_the_traced_stage_budget(args):
    """A traced outage of N rows is Undetermined at smaller budgets: a
    two-mode probe computes every stage of a failing run, so it gives the
    traced call's verdict at every budget. A one-mode probe runs no stage,
    so it fails at every budget."""
    rows = []
    assert _loop(args)(*args, rows=rows) is OUTAGE
    for max_iter in range(1, len(rows) + 2):
        probe = _loop(args)(*args, max_iter)
        if len(args) == 2:
            assert probe is OUTAGE, max_iter
        else:
            assert probe is _loop(args)(*args, max_iter, rows=[]), max_iter


@pytest.mark.parametrize("args", [(0.8, 0.04958), (0.3, 0.97, 0.55, 0.00575)])
def test_survival_bound_rejects_a_run_that_grows_again(args):
    """p dips below 1e-3 and then grows to an outage: unimodal just above
    the threshold, and two-mode while the upper floor still climbs from
    0.97 to capacity. A bound that let the ratio of successive p reach 1,
    or watched only the lower floor, would call either a survival."""
    assert _loop(args)(*args) is _loop(args)(*args, rows=[]) is OUTAGE


def _expm1_calls(fn, *args, **kwargs) -> int:
    """math.expm1 calls made by fn(*args, **kwargs): one per recursion stage."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "c_call" and arg is math.expm1:
            calls += 1

    sys.setprofile(count)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("args", [(0.8, 0.04925), (0.5, 0.9, 0.25, 0.0219375)])
def test_verdict_only_survivor_stops_early(args):
    """The threshold search's two-mode probes stop a surviving run once the
    bound proves it, and a one-mode probe computes no stage; a traced run
    computes every stage."""
    full = _expm1_calls(_loop(args), *args, rows=[])
    assert 2 * _expm1_calls(_loop(args), *args) <= full


@pytest.mark.parametrize("args,traced_rows", [(GROWING[0], 94)])
def test_verdict_only_outage_stops_early(args, traced_rows):
    """A one-mode probe, the closed form, computes no stage of a failing
    run; a traced run computes every stage."""
    rows = []
    assert _loop(args)(*args, rows=rows) is OUTAGE
    assert len(rows) == traced_rows
    full = _expm1_calls(_loop(args), *args, rows=[])
    assert 2 * _expm1_calls(_loop(args), *args) <= full


def test_every_exported_name_resolves():
    assert [n for n in gridcascade.__all__ if not hasattr(gridcascade, n)] == []


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("tracing")


def test_benchmark_tracer_finds_every_name_it_patches(monkeypatch):
    """perfbench/tracing.py patches names in gridcascade's modules by string;
    dropping or renaming one of them must fail tier-1, not only a benchmark
    run. Installing the tracer looks up every patched name."""
    tracing = _tracing(monkeypatch)
    originals = (threshold.run_recursion, cascade.ProcessPoolExecutor, harness.monte_carlo)
    with tracing.Tracer().install():
        assert threshold.run_recursion is not originals[0]
    assert (threshold.run_recursion, cascade.ProcessPoolExecutor,
            harness.monte_carlo) == originals


# the tracer wraps names that the trial loop and the search no longer call
BLIND = pytest.mark.xfail(strict=True,
                          reason="ROADMAP items 5 and 6: the tracer misses this layer")


@pytest.mark.parametrize("metric", [
    pytest.param("graph.draws", marks=BLIND),
    pytest.param("cascade.trials", marks=BLIND),
    pytest.param("cascade.stages", marks=BLIND),
    pytest.param("meanfield.steps", marks=BLIND),
    "cascade.load_draw_s",
    "threshold.evals",
])
def test_benchmark_tracer_sees_each_layer_of_the_work(monkeypatch, metric):
    """A traced Monte Carlo grid and threshold search must count work in
    every layer they run; a metric that reads 0 here is a blind spot."""
    tracing = _tracing(monkeypatch)
    with tracing.Tracer().install() as tracer:
        cascade.monte_carlo(5, (0.5, 1.0), UniformLoads(), 0.1, 3, 0)
        threshold.find_d_critical(DeltaLoads(0.8))
    assert tracer.metrics()[metric] > 0
