import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gridcascade import (
    BimodalLoads,
    DeltaLoads,
    UniformLoads,
    apply_disturbance,
    generate_er_graph,
    init_loads,
    monte_carlo,
    run_cascade,
    trial_rng,
)
from gridcascade import cascade
from gridcascade.graph import GraphTopology, check_graph_args


def k3():
    return generate_er_graph(3, 1.0, np.random.default_rng(0))


def kernel_adj(g):
    """The adjacency ``cascade._stage`` steps ``g`` on: None for a complete graph."""
    return None if g.complete else g.adjacency


def run_trial(n, p, spec, d_m, rng):
    """The reference definition of one trial: a fresh graph, fresh loads and
    one disturbance, all drawn from ``rng``, then the cascade."""
    g = generate_er_graph(n, p, rng)
    loads = apply_disturbance(init_loads(n, spec, rng), d_m, rng)
    return run_cascade(g, loads)


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
        lambda: init_loads(0, DeltaLoads(0.8), np.random.default_rng(0)),
        lambda: BimodalLoads(0.0, 0.9, 0.5),
    ],
)
def test_invalid_load_specs_rejected(spec):
    with pytest.raises(ValueError):
        spec()


@pytest.mark.parametrize("n", [0, 5.0, True, np.int64(0)])
def test_node_count_must_be_an_integer_of_at_least_one(n):
    with pytest.raises(ValueError, match="node count must be an integer >= 1"):
        init_loads(n, UniformLoads(), np.random.default_rng(0))
    with pytest.raises(ValueError, match="node count must be an integer >= 1"):
        check_graph_args(n, (0.5,))


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


def test_disturbance_takes_any_1d_array_like_on_the_same_stream():
    loads = np.array([0.25, 0.5, 0.75])
    shocked = loads + np.random.default_rng(4).exponential(0.1, size=3)
    for same in (loads, [0.25, 0.5, 0.75], (0.25, 0.5, 0.75), loads.astype(np.float32)):
        out = apply_disturbance(same, 0.1, np.random.default_rng(4))
        assert out.dtype == np.float64
        assert out.tobytes() == shocked.tobytes()


@pytest.mark.parametrize("loads", [np.zeros((2, 3)), [[0.5, 0.5]], np.float64(0.5), 0.5])
def test_disturbance_rejects_loads_that_are_not_1d(loads):
    with pytest.raises(ValueError, match="loads must be 1-D"):
        apply_disturbance(loads, 0.1, np.random.default_rng(0))


# --- stepping -------------------------------------------------------------

def test_single_failure_splits_load_equally():
    g, loads = k3(), np.array([1.2, 0.3, 0.2])
    assert cascade._stage(kernel_adj(g), loads, 3)[0] == 1
    assert np.allclose(loads, [-np.inf, 0.9, 0.8])
    assert cascade._stage(kernel_adj(g), loads, 2)[0] == 0


def test_simultaneous_failures_do_not_transfer_to_each_other():
    g, loads = k3(), np.array([1.2, 0.5, 0.6])
    assert cascade._stage(kernel_adj(g), loads, 3)[0] == 1
    assert np.allclose(loads, [-np.inf, 1.1, 1.2])
    # nodes 1 and 2 fail together with no alive neighbor left: loads dropped
    assert cascade._stage(kernel_adj(g), loads, 2)[0] == 2
    assert (loads == -np.inf).all()


def test_stable_state_is_unchanged():
    loads = np.array([0.4, 0.5, 0.6])
    assert cascade._stage(kernel_adj(k3()), loads, 3) == (0, 0.0)
    assert loads.tolist() == [0.4, 0.5, 0.6]


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


def test_hand_built_incomplete_graph_never_takes_the_shift_path():
    # path 0-1-2 labelled edge_prob=1.0: node 0's load all goes to node 1
    adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)
    g = GraphTopology(3, adj, 1.0)
    loads = np.array([1.2, 0.3, 0.2])
    assert cascade._stage(kernel_adj(g), loads, 3)[0] == 1
    assert np.allclose(loads, [-np.inf, 1.5, 0.2])
    assert run_cascade(g, np.array([1.2, 0.3, 0.2])).failures_per_stage == (1, 1, 1)


@pytest.mark.parametrize("p", [0.3, 1.0])
def test_cascade_leaves_the_graph_unchanged(p):
    g = generate_er_graph(40, p, np.random.default_rng(4))
    before = g.adjacency.copy()
    loads = np.random.default_rng(5).random(40) * 1.5
    assert run_cascade(g, loads).termination_stage > 0
    assert (g.adjacency == before).all()
    assert not g.adjacency.flags.writeable


@pytest.mark.parametrize("n", [2, 4])
def test_wrong_number_of_loads_is_rejected(n):
    with pytest.raises(ValueError, match="expected 3 loads"):
        run_cascade(k3(), np.full(n, 0.5))


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


def test_run_cascade_leaves_the_callers_loads_unchanged():
    g = generate_er_graph(30, 0.3, np.random.default_rng(2))
    loads = np.random.default_rng(3).random(30) * 1.5
    before = loads.copy()
    assert run_cascade(g, loads).termination_stage > 0
    assert (loads == before).all()


def test_isolated_failing_node_drops_load():
    g = generate_er_graph(2, 0.0, np.random.default_rng(0))
    out = run_cascade(g, np.array([1.5, 0.5]))
    assert out.survivor_fraction == pytest.approx(0.25)
    # the final load, f times the initial 2.0, is node 1's 0.5
    assert out.survivor_fraction * 2.0 == pytest.approx(0.5)


def test_orphan_drops_its_load_while_a_neighbor_of_the_same_stage_shares():
    # edges 0-1, 0-2, 0-3, 0-4, 3-4, on a graph never flagged complete.
    # Stage 1: node 4 fails and gives 0.75 to each of nodes 0 and 3. Stage 2:
    # both fail; node 0 splits 1.0 between nodes 1 and 2, while node 3 has
    # only node 0 (failing) and node 4 (dead) and drops its 1.25.
    adj = np.zeros((5, 5), dtype=bool)
    for i, j in [(0, 1), (0, 2), (0, 3), (0, 4), (3, 4)]:
        adj[i, j] = adj[j, i] = True
    adj.setflags(write=False)
    g = GraphTopology(5, adj, 0.5)
    loads = np.array([0.25, 0.25, 0.25, 0.5, 1.5])
    staged = loads.copy()
    assert cascade._stage(kernel_adj(g), staged, 5) == (1, 0.0)
    assert staged.tolist() == [1.0, 0.25, 0.25, 1.25, -np.inf]
    assert cascade._stage(kernel_adj(g), staged, 4) == (2, 1.25)
    assert staged.tolist() == [-np.inf, 0.75, 0.75, -np.inf, -np.inf]
    assert loads.sum() == 2.75
    assert staged[staged > -np.inf].sum() == 2.75 - 1.25
    out = run_cascade(g, loads)
    assert out.failures_per_stage == (1, 2)
    assert out.survivor_fraction == 1.5 / 2.75


def reference_stage(adj, loads, alive):
    """The stage in the masked formulation, on adjacency ``adj`` (None: the
    complete graph): dead nodes carry load 0 and a bool ``alive`` mask, which
    it writes. A complete-graph stage adds its share to the receivers only; a
    general-graph stage gathers its block with a 2-D fancy index, reduces the
    degrees cast from bool and matmuls the bool block. ``_stage`` must match
    it byte for byte on the alive loads."""
    (idx,) = (loads >= 1.0).nonzero()
    if idx.size == 0:
        return 0, 0.0
    alive[idx] = False
    (recv,) = alive.nonzero()
    out = loads[idx]
    loads[idx] = 0.0
    if adj is None:
        if not recv.size:
            return idx.size, float(np.add.reduce(out))
        loads[recv] += np.add.reduce(out / recv.size)
        return idx.size, 0.0
    block = adj[recv[:, None], idx]
    deg = np.add.reduce(block, axis=0, dtype=np.float64)
    dropped = 0.0
    if not np.logical_and.reduce(deg):
        orphan = deg == 0.0
        dropped = float(np.add.reduce(out[orphan]))
        deg[orphan] = 1.0
    loads[recv] += block @ (out / deg)
    return idx.size, dropped


def stage_cases(rng):
    """(graph, loads, alive) states in the masked formulation: n from 1 to
    2,000, dead nodes at load 0, complete graphs, sparse graphs with orphan
    columns, single failures and stages that leave no receiver."""
    for n in np.unique(np.geomspace(1, 2000, 40).astype(int)):
        for p in (0.0, min(2.0 / n, 1.0), 0.3, 1.0):
            if p == 1.0:
                g = generate_er_graph(int(n), p, rng)
            else:
                upper = np.triu(rng.random((n, n), dtype=np.float32) < p, 1)
                adj = upper | upper.T
                adj.setflags(write=False)
                g = GraphTopology(int(n), adj, p)
            for kind in ("mixed", "one", "all", "mixed"):
                alive = rng.random(n) >= rng.choice([0.0, 0.3, 0.9])
                loads = rng.random(n) * rng.choice([1.02, 1.3, 3.0])
                if kind == "one":
                    loads = np.minimum(loads, 0.99)
                    loads[rng.integers(n)] = 1.5
                elif kind == "all":
                    loads += 1.0
                loads[~alive] = 0.0
                yield g, loads, alive


def test_stage_matches_the_reference_formulation_byte_for_byte():
    seen = {"one": 0, "no_receiver": 0, "orphan": 0, "shared": 0, "complete": 0}
    for g, loads, alive in stage_cases(np.random.default_rng(13)):
        # the same state with dead nodes at -inf
        got_loads = np.where(alive, loads, -np.inf)
        ref_loads, ref_alive = loads.copy(), alive.copy()
        got = cascade._stage(kernel_adj(g), got_loads, int(np.count_nonzero(alive)))
        ref = reference_stage(kernel_adj(g), ref_loads, ref_alive)
        assert repr(got) == repr(ref)
        assert (got_loads > -np.inf).tobytes() == ref_alive.tobytes()
        assert got_loads[ref_alive].tobytes() == ref_loads[ref_alive].tobytes()
        shared = (ref_loads[ref_alive] != loads[ref_alive]).any()
        seen["one"] += got[0] == 1
        seen["no_receiver"] += got[0] > 0 and not ref_alive.any()
        seen["orphan"] += got[1] > 0.0
        seen["shared"] += shared
        seen["complete"] += g.complete and shared
    assert min(seen.values()) >= 10, seen


# Run in a fresh interpreter, since OpenBLAS picks its kernel when it loads:
# the stage check above, then `.dot` against `@` and the ones-vector degrees
# against the ufunc column sums on random 0/1 blocks; prints the kernel name.
KERNEL_CHECK = """
import ctypes, sys
sys.path[:0] = sys.argv[1:]
import numpy as np
import test_cascade
from gridcascade import cascade
test_cascade.test_stage_matches_the_reference_formulation_byte_for_byte()
rng = np.random.default_rng(23)
for _ in range(3000):
    m, k = rng.integers(1, 300), rng.integers(1, 64)
    block = (rng.random((m, k)) < rng.random()).astype(np.float64)
    v = rng.random(k) * rng.choice([1.0, 1e-3, 1e3])
    assert block.dot(v).tobytes() == (block @ v).tobytes()
    assert cascade._ones(m).dot(block).tobytes() == np.add.reduce(block, axis=0).tobytes()
try:  # the loaded library, on Linux
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
except OSError:
    libs = []
names = [getattr(ctypes.CDLL(lib), f, None) for lib in libs
         for f in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                   "openblas_get_corename")]
corename = next((f for f in names if f is not None), None)
if corename is not None:
    corename.restype = ctypes.c_char_p
    print(corename().decode())
"""


def _blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict of its build
        return ""


@pytest.mark.skipif("openblas" not in _blas_name(), reason="numpy's BLAS is not OpenBLAS")
def test_stage_results_do_not_depend_on_the_openblas_kernel():
    """The degrees are exact and the share product is the reference's own
    BLAS call, under an AVX2 kernel and under a pre-AVX one."""
    src = str(Path(cascade.__file__).parents[1])
    procs = [subprocess.Popen(
        [sys.executable, "-c", KERNEL_CHECK, str(Path(__file__).parent), src],
        env=dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) for core in ("Haswell", "Prescott")]
    try:
        outs = [proc.communicate(timeout=120) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    for proc, (out, err) in zip(procs, outs):
        assert proc.returncode == 0, err
    kernels = [out.strip() for out, _ in outs]
    if all(kernels):  # where the kernel's name can be read, the two differ
        assert kernels[0] != kernels[1], kernels


def reference_cascade(loads, total):
    """``_cascade`` on the complete graph, stepped by ``reference_stage``."""
    alive, failures, dropped = np.ones(loads.size, dtype=bool), [], 0.0
    while (step := reference_stage(None, loads, alive))[0]:
        failures.append(step[0])
        dropped += step[1]
    final = 0.0 if sum(failures) == loads.size else total - dropped
    return cascade.CascadeOutcome(len(failures), final / total if total > 0 else 1.0,
                                  tuple(failures))


def test_complete_graph_cascade_matches_the_masked_formulation():
    """20,000 fuzzed complete-graph trials: delta, two-mode and uniform
    loads, with d_m on either side of the first two's thresholds (about
    0.049 and 0.048)."""
    specs = (DeltaLoads(0.8), BimodalLoads(0.4, 0.9, 0.8), UniformLoads())
    d_ms = (0.01, 0.03, 0.045, 0.055, 0.07, 0.2)
    rng = np.random.default_rng(22)
    seen = set()
    for n, trials in ((1, 7000), (2, 7000), (50, 5000), (5000, 1000)):
        for _ in range(trials):
            spec, d_m = specs[rng.integers(3)], d_ms[rng.integers(6)]
            loads = apply_disturbance(init_loads(n, spec, rng), d_m, rng)
            total = cascade._total(loads)
            got = cascade._cascade(None, loads.copy(), total)
            assert repr(got) == repr(reference_cascade(loads, total))
            seen.add((n, got.termination_stage > 0, got.survivor_fraction))
    # every n sees a cascade-free trial and an outage, and n = 50 and 5000 a
    # cascade that stops with survivors (at n = 2 the one receiver of a load
    # of 1 or more always fails too)
    assert seen >= {(n, False, 1.0) for n in (1, 2, 50, 5000)} | {
        (n, True, 0.0) for n in (1, 2, 50, 5000)} | {(n, True, 1.0) for n in (50, 5000)}


# sha256 of the repr of every CascadeOutcome field, then the initial and
# final load totals, of 60 trials (uniform loads, d_m 0.1, master seed 42)
# per (n, p), recorded from the stage kernel that gathered its block with
# np.ix_. The stage matvec's summation order shows in the last digits at
# n=50, p=0.1, so any reordering fails there.
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


def stepped_trial(n, p, rng):
    """``run_trial``'s outcome fields with the initial and final load totals,
    stepping the cascade stage by stage and summing the dropped load."""
    g = generate_er_graph(n, p, rng)
    loads = apply_disturbance(init_loads(n, UniformLoads(), rng), 0.1, rng)
    total, dropped = float(np.add.reduce(loads)), 0.0
    alive, failures = n, []
    while (step := cascade._stage(kernel_adj(g), loads, alive))[0]:
        failures.append(step[0])
        alive -= step[0]
        dropped += step[1]
    final = 0.0 if sum(failures) == n else total - dropped
    return len(failures), final / total if total > 0 else 1.0, tuple(failures), total, final


@pytest.mark.parametrize("n,p", sorted(STAGE_GOLDEN))
def test_stage_kernel_matches_golden_digest(n, p):
    h = hashlib.sha256()
    for k in range(60):
        fields = stepped_trial(n, p, trial_rng(42, k))
        out = run_trial(n, p, UniformLoads(), 0.1, trial_rng(42, k))
        assert dataclasses.astuple(out) == fields[:3]
        h.update(repr(fields).encode())
    assert h.hexdigest() == STAGE_GOLDEN[n, p]


# --- Monte Carlo ----------------------------------------------------------

def test_complete_graph_outcomes_are_all_or_nothing():
    stats = monte_carlo(20, 1.0, UniformLoads(), 0.1, 200, master_seed=7)
    assert {o.survivor_fraction for o in stats.outcomes} <= {0.0, 1.0}
    assert stats.prob_no_outage == pytest.approx(
        1.0 - stats.mean_outage_fraction
    )


def test_aggregate_matches_the_np_mean_formulation():
    """20,000 random tuples of 1 to 300 outcomes, with ties at 0 and 1:
    ``_aggregate``'s two figures equal ``np.mean``'s bit for bit."""
    rng = np.random.default_rng(22)
    fractions = np.concatenate([[1.0, 0.0], rng.random(4094), 1.0 - rng.random(1024) * 1e-15])
    pool = [cascade.CascadeOutcome(1, float(f), (1,)) for f in fractions]
    for _ in range(20_000):
        size = int(rng.integers(1, 301))
        ones, zeros = rng.random(2) * [1.0, 0.5]
        u = rng.random(size)
        idx = np.where(u < ones, 0, np.where(u < ones + zeros, 1, rng.integers(2, len(pool), size)))
        outcomes = tuple(map(pool.__getitem__, idx.tolist()))
        got = cascade._aggregate(outcomes)
        ref = fractions[idx]
        assert got.trials == size and got.outcomes is outcomes
        assert repr((got.prob_no_outage, got.mean_outage_fraction)) == repr(
            (float(np.mean(ref == 1.0)), float(1.0 - ref.mean())))


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
    assert ([o.survivor_fraction for o in serial.outcomes]
            == [o.survivor_fraction for o in parallel.outcomes])
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
    calls, cascade_loop = [], cascade._cascade

    def fail_on_third(adj, loads, total):
        calls.append(None)  # the graph and the loads are drawn by now
        if len(calls) == 3:
            raise RuntimeError("stop")
        return cascade_loop(adj, loads, total)

    monkeypatch.setattr(cascade, "_cascade", fail_on_third)
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


def test_trials_past_the_memo_bound_keep_their_substreams():
    # the memo of start states evicts its oldest indices past its bound, so
    # an index seeded again must still start where trial_rng starts
    bound = cascade._start_state.cache_info().maxsize
    cascade._start_state.cache_clear()
    stats = monte_carlo(2, 1.0, UniformLoads(), 0.5, bound + 40, 8)
    assert cascade._start_state.cache_info().currsize == bound
    for k, out in enumerate(stats.outcomes):
        assert out == run_trial(2, 1.0, UniformLoads(), 0.5, trial_rng(8, k))


def test_alternating_seeds_reuse_the_memo():
    cascade._start_state.cache_clear()
    runs = [monte_carlo(12, 0.3, UniformLoads(), 0.1, 25, seed) for seed in (1, 2, 1, 2)]
    info = cascade._start_state.cache_info()
    assert (info.misses, info.hits) == (50, 50)
    assert runs[0] == runs[2] and runs[1] == runs[3] and runs[0] != runs[1]


# unsorted, with a duplicate and both ends of [0, 1]; and an all-complete
# grid, whose trials advance past the weights instead of drawing them
EDGE_PROB_GRIDS = [(0.5, 0.0, 1.0, 0.2, 0.5), (1.0, 1.0)]
GRID_LOADS = [UniformLoads(), DeltaLoads(0.7), BimodalLoads(0.3, 0.8, 0.4)]


@pytest.mark.parametrize("ps", EDGE_PROB_GRIDS)
@pytest.mark.parametrize("spec", GRID_LOADS, ids=lambda spec: type(spec).__name__)
@pytest.mark.parametrize("workers", [1, 2])
def test_grid_entry_j_is_the_scalar_call_at_p_j(workers, spec, ps):
    grid = monte_carlo(20, ps, spec, 0.1, 19, 3, workers=workers)
    assert isinstance(grid, list) and len(grid) == len(ps)
    for p, stats in zip(ps, grid):
        alone = monte_carlo(20, p, spec, 0.1, 19, 3)
        assert isinstance(alone, cascade.AggregateStats)
        assert stats.outcomes == alone.outcomes
        assert stats == alone


@pytest.mark.parametrize("ps", [
    (0.5, 1.5), (-0.1, 0.5), (0.2, math.nan, 1.0), (0.5, 1.0, math.inf), []])
@pytest.mark.parametrize("workers", [1, 2])
def test_grid_rejects_any_bad_edge_prob_before_any_trial(monkeypatch, workers, ps):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial or a pool started before the grid was checked")

    monkeypatch.setattr(cascade, "_trials", no_trials)
    monkeypatch.setattr(cascade, "ProcessPoolExecutor", no_trials)
    with pytest.raises(ValueError, match="edge probability"):
        monte_carlo(10, ps, UniformLoads(), 0.1, 20, 1, workers=workers)


@pytest.mark.parametrize("d_m,spec,error,match,overrides", [
    (-1.0, UniformLoads(), ValueError, "disturbance mean", {}),
    (0.0, UniformLoads(), ValueError, "disturbance mean", {}),
    (math.nan, UniformLoads(), ValueError, "disturbance mean", {}),
    (0.1, "uniform", TypeError, "load distribution spec", {}),
    (0.1, UniformLoads(), ValueError, "master_seed", {"master_seed": -1}),
    (0.1, UniformLoads(), ValueError, "master_seed", {"master_seed": 1.5}),
    (0.1, UniformLoads(), ValueError, "workers", {"workers": 0}),
    (0.1, UniformLoads(), ValueError, "workers", {"workers": -2}),
    (0.1, UniformLoads(), ValueError, "workers", {"workers": 1.5}),
])
@pytest.mark.parametrize("workers", [1, 2])
def test_monte_carlo_rejects_a_bad_disturbance_or_spec_before_any_trial(
        monkeypatch, workers, d_m, spec, error, match, overrides):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial or a pool started before the arguments were checked")

    monkeypatch.setattr(cascade, "_trials", no_trials)
    monkeypatch.setattr(cascade, "ProcessPoolExecutor", no_trials)
    with pytest.raises(error, match=match):
        monte_carlo(10, 0.5, spec, d_m, 20, **{"master_seed": 1, "workers": workers, **overrides})


@pytest.mark.parametrize("arg,value", [
    ("n", 5.0), ("n", True), ("trials", 2.5), ("trials", True),
    ("master_seed", True), ("workers", True),
])
@pytest.mark.parametrize("workers", [1, 2])
def test_monte_carlo_rejects_a_count_that_is_not_an_integer_before_any_trial(
        monkeypatch, workers, arg, value):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial or a pool started before the arguments were checked")

    monkeypatch.setattr(cascade, "_trials", no_trials)
    monkeypatch.setattr(cascade, "ProcessPoolExecutor", no_trials)
    args = {"n": 10, "p": 0.5, "spec": UniformLoads(), "d_m": 0.1, "trials": 20,
            "master_seed": 1, "workers": workers, arg: value}
    with pytest.raises(ValueError, match=f"{'node count' if arg == 'n' else arg} must be an integer"):
        monte_carlo(**args)


def test_monte_carlo_takes_numpy_integer_counts():
    i = np.int64
    assert monte_carlo(i(10), 0.5, UniformLoads(), 0.1, i(6), i(3), workers=i(1)) == \
        monte_carlo(10, 0.5, UniformLoads(), 0.1, 6, 3)


# shocked loads that only the per-trial check of the draw guards: one shock
# overflows to inf, or every load is finite and their total is not
@pytest.mark.parametrize("n,d_m,p,match", [
    (20, 1e308, 0.5, "loads must be finite"),
    (20, 1e308, (0.5, 1.0), "loads must be finite"),
    (1000, 1e306, 0.0, "total load must be finite"),
    (1000, 1e306, (0.0, 1.0), "total load must be finite"),
])
@pytest.mark.parametrize("workers", [1, 2])
def test_monte_carlo_rejects_shocked_loads_that_are_not_finite(workers, n, d_m, p, match):
    with pytest.raises(ValueError, match=match):
        monte_carlo(n, p, UniformLoads(), d_m, 3, 0, workers=workers)


def test_single_p_trials_peak_like_one_draw():
    # one trial's weights (8 n^2 bytes) and adjacency (n^2) are all it needs
    # at once: the weights must be freed before its cascade and before the
    # next trial draws, or two float matrices are held together
    n = 1000
    cascade._trials(2, (0.5,), UniformLoads(), 0.1, 7, range(1))  # lazy imports
    tracemalloc.start()
    try:
        rows = cascade._trials(n, (0.5,), UniformLoads(), 0.1, 7, range(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 2
    assert peak <= 1.2 * 8 * n * n


def test_monte_carlo_rejects_zero_trials():
    with pytest.raises(ValueError):
        monte_carlo(10, 0.5, UniformLoads(), 0.1, 0, master_seed=1)
