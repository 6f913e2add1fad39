"""Staged cascade engine for load-sharing networks.

A cascade starts from per-node loads (initial distribution plus one
exponential disturbance at stage 0) and proceeds in synchronous stages:
nodes at or above capacity 1 fail, their load is split equally among their
alive non-failing neighbors, and the next stage begins. Dead nodes never
receive load again. The process stops at the first stage with no failures.

Simultaneously failing nodes do not transfer load to each other. A failing
node with no alive non-failing neighbor simply drops its load.

The graph is never copied or written. Dead nodes carry load -inf, so the
loads at or above capacity are the failing nodes and the finite ones the
alive nodes. On a complete graph a stage adds one shared increment to every
load in place (-inf plus a share stays -inf); on any other graph it gathers
its (receivers x failing) edge block with two ``take`` calls into one float
copy, and makes two BLAS matrix-vector products of it: a ones vector times
the block gives the degrees, exactly, and the block times the failing loads
over their degrees gives the shares.

``run_cascade`` checks a graph's loads, then runs the one cascade loop,
``_cascade``. Monte Carlo trial ``k`` draws from its own substream,
``trial_rng(seed, k)``: first the graph's edge weights, then the loads, then
the shocks. None of these draws depends on the edge probability, so
``monte_carlo`` runs a sequence of edge probabilities trial by trial: one
draw and one check of its loads, then one ``_cascade`` per probability.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

# generate_er_graph: unused, but perfbench/tracing.py wraps it here
from .graph import (  # noqa: F401
    GraphTopology,
    check_count,
    check_graph_args,
    draw_weights,
    generate_er_graph,
    threshold_adjacency,
)
from .meanfield import check_disturbance, check_modes

# the ufunc reduction behind ndarray.sum, without the method wrapper
_sum = np.add.reduce


# --- initial load distributions -------------------------------------------

@dataclass(frozen=True)
class DeltaLoads:
    """Every node starts at the same load ``a0``."""

    a0: float

    def __post_init__(self):
        check_modes(self.a0, self.a0, 1.0)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(n, self.a0)


@dataclass(frozen=True)
class UniformLoads:
    """Initial loads i.i.d. Uniform[0, 1]."""

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.random(n)


@dataclass(frozen=True)
class BimodalLoads:
    """A fraction ``pa`` of nodes starts at ``a0``, the rest at ``b0``."""

    a0: float
    b0: float
    pa: float

    def __post_init__(self):
        check_modes(self.a0, self.b0, self.pa)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.where(rng.random(n) < self.pa, self.a0, self.b0)


LoadDistributionSpec = DeltaLoads | UniformLoads | BimodalLoads


def init_loads(n: int, spec: LoadDistributionSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw i.i.d. initial loads for ``n`` nodes."""
    check_count("node count", n)
    return spec.sample(n, rng)


def apply_disturbance(loads: np.ndarray, d_m: float, rng: np.random.Generator) -> np.ndarray:
    """Add independent Exponential(mean d_m) shocks to every node of the
    1-D array-like ``loads``, as a new float64 array."""
    check_disturbance(d_m)
    loads = np.asarray(loads, dtype=np.float64)
    if loads.ndim != 1:
        raise ValueError(f"loads must be 1-D, got shape {loads.shape}")
    _total(loads)  # raises unless the loads and their total are finite
    return loads + rng.exponential(d_m, size=loads.shape)


@np.errstate(over="ignore", invalid="ignore")
def _total(loads: np.ndarray) -> float:
    """The loads' sum, checked finite: one reduction that every NaN, inf or overflow spoils."""
    total = float(_sum(loads))
    if not math.isfinite(total):
        raise ValueError("loads must be finite" if not np.isfinite(loads).all()
                         else f"total load must be finite, got {total}")
    return total


# --- cascade stepping -----------------------------------------------------

@dataclass(frozen=True)
class CascadeOutcome:
    """Summary of a finished cascade."""

    termination_stage: int
    survivor_fraction: float
    failures_per_stage: tuple[int, ...]


def _stage(adj: np.ndarray | None, loads: np.ndarray, alive: int) -> tuple[int, float]:
    """One stage on adjacency ``adj`` (None: the complete graph) that writes
    ``loads``, with ``alive`` finite entries: (failures, dropped load)."""
    (idx,) = (loads >= 1.0).nonzero()
    if idx.size == 0:
        return 0, 0.0
    out = loads[idx]
    loads[idx] = -np.inf
    if alive == idx.size:
        return idx.size, float(_sum(out))
    if adj is None:
        loads += _sum(out / (alive - idx.size))
        return idx.size, 0.0
    (recv,) = (loads > -np.inf).nonzero()
    # recv and idx hold live nodes only, so the block holds every edge that
    # carries load this stage and no edge to a dead node. Columns are taken
    # first, so a stage copies n*|idx| bytes, not n*|recv|. The block is cast
    # to float once for two BLAS matrix-vector products: the degrees, which
    # are exact (integer column sums of a 0/1 block, in any order), and the
    # shares, whose last digits follow the BLAS kernel's summation order
    block = adj.take(idx, 1).take(recv, 0).astype(np.float64)
    deg = _ones(loads.size)[:recv.size].dot(block)
    dropped = 0.0
    if np.count_nonzero(deg) < deg.size:
        # a column with no recipient is all zero in the block, so a degree
        # of 1 makes its share add exactly 0 to every receiver
        orphan = deg == 0.0
        dropped = float(_sum(out[orphan]))
        deg[orphan] = 1.0
    loads[recv] += block.dot(out / deg)
    return idx.size, dropped


@lru_cache(maxsize=4)
def _ones(n: int) -> np.ndarray:
    """Read-only float ones of length ``n``; a prefix sums a block's columns."""
    ones = np.ones(n)
    ones.setflags(write=False)
    return ones


def run_cascade(g: GraphTopology, loads: np.ndarray) -> CascadeOutcome:
    """Iterate stages on a copy of ``loads`` until none fail; always
    terminates within n stages."""
    loads = np.array(loads, dtype=np.float64)
    if loads.shape != (g.n,):
        raise ValueError(f"expected {g.n} loads, got shape {loads.shape}")
    total = _total(loads)
    if np.minimum.reduce(loads, initial=0.0) < 0:
        raise ValueError("loads must be nonnegative")
    return _cascade(None if g.complete else g.adjacency, loads, total)


def _cascade(adj: np.ndarray | None, loads: np.ndarray, total: float) -> CascadeOutcome:
    """The cascade on adjacency ``adj`` (None: the complete graph) from
    ``loads``, which it owns and overwrites: nonnegative float64 loads whose
    sum ``total`` is finite, as ``_total`` checks. Failed nodes end at -inf."""
    alive = loads.size
    failures: list[int] = []
    dropped_total = 0.0
    while alive:  # once every node has failed, no stage can fail another
        k, dropped = _stage(adj, loads, alive)
        if k == 0:
            break
        failures.append(k)
        alive -= k
        dropped_total += dropped
    # account for the final load as initial minus dropped (x - 0.0 is x):
    # exact where the float-summed loads would pick up rounding noise, so an
    # all-or-nothing cascade reports f of exactly 1.0 or 0.0
    final = total - dropped_total if alive else 0.0
    return CascadeOutcome(len(failures), final / total if total > 0 else 1.0, tuple(failures))


# --- Monte Carlo ----------------------------------------------------------

@dataclass(frozen=True)
class AggregateStats:
    """Monte Carlo summary over independent cascade trials."""

    trials: int
    prob_no_outage: float
    mean_outage_fraction: float
    outcomes: tuple[CascadeOutcome, ...] = field(repr=False)


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Deterministic substream for one trial: PCG64 seeded from
    SeedSequence([master_seed, trial]). Independent of worker count."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, trial]))


@lru_cache(maxsize=1 << 12)
def _start_state(master_seed: int, k: int) -> dict:
    """The state ``trial_rng(master_seed, k)`` starts from, shared by every
    caller and only read. Every (nodes, d_m) run reuses trial indices
    0..trials-1, so each index is seeded once while the memo holds it."""
    return trial_rng(master_seed, k).bit_generator.state


def _trials(
    n: int, ps: tuple[float, ...], spec: LoadDistributionSpec, d_m: float,
    master_seed: int, ks: range,
) -> list[list[CascadeOutcome]]:
    """Trials ``ks`` in order, each as its outcomes at every edge
    probability in ``ps``, in order.

    One generator of this call's own is reset to each trial's start state,
    so the draws are those of ``trial_rng``. A trial draws its edge weights,
    loads and shocks once and runs the cascade on each ``p``'s graph: what a
    trial draws does not depend on ``p``, so each outcome is that of
    ``run_cascade`` on ``generate_er_graph`` at that ``p`` alone.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    rows = []
    for k in ks:
        rng.bit_generator.state = _start_state(master_seed, k)
        rows.append(_trial_row(n, ps, spec, d_m, rng))
    return rows


def _trial_row(
    n: int, ps: tuple[float, ...], spec: LoadDistributionSpec, d_m: float,
    rng: np.random.Generator,
) -> list[CascadeOutcome]:
    """One trial's outcomes at every edge probability in ``ps``, from one
    draw of its edge weights, loads and shocks, whose total is checked once.
    The loads are nonnegative: every load spec and every shock is."""
    weights = draw_weights(n, ps, rng)
    loads = apply_disturbance(init_loads(n, spec, rng), d_m, rng)
    total = _total(loads)
    *head, last = ps
    row = [_cascade(threshold_adjacency(p, weights), loads.copy(), total) for p in head]
    adj = threshold_adjacency(last, weights)
    # free the n * n weights before the last cascade, and the last adjacency
    # with this frame before the next trial draws: at a single p a trial
    # holds no more than one graph draw does
    del weights
    row.append(_cascade(adj, loads, total))
    return row


def monte_carlo(
    n: int, p: float | Sequence[float], spec: LoadDistributionSpec, d_m: float, trials: int,
    master_seed: int, workers: int = 1,
) -> AggregateStats | list[AggregateStats]:
    """Run independent trials at edge probability ``p``; results do not
    depend on ``workers``.

    Given a sequence of edge probabilities, return one ``AggregateStats``
    per entry, in order, each equal to that of a call at the entry alone.
    Trial ``k`` draws once and serves every entry. With ``workers > 1``,
    one pool runs chunks of 8 trial indices, each over every entry.
    """
    check_count("trials", trials)
    grid = np.ndim(p) > 0
    ps = tuple(p) if grid else (p,)
    check_graph_args(n, ps)
    check_disturbance(d_m)
    if not isinstance(spec, LoadDistributionSpec):
        raise TypeError(f"spec must be a load distribution spec, got {spec!r}")
    check_count("master_seed", master_seed, 0)
    check_count("workers", workers)
    run, ks = partial(_trials, n, ps, spec, d_m, master_seed), range(trials)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = pool.map(run, [ks[i:i + 8] for i in range(0, trials, 8)])  # in order
            rows = [row for chunk in chunks for row in chunk]
    else:
        rows = run(ks)
    stats = [_aggregate(outcomes) for outcomes in zip(*rows)]
    return stats if grid else stats[0]


def _aggregate(outcomes: tuple[CascadeOutcome, ...]) -> AggregateStats:
    fractions, n = [o.survivor_fraction for o in outcomes], len(outcomes)
    return AggregateStats(trials=n, prob_no_outage=fractions.count(1.0) / n,
                          mean_outage_fraction=float(1.0 - _sum(np.array(fractions)) / n),
                          outcomes=outcomes)
