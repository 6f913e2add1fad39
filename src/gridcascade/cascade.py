"""Staged cascade engine for load-sharing networks.

A cascade starts from per-node loads (initial distribution plus one
exponential disturbance at stage 0) and proceeds in synchronous stages:
nodes at or above capacity 1 fail, their load is split equally among their
alive non-failing neighbors, and the next stage begins. Dead nodes never
receive load again. The process stops at the first stage with no failures.

Simultaneously failing nodes do not transfer load to each other. A failing
node with no alive non-failing neighbor simply drops its load.

The graph is never copied or written. On a complete graph every failing node
neighbors every receiver, so each stage is one shared increment instead of
a matrix-vector product.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .graph import GraphTopology, generate_er_graph


# --- initial load distributions -------------------------------------------

@dataclass(frozen=True)
class DeltaLoads:
    """Every node starts at the same load ``a0``."""

    a0: float

    def __post_init__(self):
        if not 0.0 < self.a0 < 1.0:
            raise ValueError(f"a0 must be in (0, 1), got {self.a0}")

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
        if not 0.0 < self.a0 < 1.0:
            raise ValueError(f"a0 must be in (0, 1), got {self.a0}")
        if not 0.0 < self.b0 < 1.0:
            raise ValueError(f"b0 must be in (0, 1), got {self.b0}")
        if self.a0 > self.b0:
            raise ValueError(f"need a0 <= b0, got a0={self.a0}, b0={self.b0}")
        if not 0.0 <= self.pa <= 1.0:
            raise ValueError(f"pa must be in [0, 1], got {self.pa}")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.where(rng.random(n) < self.pa, self.a0, self.b0)


LoadDistributionSpec = DeltaLoads | UniformLoads | BimodalLoads


def init_loads(n: int, spec: LoadDistributionSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw i.i.d. initial loads for ``n`` nodes."""
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    return spec.sample(n, rng)


def apply_disturbance(loads: np.ndarray, d_m: float, rng: np.random.Generator) -> np.ndarray:
    """Add independent Exponential(mean d_m) shocks to every node."""
    if not (math.isfinite(d_m) and d_m > 0):
        raise ValueError(f"disturbance mean must be finite and > 0, got {d_m}")
    if not np.isfinite(loads).all():
        raise ValueError("loads must be finite")
    return loads + rng.exponential(d_m, size=loads.shape)


# --- cascade state and stepping -------------------------------------------

@dataclass
class CascadeState:
    """Mutable snapshot of a running cascade on a fixed graph.

    The graph is shared, never copied or written: dead nodes are masked out
    by ``alive`` rather than losing their edges. Dead nodes carry load 0.
    """

    graph: GraphTopology
    loads: np.ndarray
    alive: np.ndarray
    stage: int

    @property
    def adjacency(self) -> np.ndarray:
        return self.graph.adjacency

    @classmethod
    def from_graph(cls, g: GraphTopology, loads: np.ndarray) -> "CascadeState":
        loads = np.asarray(loads, dtype=np.float64)
        if loads.shape != (g.n,):
            raise ValueError(f"expected {g.n} loads, got shape {loads.shape}")
        if not np.isfinite(loads).all():
            raise ValueError("loads must be finite")
        if np.any(loads < 0):
            raise ValueError("loads must be nonnegative")
        return cls(graph=g, loads=loads.copy(), alive=np.ones(g.n, dtype=bool), stage=0)


@dataclass(frozen=True)
class CascadeOutcome:
    """Summary of a finished cascade."""

    termination_stage: int
    survivor_fraction: float
    failures_per_stage: tuple[int, ...]
    total_initial_load: float
    total_final_load: float


def step_cascade(state: CascadeState) -> tuple[CascadeState, int]:
    """Run one synchronous failure-and-redistribution stage.

    Returns the successor state and the number of nodes that failed. A
    stage with zero failures leaves the state unchanged (the cascade has
    terminated).
    """
    new = CascadeState(
        graph=state.graph,
        loads=state.loads.copy(),
        alive=state.alive.copy(),
        stage=state.stage,
    )
    failed, _ = _step_inplace(new)
    return new, failed


def _step_inplace(state: CascadeState) -> tuple[int, float]:
    """One stage, mutating the state. Returns (failures, dropped load).

    Load only leaves the system when a failing node has no alive
    non-failing neighbor; edges inside the failing set never carry load.
    """
    loads, alive = state.loads, state.alive
    (idx,) = (alive & (loads >= 1.0)).nonzero()
    if idx.size == 0:
        return 0, 0.0
    alive[idx] = False
    (recv,) = alive.nonzero()
    out = loads[idx]
    loads[idx] = 0.0
    dropped = 0.0
    if state.graph.complete:
        if recv.size:
            loads[recv] += (out / recv.size).sum()
        else:
            dropped = float(out.sum())
    else:
        # recv and idx hold live nodes only, so the block holds every edge
        # that carries load this stage and no edge to a dead node
        block = state.graph.adjacency[recv[:, None], idx]
        deg = block.sum(axis=0, dtype=np.float64)
        if not deg.all():
            # a column with no recipient is all zero in the block, so a
            # degree of 1 makes its share add exactly 0 to every receiver
            orphan = deg == 0.0
            dropped = float(out[orphan].sum())
            deg[orphan] = 1.0
        loads[recv] += block @ (out / deg)
    state.stage += 1
    return idx.size, dropped


def run_cascade(g: GraphTopology, loads: np.ndarray) -> CascadeOutcome:
    """Iterate stages until none fail; always terminates within n stages."""
    state = CascadeState.from_graph(g, loads)
    total_initial = float(state.loads.sum())
    failures: list[int] = []
    dropped_total = 0.0
    while True:
        k, dropped = _step_inplace(state)
        if k == 0:
            break
        failures.append(k)
        dropped_total += dropped
    # account for the final load as initial minus dropped: exact where the
    # float-summed loads would pick up rounding noise, so an all-or-nothing
    # cascade reports f of exactly 1.0 or 0.0
    if not state.alive.any():
        total_final = 0.0
    elif dropped_total == 0.0:
        total_final = total_initial
    else:
        total_final = total_initial - dropped_total
    f = total_final / total_initial if total_initial > 0 else 1.0
    return CascadeOutcome(
        termination_stage=state.stage,
        survivor_fraction=f,
        failures_per_stage=tuple(failures),
        total_initial_load=total_initial,
        total_final_load=total_final,
    )


# --- Monte Carlo ----------------------------------------------------------

@dataclass(frozen=True)
class AggregateStats:
    """Monte Carlo summary over independent cascade trials."""

    trials: int
    prob_no_outage: float
    mean_outage_fraction: float
    per_trial_fractions: tuple[float, ...]
    outcomes: tuple[CascadeOutcome, ...] = field(repr=False, default=())


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Deterministic substream for one trial: PCG64 seeded from
    SeedSequence([master_seed, trial]). Independent of worker count."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, trial]))


def run_trial(
    n: int,
    p: float,
    spec: LoadDistributionSpec,
    d_m: float,
    rng: np.random.Generator,
) -> CascadeOutcome:
    """One full realization: fresh graph, fresh loads, one disturbance."""
    g = generate_er_graph(n, p, rng)
    loads = apply_disturbance(init_loads(n, spec, rng), d_m, rng)
    return run_cascade(g, loads)


def _trial_task(args) -> CascadeOutcome:
    n, p, spec, d_m, master_seed, k = args
    return run_trial(n, p, spec, d_m, trial_rng(master_seed, k))


def monte_carlo(
    n: int,
    p: float,
    spec: LoadDistributionSpec,
    d_m: float,
    trials: int,
    master_seed: int,
    workers: int = 1,
) -> AggregateStats:
    """Run independent trials; results do not depend on ``workers``."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    tasks = [(n, p, spec, d_m, master_seed, k) for k in range(trials)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = tuple(pool.map(_trial_task, tasks, chunksize=8))  # in task order
    else:
        outcomes = tuple(map(_trial_task, tasks))
    fractions = np.array([o.survivor_fraction for o in outcomes])
    return AggregateStats(
        trials=trials,
        prob_no_outage=float(np.mean(fractions == 1.0)),
        mean_outage_fraction=float(1.0 - fractions.mean()),
        per_trial_fractions=tuple(fractions),
        outcomes=outcomes,
    )


# --- large-N redistributed-load limit -------------------------------------

@dataclass(frozen=True)
class RedistributionLimitCheck:
    """Empirical vs predicted per-survivor redistributed load after stage 0.

    For constant initial load a0 plus Exponential(d_m) noise, the total
    failed load divided by the survivor count converges (N -> inf) to
    p0/(1-p0) * (1+d_m) with p0 = exp(-(1-a0)/d_m).
    """

    empirical: float
    predicted: float
    survivors: int
    failed: int


def validate_redistribution_limit(
    n: int, a0: float, d_m: float, rng: np.random.Generator
) -> RedistributionLimitCheck:
    """Empirically check the large-N limit of the stage-0 redistributed load.

    A draw with zero survivors is reported (empirical = inf), not raised.
    """
    loads = apply_disturbance(init_loads(n, DeltaLoads(a0), rng), d_m, rng)
    failed = loads >= 1.0
    n_failed = int(failed.sum())
    n_survive = n - n_failed
    empirical = float(loads[failed].sum()) / n_survive if n_survive > 0 else math.inf
    p0 = math.exp(-(1.0 - a0) / d_m)
    predicted = p0 / (1.0 - p0) * (1.0 + d_m)
    return RedistributionLimitCheck(
        empirical=empirical, predicted=predicted, survivors=n_survive, failed=n_failed
    )
