"""Cascading-failure simulator and mean-field solver for load-sharing networks."""

__version__ = "0.1.0"

from .cascade import (
    AggregateStats,
    BimodalLoads,
    CascadeOutcome,
    DeltaLoads,
    UniformLoads,
    apply_disturbance,
    init_loads,
    monte_carlo,
    run_cascade,
    trial_rng,
)
from .graph import generate_er_graph
from .meanfield import (
    BimodalState,
    Branch,
    MeanFieldState,
    Verdict,
    run_bimodal,
    run_recursion,
)
from .threshold import (
    FixedMeanSweepRow,
    NonMonotoneError,
    ThresholdResult,
    UnimodalSweepRow,
    coarse_scan,
    find_d_critical,
    sweep_bimodal_fixed_mean,
    sweep_dcrit_vs_a0,
)

__all__ = [
    "AggregateStats",
    "BimodalLoads",
    "BimodalState",
    "Branch",
    "CascadeOutcome",
    "DeltaLoads",
    "FixedMeanSweepRow",
    "MeanFieldState",
    "NonMonotoneError",
    "ThresholdResult",
    "UniformLoads",
    "UnimodalSweepRow",
    "Verdict",
    "apply_disturbance",
    "coarse_scan",
    "find_d_critical",
    "generate_er_graph",
    "init_loads",
    "monte_carlo",
    "run_bimodal",
    "run_cascade",
    "run_recursion",
    "sweep_bimodal_fixed_mean",
    "sweep_dcrit_vs_a0",
    "trial_rng",
]
