"""Scalar recursion for the infinite fully connected network, constant loads.

With every node starting at load a0 and one Exponential(d_m) shock, the
surviving-load distribution stays a truncated shifted exponential at every
stage, so the whole system is captured by four scalars per stage:

    a_n   effective load floor (initial load plus all inherited shares)
    p_n   probability an alive node fails this stage
    D_n   redistributed load added to every survivor
    mu    mean load of the nodes that just failed

The cascade dies out when p_n -> 0 (floor stays below capacity) and ends
in a complete outage when the floor is pushed to capacity 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class Verdict(str, enum.Enum):
    RUNNING = "running"
    SURVIVES = "survives"
    COMPLETE_OUTAGE = "complete_outage"
    UNDETERMINED = "undetermined"


# bound once: looking an enum member up on its class is slow on Python 3.11
RUNNING, SURVIVES, COMPLETE_OUTAGE, UNDETERMINED = Verdict


@dataclass(frozen=True)
class MeanFieldState:
    """One stage of the scalar recursion."""

    n: int
    a_n: float
    p_n: float
    D_n: float
    mu_prev: float
    d_m: float
    verdict: Verdict = Verdict.RUNNING


def failure_probability(a0: float, d_m: float) -> float:
    """P(a0 + Exponential(d_m) >= 1) = exp(-(1-a0)/d_m)."""
    return math.exp(-(1.0 - a0) / d_m)


def mean_failed_load(D: float, d_m: float) -> float:
    """Mean load of nodes pushed past capacity by a shift D: always in
    (1, 1+d_m]; the D -> 0 limit is 1 + d_m - d_m = 1."""
    if D <= 0:
        return 1.0
    denom = math.expm1(D / d_m)
    if denom == 0.0 or math.isinf(denom):
        return 1.0 if denom == 0.0 else 1.0 + d_m
    return 1.0 + d_m - D / denom


def iterate(first, step, params, max_iter: int, tol: float):
    """The verdict and every stage row, from the stage-1 ``(verdict, row)``
    pair ``first`` and ``step(row, params)``. A row is a tuple of one
    stage's scalars, ``(n, a_n, p_n, D_n, mu_prev)`` here, extended by the
    two-mode recursion; no state object is built per stage."""
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    verdict, row = first
    rows = [row]
    for _ in range(max_iter):
        if verdict is not RUNNING:
            return verdict, rows
        if row[2] < tol:
            return SURVIVES, rows
        verdict, row = step(row, params)
        rows.append(row)
    return (UNDETERMINED if verdict is RUNNING else verdict), rows


def next_failure_probability(q: float, D: float, d_m: float) -> float:
    """q/(1-q) * (e^(D/d_m) - 1) for a floor failing with probability q and
    a shift D; overflows for blackout-scale D, an outage to the caller."""
    return q / (1.0 - q) * math.expm1(D / d_m)


def first_stage(p0: float, d_m: float):
    """Verdict, p1 and D1 from the stage-0 failure probability p0."""
    if p0 >= 1.0:
        return COMPLETE_OUTAGE, 1.0, 0.0
    D1 = p0 / (1.0 - p0) * (1.0 + d_m)
    try:
        p1 = next_failure_probability(p0, D1, d_m)
    except OverflowError:
        return COMPLETE_OUTAGE, 1.0, D1
    return (COMPLETE_OUTAGE if p1 >= 1.0 else RUNNING), p1, D1


def _init(a0: float, d_m: float):
    if not 0.0 < a0 < 1.0:
        raise ValueError(f"a0 must be in (0, 1), got {a0}")
    if not 0.0 < d_m < math.inf:
        raise ValueError(f"disturbance mean must be finite and > 0, got {d_m}")
    verdict, p1, D1 = first_stage(failure_probability(a0, d_m), d_m)
    return verdict, (1, a0, p1, D1, 1.0 + d_m)


def _step(row: tuple, d_m: float):
    n, a, p, D, _ = row
    if D > (1.0 - a) and a < 1.0:
        return COMPLETE_OUTAGE, row
    a_next = a + D
    mu = mean_failed_load(D, d_m)
    D_next = p / (1.0 - p) * mu
    try:
        q = failure_probability(a_next, d_m)
        p_next = next_failure_probability(q, D_next, d_m)
    except OverflowError:
        return COMPLETE_OUTAGE, (n + 1, a_next, 1.0, D_next, mu)
    verdict = COMPLETE_OUTAGE if p_next >= 1.0 or a_next >= 1.0 else RUNNING
    return verdict, (n + 1, a_next, p_next, D_next, mu)


def init_recursion(a0: float, d_m: float) -> MeanFieldState:
    """Stage-1 state: p0, the first redistributed load D1, and p1."""
    verdict, row = _init(a0, d_m)
    return MeanFieldState(*row, d_m, verdict)


def recursion_step(state: MeanFieldState) -> MeanFieldState:
    """Advance one stage; classifies blackout when the surviving mass is
    pushed past capacity or the failure probability saturates."""
    if state.verdict is not RUNNING:
        raise ValueError(f"cannot step a recursion with verdict {state.verdict}")
    row = (state.n, state.a_n, state.p_n, state.D_n, state.mu_prev)
    verdict, row = _step(row, state.d_m)
    return MeanFieldState(*row, state.d_m, verdict)


def recursion_rows(a0: float, d_m: float, max_iter: int = 10_000, tol: float = 1e-12):
    """The verdict and the stage rows of ``run_recursion``, with no trace."""
    return iterate(_init(a0, d_m), _step, d_m, max_iter, tol)


def run_recursion(
    a0: float,
    d_m: float,
    max_iter: int = 10_000,
    tol: float = 1e-12,
) -> tuple[Verdict, list[MeanFieldState]]:
    """Iterate to a verdict; the trace is a pure function of the inputs.

    Survives when p_n drops below ``tol``; Undetermined when ``max_iter``
    stages pass without resolution (slow dynamics near the threshold).
    """
    verdict, rows = recursion_rows(a0, d_m, max_iter, tol)
    trace = [MeanFieldState(*row, d_m) for row in rows[:-1]]
    trace.append(MeanFieldState(*rows[-1], d_m, verdict))
    return verdict, trace
