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

``recursion_verdict`` iterates these scalars in one loop, keeping them in
locals, and returns the verdict. Given a list, it also appends each stage
as a plain row ``(n, a_n, p_n, D_n, mu_prev)``, mu_prev being the mu that
produced D_n; ``recursion_rows`` passes one. ``run_recursion`` returns the
same rows as a trace: one ``MeanFieldState`` per row, the row's fields
followed by the verdict.
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
    """One stage of the scalar recursion: its row, then the verdict."""

    n: int
    a_n: float
    p_n: float
    D_n: float
    mu_prev: float
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


def check_budget(max_iter: int, tol: float) -> None:
    """Reject a stage budget or survival tolerance no loop can run with."""
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def trace(cls, verdict: Verdict, rows: list) -> list:
    """One ``cls`` state per stage row: the row's fields, then the verdict,
    ``verdict`` on the last state and RUNNING before it."""
    return [cls(*row) for row in rows[:-1]] + [cls(*rows[-1], verdict)]


def first_stage(p0: float, d_m: float):
    """Verdict, p1, D1 and e1 = expm1(D1/d_m) from the stage-0 failure
    probability p0: D1 = p0/(1-p0) * (1+d_m) and p1 = p0/(1-p0) * e1.
    expm1 overflows for blackout-scale D1, an outage."""
    if p0 >= 1.0:
        return COMPLETE_OUTAGE, 1.0, 0.0, math.nan
    odds = p0 / (1.0 - p0)
    D1 = odds * (1.0 + d_m)
    try:
        e1 = math.expm1(D1 / d_m)
    except OverflowError:
        return COMPLETE_OUTAGE, 1.0, D1, math.inf
    p1 = odds * e1
    return (COMPLETE_OUTAGE if p1 >= 1.0 else RUNNING), p1, D1, e1


def _init(a0: float, d_m: float):
    if not 0.0 < a0 < 1.0:
        raise ValueError(f"a0 must be in (0, 1), got {a0}")
    if not 0.0 < d_m < math.inf:
        raise ValueError(f"disturbance mean must be finite and > 0, got {d_m}")
    verdict, p1, D1, e1 = first_stage(failure_probability(a0, d_m), d_m)
    return verdict, (1, a0, p1, D1, 1.0 + d_m), e1


def recursion_verdict(a0: float, d_m: float, max_iter: int = 10_000, tol: float = 1e-12,
                      rows: list | None = None) -> Verdict:
    """The verdict of ``run_recursion``; each stage row goes to ``rows``
    when a list is given. The stage formulas are written inline (the loop
    runs for every probe of the threshold search), one expm1 per stage:
    e = expm1(D/d_m) gives p = q/(1-q) * e, q the ``failure_probability``
    of the shifted floor, and the next stage's mu = 1 + d_m - D/e is
    ``mean_failed_load`` without its guards (p >= tol > 0 makes e > 0, and
    an infinite e gives D/e = 0)."""
    verdict, row, e = _init(a0, d_m)
    check_budget(max_iter, tol)
    if rows is not None:
        rows.append(row)
    if verdict is not RUNNING:
        return verdict
    n, a, p, D, mu = row
    exp, expm1 = math.exp, math.expm1
    for _ in range(max_iter):
        if p < tol:
            return SURVIVES
        if D > (1.0 - a):  # a < 1 here: every stage exits on a >= 1
            if rows is not None:
                rows.append((n, a, p, D, mu))  # the last row again
            return COMPLETE_OUTAGE
        a += D
        mu = 1.0 + d_m - D / e
        D = p / (1.0 - p) * mu
        n += 1
        try:
            q = exp(-(1.0 - a) / d_m)
            e = expm1(D / d_m)
            p = q / (1.0 - q) * e
        except (OverflowError, ZeroDivisionError):  # q rounds to 1.0 as a does
            if rows is not None:
                rows.append((n, a, 1.0, D, mu))
            return COMPLETE_OUTAGE
        if rows is not None:
            rows.append((n, a, p, D, mu))
        if p >= 1.0 or a >= 1.0:
            return COMPLETE_OUTAGE
    return UNDETERMINED


def recursion_rows(a0: float, d_m: float, max_iter: int = 10_000, tol: float = 1e-12):
    """The verdict and the stage rows of ``run_recursion``, with no trace."""
    rows: list = []
    return recursion_verdict(a0, d_m, max_iter, tol, rows), rows


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
    return verdict, trace(MeanFieldState, verdict, rows)
