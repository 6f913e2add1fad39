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
produced D_n. ``run_recursion`` passes one and returns its rows as a trace:
one ``MeanFieldState`` per row, the row's fields followed by the verdict.

Without a list (the threshold search's probes) the loop may stop a
surviving run early: once p_n is small, ``_survival_proven`` bounds every
later stage, and when the bound shows p_n falling below ``tol`` within the
stage budget with the floor below capacity, the loop returns SURVIVES, the
verdict the remaining stages would reach. A traced run computes every stage.
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


def _survival_proven(a: float, b: float, pa: float, p: float, D: float, d_m: float,
                     tol: float, stages: int) -> bool:
    """Whether a recursion loop, at the top of a stage with failing
    probability tol <= p < 1 and pending shift D, must return SURVIVES
    within ``stages`` loop passes, this one included. The floors are a and
    b: a fraction pa of the nodes at a and the rest at b while b < 1, only
    a once b = 1 (the unimodal loop passes b = 1).

    Every later mean failed load is at most M = 1 + max(D, X)/2, X =
    p/(1-p)*(1+d_m) the largest later shift, as x/expm1(x) >= 1 - x/2; so
    every later shift is at most Dm = p/(1-p)*M, and expm1(y) <= y*exp(y)
    bounds the ratio of successive p by Q*g, Q = q/(1-q) the odds of the
    shifted floors' failing mass. If rho = (1 + Q(0)*g)/2 bounds that ratio
    even with every floor raised by S = Dm/(1-rho), the sum of all later
    shifts, then p shrinks by rho per stage, no floor reaches capacity and
    no branch changes. The 4-ulp and 1e-9 margins absorb the loops'
    rounding."""
    top = a if b >= 1.0 else b

    def odds(s: float) -> float:
        q = math.exp(-(1.0 - (a + D + s)) / d_m)
        if b < 1.0:
            q = pa * q + (1.0 - pa) * math.exp(-(1.0 - (b + D + s)) / d_m)
        return q / (1.0 - q)

    try:
        M = 1.0 + max(D, p / (1.0 - p) * (1.0 + d_m)) / 2.0 + 4.0 * math.ulp(1.0 + d_m)
        Dm = p / (1.0 - p) * M
        g = M / (d_m * (1.0 - p)) * math.exp(Dm / d_m)
        rho0 = odds(0.0) * g
        if not rho0 < 1.0:
            return False
        rho = (1.0 + rho0) / 2.0
        S = Dm / (1.0 - rho)
        # p*rho**k < tol from k = int(log(tol/p)/log(rho)) + 1 on, and the
        # pass that sees it is one more
        return (top + D + S < 1.0 - 1e-9
                and odds(S) * g * (1.0 + 1e-9) <= rho
                and int(math.log(tol / p) / math.log(rho)) + 2 <= stages)
    except (OverflowError, ZeroDivisionError):  # exp overflows, or q or rho reaches 1
        return False


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
    an infinite e gives D/e = 0).

    Without ``rows``, a stage whose p has fallen below a cut (1e-3, then a
    sixteenth of the last p tested) asks ``_survival_proven`` whether the
    rest of the run must survive within ``max_iter``, and returns SURVIVES
    at once when it must. With ``rows`` the cut is ``tol``: every stage runs."""
    verdict, row, e = _init(a0, d_m)
    check_budget(max_iter, tol)
    if rows is not None:
        rows.append(row)
    if verdict is not RUNNING:
        return verdict
    n, a, p, D, mu = row
    exp, expm1 = math.exp, math.expm1
    cut = tol if rows is not None else max(1e-3, tol)
    for _ in range(max_iter):
        if p < cut:
            if p < tol or _survival_proven(a, 1.0, 1.0, p, D, d_m, tol, max_iter - n + 1):
                return SURVIVES
            cut = max(p / 16.0, tol)
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
    rows: list = []
    verdict = recursion_verdict(a0, d_m, max_iter, tol, rows)
    return verdict, trace(MeanFieldState, verdict, rows)
