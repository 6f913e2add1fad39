"""Two-atom variant of the fully connected scalar recursion.

A fraction ``pa`` of nodes starts at load a0 and the rest at b0 >= a0.
Both floors drift upward by the redistributed load until the upper mode
hits capacity, after which the recursion degenerates to the single-mode
form on the lower floor. Three mutually exclusive branches per stage:

    BOTH_ALIVE    both modes still below capacity after the shift
    UPPER_DIES    the shift kills the b-mode exactly this stage
    LOWER_ONLY    only the a-mode remains

Once the upper mode dies, b_n is clamped to 1 and stays there.

``bimodal_verdict`` runs the stages in one loop, as ``recursion_verdict``
does, and appends each stage row to a list when given one. A row extends
the unimodal one to ``(n, a_n, p_n, D_n, mu_prev, b_n, branch, p_tilde)``;
``bimodal_rows`` collects them and ``run_bimodal`` returns one
``BimodalState`` per row, the row's fields followed by the verdict.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .meanfield import (
    COMPLETE_OUTAGE,
    RUNNING,
    SURVIVES,
    UNDETERMINED,
    Verdict,
    check_budget,
    failure_probability,
    first_stage,
    mean_failed_load,
    trace,
)


class Branch(str, enum.Enum):
    INIT = "init"
    BOTH_ALIVE = "both_alive"
    UPPER_DIES = "upper_dies"
    LOWER_ONLY = "lower_only"


INIT, BOTH_ALIVE, UPPER_DIES, LOWER_ONLY = Branch  # bound once, as in meanfield


@dataclass(frozen=True)
class BimodalState:
    """One stage of the two-mode recursion: its row, then the verdict."""

    n: int
    a_n: float
    p_n: float
    D_n: float
    mu_prev: float
    b_n: float
    branch: Branch
    p_tilde: float  # intermediate failing mass of the UPPER_DIES branch, else nan
    verdict: Verdict = Verdict.RUNNING


def _init(a0: float, b0: float, pa: float, d_m: float):
    if not 0.0 < a0 < 1.0 or not 0.0 < b0 < 1.0:
        raise ValueError(f"mode loads must be in (0, 1), got a0={a0}, b0={b0}")
    if a0 > b0:
        raise ValueError(f"need a0 <= b0, got a0={a0}, b0={b0}")
    if not 0.0 <= pa <= 1.0:
        raise ValueError(f"pa must be in [0, 1], got {pa}")
    if not 0.0 < d_m < math.inf:
        raise ValueError(f"disturbance mean must be finite and > 0, got {d_m}")
    p0 = pa * failure_probability(a0, d_m) + (1.0 - pa) * failure_probability(b0, d_m)
    verdict, p1, D1, e1 = first_stage(p0, d_m)
    return verdict, (1, a0, p1, D1, 1.0 + d_m, b0, INIT, math.nan), e1


def bimodal_verdict(a0: float, b0: float, pa: float, d_m: float, max_iter: int = 10_000,
                    tol: float = 1e-12, rows: list | None = None) -> Verdict:
    """The verdict of ``run_bimodal``; each stage row goes to ``rows`` when
    a list is given. BOTH_ALIVE and LOWER_ONLY share the unimodal stage
    formulas and its carried e = expm1(D/d_m), written inline as in
    ``recursion_verdict``, and differ only in the failing mass q of the
    shifted floors. UPPER_DIES computes no e for its D, so the stage after
    it takes mu from ``mean_failed_load``."""
    verdict, row, e = _init(a0, b0, pa, d_m)
    check_budget(max_iter, tol)
    if rows is not None:
        rows.append(row)
    if verdict is not RUNNING:
        return verdict
    pb = 1.0 - pa
    n, a, p, D, mu, b, branch, p_tilde = row
    exp, expm1, nan = math.exp, math.expm1, math.nan
    for _ in range(max_iter):
        if p < tol:
            return SURVIVES
        try:
            if D < (1.0 - b) and b < 1.0:
                branch_next, b_next = BOTH_ALIVE, b + D
            elif (1.0 - a) > D >= (1.0 - b) and b < 1.0:
                branch_next, b_next = UPPER_DIES, 1.0
            elif D < (1.0 - a) and b == 1.0:  # a < 1 here, as in the unimodal loop
                branch_next, b_next = LOWER_ONLY, b
            else:
                branch_next = None  # remaining mass pushed past capacity
            a_next = a + D
            if branch_next is UPPER_DIES:
                if pa == 0.0:
                    # no lower mode: killing the upper mode kills everyone
                    if rows is not None:
                        rows.append((n + 1, a, p, D, mu, 1.0, UPPER_DIES, p_tilde))
                    return COMPLETE_OUTAGE
                qa, qa_next, qb = (
                    exp(-(1.0 - a) / d_m), exp(-(1.0 - a_next) / d_m), exp(-(1.0 - b) / d_m))
                # failing mass this stage: the slice of the a-mode crossing
                # capacity plus the entire remaining b-mode
                p_tilde_next = pa * (exp(-(1.0 - a - D) / d_m) - qa) + pb * (1.0 - qb)
                num = (
                    pa * qa_next * (1.0 + d_m - (1.0 + D + d_m) * exp(-D / d_m))
                    + pb * (b + D + d_m - (1.0 + D + d_m) * qb)
                )
                mu_next = num / p_tilde_next if p_tilde_next > 0 else 1.0 + d_m
                D_next = p / (1.0 - p) * mu_next
                p_next = 1.0 - pa * (1.0 - qa_next) / (1.0 - (pa * qa + pb))
            elif branch_next is not None:
                p_tilde_next = nan
                mu_next = mean_failed_load(D, d_m) if branch is UPPER_DIES else 1.0 + d_m - D / e
                D_next = p / (1.0 - p) * mu_next
                q = exp(-(1.0 - a_next) / d_m)
                if branch_next is BOTH_ALIVE:
                    # b + D rounds to at most 1 when D < 1 - b: no clamp
                    q = pa * q + pb * exp(-(1.0 - b_next) / d_m)
                e = expm1(D_next / d_m)
                p_next = q / (1.0 - q) * e
        except (OverflowError, ZeroDivisionError):
            branch_next = None
        n += 1
        if branch_next is None:
            if rows is not None:
                rows.append((n, a, p, D, mu, b, branch, p_tilde))  # renumbered
            return COMPLETE_OUTAGE
        a, p, D, mu, b, branch, p_tilde = (
            a_next, p_next, D_next, mu_next, b_next, branch_next, p_tilde_next)
        if rows is not None:
            rows.append((n, a, p, D, mu, b, branch, p_tilde))
        if not 0.0 <= p < 1.0 or a >= 1.0:
            return COMPLETE_OUTAGE
    return UNDETERMINED


def bimodal_rows(a0: float, b0: float, pa: float, d_m: float, max_iter: int = 10_000,
                 tol: float = 1e-12):
    """The verdict and the stage rows of ``run_bimodal``, with no trace."""
    rows: list = []
    return bimodal_verdict(a0, b0, pa, d_m, max_iter, tol, rows), rows


def run_bimodal(
    a0: float,
    b0: float,
    pa: float,
    d_m: float,
    max_iter: int = 10_000,
    tol: float = 1e-12,
) -> tuple[Verdict, list[BimodalState]]:
    """Iterate the two-mode recursion to a verdict, as in the unimodal case."""
    verdict, rows = bimodal_rows(a0, b0, pa, d_m, max_iter, tol)
    return verdict, trace(BimodalState, verdict, rows)
