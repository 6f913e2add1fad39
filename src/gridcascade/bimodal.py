"""Two-atom variant of the fully connected scalar recursion.

A fraction ``pa`` of nodes starts at load a0 and the rest at b0 >= a0.
Both floors drift upward by the redistributed load until the upper mode
hits capacity, after which the recursion degenerates to the single-mode
form on the lower floor. Three mutually exclusive branches per stage:

    BOTH_ALIVE    both modes still below capacity after the shift
    UPPER_DIES    the shift kills the b-mode exactly this stage
    LOWER_ONLY    only the a-mode remains

Once the upper mode dies, b_n is clamped to 1 and stays there.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .meanfield import (
    COMPLETE_OUTAGE,
    RUNNING,
    Verdict,
    failure_probability,
    first_stage,
    iterate,
    mean_failed_load,
    next_failure_probability,
)


class Branch(str, enum.Enum):
    INIT = "init"
    BOTH_ALIVE = "both_alive"
    UPPER_DIES = "upper_dies"
    LOWER_ONLY = "lower_only"


INIT, BOTH_ALIVE, UPPER_DIES, LOWER_ONLY = Branch  # bound once, as in meanfield


@dataclass(frozen=True)
class BimodalState:
    """One stage of the two-mode recursion."""

    n: int
    a_n: float
    b_n: float
    p_n: float
    D_n: float
    mu_prev: float
    d_m: float
    pa: float
    pb: float
    branch: Branch = Branch.INIT
    p_tilde: float = math.nan  # intermediate failing mass of the UPPER_DIES branch
    verdict: Verdict = Verdict.RUNNING


def _mode_failure_probability(a: float, b: float, pa: float, pb: float, d_m: float) -> float:
    # failure_probability of each floor, inlined: this runs at every stage
    return pa * math.exp(-(1.0 - a) / d_m) + pb * math.exp(-(1.0 - min(b, 1.0)) / d_m)


def _init(a0: float, b0: float, pa: float, d_m: float):
    if not 0.0 < a0 < 1.0 or not 0.0 < b0 < 1.0:
        raise ValueError(f"mode loads must be in (0, 1), got a0={a0}, b0={b0}")
    if a0 > b0:
        raise ValueError(f"need a0 <= b0, got a0={a0}, b0={b0}")
    if not 0.0 <= pa <= 1.0:
        raise ValueError(f"pa must be in [0, 1], got {pa}")
    if not 0.0 < d_m < math.inf:
        raise ValueError(f"disturbance mean must be finite and > 0, got {d_m}")
    p0 = _mode_failure_probability(a0, b0, pa, 1.0 - pa, d_m)
    verdict, p1, D1 = first_stage(p0, d_m)
    return verdict, (1, a0, p1, D1, 1.0 + d_m, b0, INIT, math.nan)


def _step(row: tuple, params: tuple):
    # params: (d_m, pa, pb, shifted_floor_in_pn); see bimodal_step
    n, a, p, D, mu_prev, b, _, p_tilde = row
    d_m, pa, pb, shifted_floor_in_pn = params
    try:
        if D < (1.0 - b) and b < 1.0:
            branch, a_next, b_next, p_tilde = BOTH_ALIVE, a + D, b + D, math.nan
            mu = mean_failed_load(D, d_m)
            D_next = p / (1.0 - p) * mu
            q = _mode_failure_probability(a_next, b_next, pa, pb, d_m)
            p_next = next_failure_probability(q, D_next, d_m)
        elif (1.0 - a) > D >= (1.0 - b) and b < 1.0:
            if pa == 0.0:
                # no lower mode: killing the upper mode kills everyone
                return COMPLETE_OUTAGE, (n + 1, a, p, D, mu_prev, 1.0, UPPER_DIES, p_tilde)
            branch, a_next, b_next = UPPER_DIES, a + D, 1.0
            # failing mass this stage: the slice of the a-mode crossing
            # capacity plus the entire remaining b-mode
            p_tilde = (
                pa * (math.exp(-(1.0 - a - D) / d_m) - math.exp(-(1.0 - a) / d_m))
                + pb * (1.0 - math.exp(-(1.0 - b) / d_m))
            )
            num = (
                pa * math.exp(-(1.0 - a_next) / d_m)
                * (1.0 + d_m - (1.0 + D + d_m) * math.exp(-D / d_m))
                + pb * (b + D + d_m - (1.0 + D + d_m) * math.exp(-(1.0 - b) / d_m))
            )
            mu = num / p_tilde if p_tilde > 0 else 1.0 + d_m
            D_next = p / (1.0 - p) * mu
            floor = a_next if shifted_floor_in_pn else a
            p_next = 1.0 - (
                pa * (1.0 - math.exp(-(1.0 - a_next) / d_m))
                / (1.0 - (pa * math.exp(-(1.0 - floor) / d_m) + pb))
            )
        elif D < (1.0 - a) and a < 1.0 and b == 1.0:
            branch, a_next, b_next, p_tilde = LOWER_ONLY, a + D, b, math.nan
            mu = mean_failed_load(D, d_m)
            D_next = p / (1.0 - p) * mu
            q = failure_probability(a_next, d_m)
            p_next = next_failure_probability(q, D_next, d_m)
        else:
            # remaining mass pushed past capacity
            return COMPLETE_OUTAGE, (n + 1, *row[1:])
    except (OverflowError, ZeroDivisionError):
        return COMPLETE_OUTAGE, (n + 1, *row[1:])
    verdict = COMPLETE_OUTAGE if not 0.0 <= p_next < 1.0 or a_next >= 1.0 else RUNNING
    return verdict, (n + 1, a_next, p_next, D_next, mu, b_next, branch, p_tilde)


def _state(row: tuple, verdict: Verdict, d_m: float, pa: float, pb: float) -> BimodalState:
    # a row is (n, a_n, p_n, D_n, mu_prev, b_n, branch, p_tilde)
    n, a, p, D, mu, b, branch, p_tilde = row
    return BimodalState(n, a, b, p, D, mu, d_m, pa, pb, branch, p_tilde, verdict)


def init_bimodal(a0: float, b0: float, pa: float, d_m: float) -> BimodalState:
    """Stage-1 state of the two-mode recursion."""
    verdict, row = _init(a0, b0, pa, d_m)
    return _state(row, verdict, d_m, pa, 1.0 - pa)


def bimodal_step(state: BimodalState, shifted_floor_in_pn: bool = False) -> BimodalState:
    """Advance one stage, applying exactly one branch.

    ``shifted_floor_in_pn`` switches the UPPER_DIES failure-probability
    denominator from the pre-shift floor to the post-shift floor, for
    sensitivity analysis; the default uses the pre-shift floor.
    """
    if state.verdict is not RUNNING:
        raise ValueError(f"cannot step a recursion with verdict {state.verdict}")
    row = (state.n, state.a_n, state.p_n, state.D_n, state.mu_prev, state.b_n,
           state.branch, state.p_tilde)
    params = (state.d_m, state.pa, state.pb, shifted_floor_in_pn)
    verdict, row = _step(row, params)
    return _state(row, verdict, state.d_m, state.pa, state.pb)


def bimodal_rows(a0: float, b0: float, pa: float, d_m: float, max_iter: int = 10_000,
                 tol: float = 1e-12, shifted_floor_in_pn: bool = False):
    """The verdict and the stage rows of ``run_bimodal``, with no trace."""
    params = (d_m, pa, 1.0 - pa, shifted_floor_in_pn)
    return iterate(_init(a0, b0, pa, d_m), _step, params, max_iter, tol)


def run_bimodal(
    a0: float,
    b0: float,
    pa: float,
    d_m: float,
    max_iter: int = 10_000,
    tol: float = 1e-12,
    shifted_floor_in_pn: bool = False,
) -> tuple[Verdict, list[BimodalState]]:
    """Iterate the two-mode recursion to a verdict, as in the unimodal case."""
    verdict, rows = bimodal_rows(a0, b0, pa, d_m, max_iter, tol, shifted_floor_in_pn)
    pb = 1.0 - pa
    trace = [_state(row, RUNNING, d_m, pa, pb) for row in rows[:-1]]
    trace.append(_state(rows[-1], verdict, d_m, pa, pb))
    return verdict, trace
