"""Scalar recursions for the infinite fully connected network, with one load
mode and with two.

A fraction ``pa`` of the nodes starts at load a0 and the rest at b0 >= a0
(one mode: b0 = a0, pa = 1); each node then takes one Exponential(d_m)
shock. The surviving-load distribution stays a truncated shifted
exponential per mode at every stage, so the whole system is captured by a
few scalars per stage:

    a_n   lower load floor (initial load plus all inherited shares)
    p_n   probability an alive node fails this stage
    D_n   redistributed load added to every survivor
    mu    mean load of the nodes that just failed
    b_n   upper load floor, clamped to 1 once the upper mode has died

The cascade dies out when p_n -> 0 (floors stay below capacity) and ends in
a complete outage when the remaining mass is pushed to capacity 1. Both
floors drift up by D_n until the upper mode hits capacity, after which the
two-mode recursion is the one-mode form on the lower floor. It runs through
three branches, in order, one phase each:

    BOTH_ALIVE    both modes still below capacity after the shift
    UPPER_DIES    the shift kills the b-mode exactly this stage
    LOWER_ONLY    only the a-mode remains

``bimodal_verdict`` checks its inputs once (the model, then d_m, then the
stage budget), then runs ``_two_mode``, which iterates these scalars in
locals, one loop per phase, from ``_init``'s stage 1 to the verdict. That
is the one entry into the stage loops. Constant loads are the one-atom
case of the same recursion: ``run_recursion`` is the run with b0 = a0 and
pa = 1. A threshold probe (``threshold.model_verdict``) runs ``_two_mode``
after checking d_m and the budget alone: its model was checked when it was
built, and the search checks it once more. Given a list, a loop appends
each stage as a plain row ``(n, a_n, p_n, D_n, mu_prev, b_n, branch,
p_tilde)``, mu_prev being the mu that produced D_n and p_tilde the failing
mass of an UPPER_DIES stage (else nan). An outage exit that computes no
stage appends the last row again, one stage on. ``run_bimodal`` returns
the rows as a trace: one state per row, the row's fields followed by the
verdict; ``run_recursion`` keeps the first five fields of each row.

Without a list (the threshold search's two-mode probes) a loop may stop
a surviving run early, with the verdict the remaining stages would reach:
SURVIVES once ``_survival_proven`` shows p_n falling below ``tol`` within
the stage budget with the floors below capacity. Every other exit is the
traced run's, and a traced run computes every stage.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass


class Verdict(str, enum.Enum):
    RUNNING = "running"
    SURVIVES = "survives"
    COMPLETE_OUTAGE = "complete_outage"
    UNDETERMINED = "undetermined"


class Branch(str, enum.Enum):
    INIT = "init"
    BOTH_ALIVE = "both_alive"
    UPPER_DIES = "upper_dies"
    LOWER_ONLY = "lower_only"


# bound once: looking an enum member up on its class is slow on Python 3.11
RUNNING, SURVIVES, COMPLETE_OUTAGE, UNDETERMINED = Verdict
INIT, BOTH_ALIVE, UPPER_DIES, LOWER_ONLY = Branch


@dataclass(frozen=True)
class MeanFieldState:
    """One stage of the scalar recursion: its row, then the verdict."""

    n: int
    a_n: float
    p_n: float
    D_n: float
    mu_prev: float
    verdict: Verdict = Verdict.RUNNING


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


# --- input rules ----------------------------------------------------------
# Each rule returns its value, or raises ValueError "<name> must be <rule>,
# got <value>". A number must be a real number (``is_real``); a float skips
# that call, as every threshold probe checks d_m.

def is_real(x) -> bool:
    """Whether ``x`` is a real number that a float holds: a numpy one too,
    but not a bool, nor an integer past the float range."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return False
    return not isinstance(x, int) or abs(x) <= sys.float_info.max  # int vs float: exact


def check_count(name: str, x, low: int = 1):
    """An integer (a numpy one too, but not a bool) of at least ``low``."""
    integer = type(x) is int or isinstance(x, numbers.Integral) and not isinstance(x, bool)
    if not integer or x < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {x!r}")
    return x


def check_finite(name: str, x):
    if type(x) is not float and not is_real(x) or not -math.inf < x < math.inf:
        raise ValueError(f"{name} must be a finite number, got {x!r}")
    return x


def check_positive(name: str, x):
    if type(x) is not float and not is_real(x) or not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be a finite number > 0, got {x!r}")
    return x


def check_level(name: str, x):
    if type(x) is not float and not is_real(x) or not 0.0 < x < 1.0:
        raise ValueError(f"{name} must be a number in (0, 1), got {x!r}")
    return x


def check_probability(name: str, x):
    if type(x) is not float and not is_real(x) or not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must be a number in [0, 1], got {x!r}")
    return x


def check_budget(max_iter: int, tol: float) -> None:
    """Check a stage budget: ``max_iter`` by ``check_count`` and ``tol`` by
    ``check_positive``. Every threshold probe runs this, so an int and a
    float in range skip the rules' calls."""
    if type(max_iter) is not int or max_iter < 1:
        check_count("max_iter", max_iter)
    if type(tol) is not float or not 0.0 < tol < math.inf:
        check_positive("tol", tol)


def check_modes(a0: float, b0: float, pa: float) -> None:
    """Reject a load model outside 0 < a0 <= b0 < 1, 0 <= pa <= 1."""
    check_level("a0", a0)
    check_level("b0", b0)
    if a0 > b0:
        raise ValueError(f"need a0 <= b0, got a0={a0}, b0={b0}")
    check_probability("pa", pa)


def mean_failed_load(D: float, d_m: float) -> float:
    """Mean load of nodes pushed past capacity by a shift D, in [1, 1+d_m]:
    the D -> 0 limit is 1 + d_m - d_m = 1. A D/d_m that rounds to inf gives
    1 + d_m, as expm1(inf) is inf, but a finite D/d_m above about 709.78 makes
    ``math.expm1`` raise OverflowError, which the two-mode loop takes as an
    outage exit."""
    if D <= 0:
        return 1.0
    denom = math.expm1(D / d_m)
    if denom == 0.0 or math.isinf(denom):
        return 1.0 if denom == 0.0 else 1.0 + d_m
    return 1.0 + d_m - D / denom


def trace(cls, verdict: Verdict, rows: list) -> list:
    """One ``cls`` state per stage row: the row's fields, then the verdict,
    ``verdict`` on the last state and RUNNING before it."""
    return [cls(*row) for row in rows[:-1]] + [cls(*rows[-1], verdict)]


def _survival_proven(a: float, b: float, pa: float, p: float, D: float, d_m: float,
                     tol: float, stages: int) -> bool:
    """Whether a recursion loop, at the top of a stage with failing
    probability tol <= p < 1 and pending shift D, must return SURVIVES
    within ``stages`` loop passes, this one included. The floors are a and
    b: a fraction pa of the nodes at a and the rest at b while b < 1, only
    a once b = 1 (phase 3 of ``_two_mode`` passes b = 1).

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


def _init(a0: float, b0: float, pa: float, d_m: float):
    """The first stage of a run from checked inputs: the verdict, the row-1
    scalars ``(1, a0, p1, D1, 1 + d_m)`` and e1 = expm1(D1/d_m). From the
    stage-0 failure probability p0 = pa*q(a0) + (1-pa)*q(b0), q(x) =
    exp(-(1-x)/d_m), D1 = p0/(1-p0) * (1+d_m), the large-N limit of the
    load failed at stage 0 per survivor, and p1 = p0/(1-p0) * e1. expm1
    overflows for blackout-scale D1, an outage. It checks nothing:
    ``bimodal_verdict`` checks first, and a threshold probe runs on a model
    that was checked when it was built."""
    mu = 1.0 + d_m
    # at pa = 1 the sum is 1.0*q(a0) + 0.0*q(b0) = q(a0) exactly
    p0 = pa * math.exp(-(1.0 - a0) / d_m) + (1.0 - pa) * math.exp(-(1.0 - b0) / d_m)
    if p0 >= 1.0:
        return COMPLETE_OUTAGE, (1, a0, 1.0, 0.0, mu), math.nan
    odds = p0 / (1.0 - p0)
    D1 = odds * mu
    try:
        e1 = math.expm1(D1 / d_m)
    except OverflowError:
        return COMPLETE_OUTAGE, (1, a0, 1.0, D1, mu), math.inf
    p1 = odds * e1
    return (COMPLETE_OUTAGE if p1 >= 1.0 else RUNNING), (1, a0, p1, D1, mu), e1


def _renumbered_outage(rows: list | None) -> Verdict:
    """An outage exit that computed no stage: the last row again, one stage
    on."""
    if rows is not None:
        rows.append((rows[-1][0] + 1, *rows[-1][1:]))
    return COMPLETE_OUTAGE


def run_recursion(
    a0: float,
    d_m: float,
    max_iter: int = 10_000,
    tol: float = 1e-12,
) -> tuple[Verdict, list[MeanFieldState]]:
    """Iterate to a verdict; the trace is a pure function of the inputs.

    Survives when p_n drops below ``tol``; Undetermined when ``max_iter``
    stages pass without resolution (slow dynamics near the threshold).
    Constant loads are two equal modes: the run is ``bimodal_verdict`` at
    b0 = a0, pa = 1, and each state the first five fields of its row.
    """
    rows: list = []
    verdict = bimodal_verdict(a0, a0, 1.0, d_m, max_iter, tol, rows)
    return verdict, trace(MeanFieldState, verdict, [row[:5] for row in rows])


def bimodal_verdict(a0: float, b0: float, pa: float, d_m: float, max_iter: int = 10_000,
                    tol: float = 1e-12, rows: list | None = None) -> Verdict:
    """The verdict of ``run_bimodal``; each stage row goes to ``rows`` when
    a list is given. Checks the model, then d_m, then the stage budget,
    and runs ``_two_mode``."""
    check_modes(a0, b0, pa)
    check_positive("disturbance mean", d_m)
    check_budget(max_iter, tol)
    return _two_mode(a0, b0, pa, d_m, max_iter, tol, rows)


def _two_mode(a0: float, b0: float, pa: float, d_m: float, max_iter: int, tol: float,
              rows: list | None) -> Verdict:
    """``bimodal_verdict`` on checked inputs. The run goes through its
    branches in order, one phase each, on one budget of ``max_iter``
    passes:

    1. BOTH_ALIVE while the shift leaves the upper floor below capacity;
    2. one UPPER_DIES stage once the shift reaches it (an outage if pa = 0),
       or none if b + D rounded to 1 in phase 1;
    3. LOWER_ONLY: the phase-1 loop on the lower floor alone.

    A run with equal modes (b0 = a0) ends in phase 1: its floors reach
    capacity together. Phases 1 and 3 write the stage formulas inline (the
    loops run in the threshold search's two-mode probes), one expm1 per
    stage: p = q/(1-q) * e, e = expm1(D/d_m) carried from the last stage
    and q the failing mass of the shifted floors, pa*q(a) + (1-pa)*q(b) in
    phase 1 and q(a) in phase 3, q(x) = exp(-(1-x)/d_m). The next stage's
    mu = 1 + d_m - D/e is ``mean_failed_load`` without its guards (p >= tol
    > 0 makes e > 0, and an infinite e gives D/e = 0), except after
    UPPER_DIES, which computes no e: it hands phase 3 e = 0, and the
    division by zero falls back to ``mean_failed_load``.

    The loops take mu0 = 1 + d_m once and write q(x) as exp((x - 1)/d_m);
    both are the stage formulas bit for bit. Python evaluates 1 + d_m - D/e
    as (1 + d_m) - D/e, and round-to-nearest is symmetric in sign, so x - 1
    is -(1 - x) exactly, except at x = 1: there they are +0 and -0, and exp
    gives 1 for both. At pa = 1 the mixture is 1.0*q(a) + 0.0*q(b) = q(a)
    exactly, so a one-mode run (``run_recursion``) computes the one-mode
    stage formulas bit for bit.

    Without ``rows`` a pass whose p has fallen below ``cut`` (1e-3 at the
    start of a run, then a sixteenth of the last p tested) asks
    ``_survival_proven`` whether the rest of the run must survive within
    ``max_iter``, and returns SURVIVES at once when it must, in any phase.
    With ``rows`` every stage runs."""
    verdict, row, e = _init(a0, b0, pa, d_m)
    if rows is not None:
        rows.append(row + (b0, INIT, math.nan))
    if verdict is not RUNNING:
        return verdict
    pb, mu0 = 1.0 - pa, 1.0 + d_m
    exp, expm1, nan = math.exp, math.expm1, math.nan
    n, a, p, D, mu = row
    b = b0
    cut = tol if rows is not None else max(1e-3, tol)
    for _ in range(max_iter):
        if p < cut:
            if p < tol or _survival_proven(a, b, pa, p, D, d_m, tol, max_iter - n + 1):
                return SURVIVES
            cut = max(p / 16.0, tol)
        if not D < 1.0 - b:  # else b + D below rounds to at most 1: no clamp
            break
        a += D
        b += D
        n += 1
        try:
            mu = mu0 - D / e
            D = p / (1.0 - p) * mu
            q = pa * exp((a - 1.0) / d_m) + pb * exp((b - 1.0) / d_m)
            e = expm1(D / d_m)
            p = q / (1.0 - q) * e
        except (OverflowError, ZeroDivisionError):
            return _renumbered_outage(rows)
        if rows is not None:
            rows.append((n, a, p, D, mu, b, BOTH_ALIVE, nan))
        if not 0.0 <= p < 1.0 or a >= 1.0:
            return COMPLETE_OUTAGE
    else:
        return UNDETERMINED
    if b < 1.0:  # the shift reaches the upper floor this pass
        if not D < 1.0 - a:  # and the lower one: the remaining mass fails
            return _renumbered_outage(rows)
        if pa == 0.0:
            # no lower mode: killing the upper mode kills everyone
            if rows is not None:
                rows.append((n + 1, a, p, D, mu, 1.0, UPPER_DIES, nan))
            return COMPLETE_OUTAGE
        a_next = a + D
        try:
            qa, qa_next, qb = (
                exp(-(1.0 - a) / d_m), exp(-(1.0 - a_next) / d_m), exp(-(1.0 - b) / d_m))
            # failing mass this stage: the slice of the a-mode crossing
            # capacity plus the entire remaining b-mode
            p_tilde = pa * (exp(-(1.0 - a - D) / d_m) - qa) + pb * (1.0 - qb)
            num = (
                pa * qa_next * (1.0 + d_m - (1.0 + D + d_m) * exp(-D / d_m))
                + pb * (b + D + d_m - (1.0 + D + d_m) * qb)
            )
            mu = num / p_tilde if p_tilde > 0 else 1.0 + d_m
            D = p / (1.0 - p) * mu
            p = 1.0 - pa * (1.0 - qa_next) / (1.0 - (pa * qa + pb))
        except (OverflowError, ZeroDivisionError):
            return _renumbered_outage(rows)
        a, e, n = a_next, 0.0, n + 1
        if rows is not None:
            rows.append((n, a, p, D, mu, 1.0, UPPER_DIES, p_tilde))
        if not 0.0 <= p < 1.0 or a >= 1.0:
            return COMPLETE_OUTAGE
    # LOWER_ONLY: the upper mode is dead, b = 1
    for _ in range(max_iter - n + 1):
        if p < cut:
            if p < tol or _survival_proven(a, 1.0, 1.0, p, D, d_m, tol, max_iter - n + 1):
                return SURVIVES
            cut = max(p / 16.0, tol)
        if not D < 1.0 - a:  # a < 1 here: every stage exits on a >= 1
            return _renumbered_outage(rows)
        a += D
        n += 1
        try:
            try:
                mu = mu0 - D / e
            except ZeroDivisionError:  # e = 0: UPPER_DIES computed none
                mu = mean_failed_load(D, d_m)
            D = p / (1.0 - p) * mu
            q = exp((a - 1.0) / d_m)
            e = expm1(D / d_m)
            p = q / (1.0 - q) * e
        except (OverflowError, ZeroDivisionError):  # q rounds to 1.0 as a does
            return _renumbered_outage(rows)
        if rows is not None:
            rows.append((n, a, p, D, mu, 1.0, LOWER_ONLY, nan))
        if not p < 1.0 or a >= 1.0:  # p >= 0, as e >= 0 and q <= 1 (a <= 1)
            return COMPLETE_OUTAGE
    return UNDETERMINED


def run_bimodal(
    a0: float,
    b0: float,
    pa: float,
    d_m: float,
    max_iter: int = 10_000,
    tol: float = 1e-12,
) -> tuple[Verdict, list[BimodalState]]:
    """Iterate the two-mode recursion to a verdict, as in the unimodal case."""
    rows: list = []
    verdict = bimodal_verdict(a0, b0, pa, d_m, max_iter, tol, rows)
    return verdict, trace(BimodalState, verdict, rows)
