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

``run_recursion`` (one mode) and ``bimodal_verdict`` (two) iterate these
scalars in locals, one loop per phase, from ``_init``'s input checks and
stage 1 to the verdict; ``_one_mode`` is the two-mode LOWER_ONLY loop and
every later stage of the one-mode run. Given a list, a loop appends each
stage as a plain row ``(n, a_n, p_n, D_n, mu_prev)``, mu_prev being the
mu that produced D_n; a two-mode row goes on with ``(b_n, branch,
p_tilde)``, p_tilde being the failing mass of an UPPER_DIES stage (else
nan). An outage exit that computes no stage appends the last row again,
one stage on. ``run_recursion`` and ``run_bimodal`` return the rows as a
trace: one state per row, the row's fields followed by the verdict.

Without a list (the threshold search's two-mode probes) a loop may stop
a surviving run early, with the verdict the remaining stages would reach:
SURVIVES once ``_survival_proven`` shows p_n falling below ``tol`` within
the stage budget with the floors below capacity. Every other exit is the
traced run's, and a traced run computes every stage.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .graph import check_count, is_real


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


def check_modes(a0: float, b0: float, pa: float) -> None:
    """Reject a load model outside 0 < a0 <= b0 < 1, 0 <= pa <= 1. Here and
    below a value must be a real number (``is_real``), and a float skips
    that call: every two-mode probe checks five values."""
    if type(a0) is not float and not is_real(a0) or not 0.0 < a0 < 1.0:
        raise ValueError(f"a0 must be a number in (0, 1), got {a0!r}")
    if type(b0) is not float and not is_real(b0) or not 0.0 < b0 < 1.0:
        raise ValueError(f"b0 must be a number in (0, 1), got {b0!r}")
    if a0 > b0:
        raise ValueError(f"need a0 <= b0, got a0={a0}, b0={b0}")
    if type(pa) is not float and not is_real(pa) or not 0.0 <= pa <= 1.0:
        raise ValueError(f"pa must be a number in [0, 1], got {pa!r}")


def check_disturbance(d_m: float) -> None:
    """Reject a disturbance mean that is not a finite number > 0."""
    if type(d_m) is not float and not is_real(d_m) or not 0.0 < d_m < math.inf:
        raise ValueError(f"disturbance mean must be a finite number > 0, got {d_m!r}")


def check_budget(max_iter: int, tol: float) -> None:
    """Reject a max_iter that is not an integer >= 1, or a tol that is not a
    finite number > 0."""
    if type(max_iter) is not int or max_iter < 1:  # every two-mode probe: skip the call
        check_count("max_iter", max_iter)
    if type(tol) is not float and not is_real(tol) or not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")


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
    a once b = 1 (``_one_mode`` passes b = 1).

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


def _init(a0: float, b0: float, pa: float, d_m: float, max_iter: int, tol: float):
    """Check a run's inputs (the model, then d_m, then the stage budget)
    and take its first stage: the verdict, the row-1 scalars
    ``(1, a0, p1, D1, 1 + d_m)`` and e1 = expm1(D1/d_m). From the stage-0
    failure probability p0 = pa*q(a0) + (1-pa)*q(b0), q(x) =
    exp(-(1-x)/d_m), D1 = p0/(1-p0) * (1+d_m), the large-N limit of the
    load failed at stage 0 per survivor, and p1 = p0/(1-p0) * e1. expm1
    overflows for blackout-scale D1, an outage."""
    check_modes(a0, b0, pa)
    check_disturbance(d_m)
    check_budget(max_iter, tol)
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


def _one_mode(row: tuple, e: float, cut: float, d_m: float, max_iter: int, tol: float,
              rows: list | None, tail: tuple) -> Verdict:
    """The stages of a run with one mode left, from the last stage's
    ``row`` = (n, a, p, D, mu) and e = expm1(D/d_m) to the verdict; each
    stage row, then ``tail``, goes to ``rows`` when a list is given. The
    stage formulas are written inline (the loop runs in the threshold
    search's two-mode probes), one expm1 per stage: p = q/(1-q) * e, q =
    exp(-(1-a)/d_m) the failing mass of the shifted floor, and the next
    stage's mu = 1 + d_m - D/e is ``mean_failed_load`` without its guards
    (p >= tol > 0 makes e > 0, and an infinite e gives D/e = 0), except
    after UPPER_DIES, which computes no e (it passes e = 0).

    Without ``rows`` a pass whose p has fallen below ``cut`` (1e-3 at the
    start of a run, then a sixteenth of the last p tested) asks
    ``_survival_proven`` whether the rest of the run must survive within
    ``max_iter``, and returns SURVIVES at once when it must. With ``rows``
    every stage runs."""
    n, a, p, D, mu = row
    exp, expm1 = math.exp, math.expm1
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
                mu = 1.0 + d_m - D / e
            except ZeroDivisionError:  # e = 0: UPPER_DIES computed none
                mu = mean_failed_load(D, d_m)
            D = p / (1.0 - p) * mu
            q = exp(-(1.0 - a) / d_m)
            e = expm1(D / d_m)
            p = q / (1.0 - q) * e
        except (OverflowError, ZeroDivisionError):  # q rounds to 1.0 as a does
            return _renumbered_outage(rows)
        if rows is not None:
            rows.append((n, a, p, D, mu, *tail))
        if not p < 1.0 or a >= 1.0:  # p >= 0, as e >= 0 and q <= 1 (a <= 1)
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
    verdict, row, e = _init(a0, a0, 1.0, d_m, max_iter, tol)
    rows = [row]
    if verdict is RUNNING:
        verdict = _one_mode(row, e, tol, d_m, max_iter, tol, rows, ())
    return verdict, trace(MeanFieldState, verdict, rows)


def bimodal_verdict(a0: float, b0: float, pa: float, d_m: float, max_iter: int = 10_000,
                    tol: float = 1e-12, rows: list | None = None) -> Verdict:
    """The verdict of ``run_bimodal``; each stage row goes to ``rows`` when
    a list is given. The run goes through its branches in order, one phase
    each, on one budget of ``max_iter`` passes:

    1. BOTH_ALIVE while the shift leaves the upper floor below capacity:
       the unimodal stage formulas and carried e = expm1(D/d_m), written
       inline as in ``_one_mode``, on the mixed failing mass
       q = pa*q(a) + (1-pa)*q(b) of the shifted floors;
    2. one UPPER_DIES stage once the shift reaches it (an outage if pa = 0),
       or none if b + D rounded to 1 in phase 1;
    3. LOWER_ONLY: ``_one_mode`` on the lower floor.

    Without ``rows`` a small p is tested for proven survival in every
    phase, as in ``_one_mode``."""
    verdict, row, e = _init(a0, b0, pa, d_m, max_iter, tol)
    if rows is not None:
        rows.append(row + (b0, INIT, math.nan))
    if verdict is not RUNNING:
        return verdict
    pb = 1.0 - pa
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
            mu = 1.0 + d_m - D / e
            D = p / (1.0 - p) * mu
            q = pa * exp(-(1.0 - a) / d_m) + pb * exp(-(1.0 - b) / d_m)
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
    return _one_mode((n, a, p, D, mu), e, cut, d_m, max_iter, tol, rows, (1.0, LOWER_ONLY, nan))


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
