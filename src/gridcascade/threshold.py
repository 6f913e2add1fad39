"""Critical-disturbance search and parameter sweeps.

``find_d_critical`` assumes that the mean-field verdict is survive below
some disturbance mean and complete outage above it, brackets that boundary
by geometric scan and closes in by bisection. A one-mode verdict is exact
(``model_verdict``) and monotone; a two-mode probe runs the recursion,
stopping early only on proven survival. Its verdict flips more than once
for some splits (README, model conventions), and there the search
returns one of the flips.
``coarse_scan`` checks the assumption on an explicit grid. A search sets
no stage budget: a two-mode probe runs the traces' default of 10,000
stages, and a verdict it leaves Undetermined (near the boundary, where the
recursion is slowest) is conservatively counted as a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cascade import BimodalLoads, DeltaLoads
from .meanfield import (
    COMPLETE_OUTAGE,
    MAX_ITER,
    SURVIVES,
    TOL,
    Verdict,
    _two_mode,
    check_finite,
    check_level,
    check_modes,
    check_positive,
)

# unused, but perfbench/tracing.py wraps them here
from .meanfield import run_bimodal, run_recursion  # noqa: F401

MeanFieldModel = DeltaLoads | BimodalLoads


class NonMonotoneError(RuntimeError):
    """A scan saw failure below survival, breaking the bisection premise."""


@dataclass(frozen=True)
class ThresholdResult:
    d_critical: float
    d_low: float   # survives
    d_high: float  # fails (or Undetermined, counted as failure)
    resolution: float
    undetermined_in_bracket: bool = False  # some probe was Undetermined
    evaluations: int = 0  # distinct disturbance levels evaluated


def model_verdict(model: MeanFieldModel, d_m: float) -> Verdict:
    """Mean-field verdict for one disturbance level. It checks ``d_m`` for
    either model, but not the model: that was checked when it was built.

    A ``DeltaLoads`` model runs no stage: every alive node carries a0 plus
    one shared shift, and the cascade stops short of capacity exactly when
    d_m*(1 + ln(1 + 1/d_m)) <= 1 - a0, whose left side increases in d_m.
    The log is log1p(d_m) - log(d_m), as 1/d_m overflows at a subnormal
    d_m. The verdict is never Undetermined. A ``BimodalLoads`` model runs
    the two-mode recursion's scalar loop alone, on the traces' default
    stage budget (``MAX_ITER`` stages, ``TOL``), and may stop a surviving
    run early on a proven bound."""
    check_positive("disturbance mean", d_m)
    if isinstance(model, DeltaLoads):
        return (SURVIVES if d_m * (1.0 + math.log1p(d_m) - math.log(d_m))
                <= 1.0 - model.a0 else COMPLETE_OUTAGE)
    return _two_mode(model.a0, model.b0, model.pa, d_m, MAX_ITER, TOL, None)


def _fails(v: Verdict) -> bool:
    # Undetermined counts as failure: conservative resilience estimate
    return v is not SURVIVES


def find_d_critical(model: MeanFieldModel, tol_d: float = 1e-4) -> ThresholdResult:
    """Bisect the survive/fail boundary in the disturbance mean.

    Each disturbance level is evaluated at most once per search and its
    verdict recorded; the verdict is a pure function of ``(model, d)``, so
    a re-run could only repeat it. Only a surviving probe ever becomes
    d_low and only a failing one d_high, so the bracket needs no final
    check. The one exception is the no-headroom exit: when every scan
    level down to 1e-15 fails, the result is (0.0, 0.0, 1e-15), and
    neither endpoint is a probe. Bisection stops at ``tol_d`` or at two adjacent floats,
    whichever comes first. ``undetermined_in_bracket`` reports whether any
    (two-mode) probe came back Undetermined, and ``evaluations`` counts
    the levels evaluated. A two-mode model, then ``tol_d``, are checked
    before the first probe."""
    if not isinstance(model, MeanFieldModel):
        raise TypeError(f"model must be a DeltaLoads or a BimodalLoads, got {model!r}")
    if isinstance(model, BimodalLoads):  # once per search: its probes do not check it
        check_modes(model.a0, model.b0, model.pa)
    check_positive("tol_d", tol_d)
    probes: dict[float, Verdict] = {}

    def fails(d: float) -> bool:
        verdict = probes.get(d)
        if verdict is None:
            verdict = probes[d] = model_verdict(model, d)
        return _fails(verdict)

    def result(d_critical: float, lo: float, hi: float) -> ThresholdResult:
        return ThresholdResult(d_critical, lo, hi, tol_d,
                               Verdict.UNDETERMINED in probes.values(), len(probes))

    # geometric scan for a surviving lower endpoint
    lo = 1e-3
    while fails(lo):
        lo /= 4.0
        if lo < 1e-15:
            # no headroom at any resolvable disturbance
            return result(0.0, 0.0, 1e-15)
    # geometric scan for a failing upper endpoint
    hi = lo
    while not fails(hi):
        hi *= 2.0
        if hi > 1.0:
            raise NonMonotoneError("no failing disturbance found below d_max=1.0")
    lo = hi / 2.0  # the last surviving scan point (power-of-2 scaling is exact)
    while hi - lo > tol_d:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent floats
        if fails(mid):
            hi = mid
        else:
            lo = mid
    return result(0.5 * (lo + hi), lo, hi)


def coarse_scan(model: MeanFieldModel, d_values: list[float]) -> list[tuple[float, Verdict]]:
    """Linear verdict scan; raises NonMonotoneError on more than one flip."""
    out = [(d, model_verdict(model, d)) for d in d_values]
    flips = sum(
        1 for (_, v1), (_, v2) in zip(out, out[1:]) if _fails(v1) != _fails(v2)
    )
    if flips > 1:
        raise NonMonotoneError(f"verdict flipped {flips} times across the scan")
    return out


@dataclass(frozen=True)
class UnimodalSweepRow:
    a0: float
    d_critical: float
    headroom: float  # excess capacity 1 - a0
    undetermined_in_bracket: bool = False
    evaluations: int = 0  # of the search, for the manifest only


def sweep_dcrit_vs_a0(a0_grid: list[float], tol_d: float = 1e-4) -> list[UnimodalSweepRow]:
    """Critical disturbance for each constant-load level. The inputs are
    checked before the first search: every level must be a number in
    (0, 1), and ``tol_d`` a finite number > 0."""
    for a0 in a0_grid:
        check_level("a0", a0)
    check_positive("tol_d", tol_d)
    rows = []
    for a0 in a0_grid:
        res = find_d_critical(DeltaLoads(a0), tol_d=tol_d)
        rows.append(UnimodalSweepRow(a0, res.d_critical, 1.0 - a0,
                                     res.undetermined_in_bracket, res.evaluations))
    return rows


@dataclass(frozen=True)
class FixedMeanSweepRow:
    a0: float
    b0: float
    pa: float
    d_critical: float
    feasible: bool
    undetermined_in_bracket: bool = False
    evaluations: int = 0  # of the search (0 for a marker row), for the manifest only


def sweep_bimodal_fixed_mean(
    mean: float,
    a0_grid: list[float],
    b0_grid: list[float],
    tol_d: float = 1e-4,
) -> list[FixedMeanSweepRow]:
    """Critical disturbance over two-mode splits with a fixed mean load.

    For each (a0, b0) the weight pa = (b0 - mean) / (b0 - a0) is forced by
    the mean constraint; pairs needing pa outside (0, 1) are kept as
    infeasible marker rows (a weight of exactly 0 or 1 leaves a single
    mode and just duplicates the equal-load cell). A pair with a0 > b0 is
    an infeasible marker row too: a0 names the lighter mode, and the
    mirrored pair (b0, a0) covers that split. The a0 = b0 = mean cell
    itself uses the single-mode model.

    The inputs are checked before the first search: ``mean`` must be a
    finite number, every grid value a number in (0, 1), and ``tol_d`` a
    finite number > 0. A finite mean outside (0, 1) gives infeasible rows.
    """
    check_finite("mean", mean)
    for x in a0_grid:
        check_level("a0", x)
    for x in b0_grid:
        check_level("b0", x)
    check_positive("tol_d", tol_d)
    rows = []
    for a0 in a0_grid:
        for b0 in b0_grid:
            if a0 == b0:
                pa = 1.0
                model = DeltaLoads(a0) if a0 == mean else None
            else:
                pa = (b0 - mean) / (b0 - a0)
                model = BimodalLoads(a0, b0, pa) if a0 < b0 and 0.0 < pa < 1.0 else None
            if model is None:
                rows.append(FixedMeanSweepRow(a0, b0, math.nan, math.nan, False))
                continue
            res = find_d_critical(model, tol_d=tol_d)
            rows.append(FixedMeanSweepRow(a0, b0, pa, res.d_critical, True,
                                          res.undetermined_in_bracket, res.evaluations))
    return rows
