"""The benchmark's workloads: inputs from a seed, one unit of work, checks.

A unit is the fixed amount of work that one timed round repeats. Each
workload reports its output as a fingerprint, ``{key: (digest, ops)}``,
where ``ops`` are the indices of the operations (trials or d_crit rows) the
key covers. A key whose digest differs from the reference fails all of its
operations; ``invalid_ops`` names operations that break an invariant.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from gridcascade import cascade, harness

AGREEMENT_TRIALS = 2      # per disturbance level
SIMULATE_TRIALS = 150     # per (nodes, edge_prob) point


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _trial_digest(out) -> str:
    text = "%d|%r|%s" % (out.termination_stage, out.survivor_fraction,
                         ",".join(map(str, out.failures_per_stage)))
    return _sha(text.encode())[:16]


class Agreement:
    """The first trials of acceptance criterion 5, through the library with
    ``workers=1``: one subcritical and one supercritical disturbance."""

    name = "agreement_n5000"
    default_seed = 1001
    pool_workers = 0
    # memory-bound: the probe's speed phases do not carry over to it
    probe_scaled = False

    def __init__(self, seed: int, workdir: Path):
        a = cascade.DeltaLoads(0.8)
        self.calls = [(5000, 1.0, a, 0.03, AGREEMENT_TRIALS, seed),
                      (5000, 1.0, a, 0.07, AGREEMENT_TRIALS, seed + 1)]

    def run(self, tracer, workers: int):
        # looked up at call time so a traced run sees the wrapped function
        return [cascade.monte_carlo(*args, workers=workers) for args in self.calls]

    def fingerprint(self, result):
        fp, op = {}, 0
        for args, stats in zip(self.calls, result):
            for k, out in enumerate(stats.outcomes):
                fp[f"d_m={args[3]!r},seed={args[5]},trial={k}"] = (_trial_digest(out), (op,))
                op += 1
        return fp

    def invalid_ops(self, result):
        bad, op = set(), 0
        for stats in result:
            for out in stats.outcomes:
                f = out.survivor_fraction
                # a complete graph fails all or nothing
                if not (f in (0.0, 1.0)
                        and out.termination_stage == len(out.failures_per_stage)
                        and all(k >= 1 for k in out.failures_per_stage)
                        and sum(out.failures_per_stage) <= 5000):
                    bad.add(op)
                op += 1
        return bad


class CliWorkload:
    """CLI subcommands run in-process through ``harness.main``."""

    tables: tuple[str, ...] = ()
    pool_workers = 0
    # interpreter-bound, so its time follows the Python probe
    probe_scaled = True

    def __init__(self, seed: int, workdir: Path):
        self.out = workdir / "out"
        self.argvs = []
        for command, cfg in self.make_commands(seed):
            path = workdir / f"{command}.json"
            path.write_text(json.dumps(cfg))
            self.argvs.append([command, "--config", str(path), "--out", str(self.out)])

    def run(self, tracer, workers: int):
        for argv in self.argvs:
            with tracer.span("harness.cli"):
                code = harness.main([*argv, "--threads", str(workers)])
            if code != 0:
                raise RuntimeError(f"gridcascade {argv[0]} exited with {code}")
        return {name: (self.out / name).read_bytes() for name in self.tables}

    @staticmethod
    def rows(data: bytes) -> list[dict]:
        return list(csv.DictReader(data.decode().splitlines()))


def _grid(start, stop, step):
    return {"start": start, "stop": stop, "step": step}


class SimulateSmallN(CliWorkload):
    name = "simulate_small_n"
    default_seed = 42
    tables = ("trials.csv", "aggregate.csv")
    # Timed serially: with 2 workers on 2 vCPUs every tick the hypervisor
    # steals from either one stalls the unit, and wall time varied by 45%
    # between runs. The traced run adds a 2-worker pass for the pool
    # metrics, whose output must match the serial one.
    pool_workers = 2

    def make_commands(self, seed):
        cfg = {"nodes": [10, 50, 100], "edge_prob": _grid(0.1, 1.0, 0.1),
               "d_m": 0.1, "load": {"kind": "uniform"},
               "trials": SIMULATE_TRIALS, "seed": seed}
        return [("simulate", cfg)]

    def fingerprint(self, result):
        ops = tuple(range(len(self.rows(result["trials.csv"]))))
        return {name: (_sha(data), ops) for name, data in result.items()}

    def invalid_ops(self, result):
        import numpy as np

        bad = set()
        points: dict[tuple, list] = {}
        for op, r in enumerate(self.rows(result["trials.csv"])):
            f = float(r["survivor_fraction"])
            failures = [int(k) for k in r["failures_per_stage"].split(";") if k]
            ok = (0.0 <= f <= 1.0
                  and int(r["termination_stage"]) == len(failures)
                  and sum(failures) <= int(r["nodes"])
                  and float(r["outage_fraction"]) == 1.0 - f)
            if float(r["edge_prob"]) == 1.0:
                ok = ok and f in (0.0, 1.0)
            if not ok:
                bad.add(op)
            points.setdefault((r["nodes"], r["edge_prob"], r["d_m"]), []).append((op, f))
        # every aggregate row must equal the statistics of its trial rows
        for r in self.rows(result["aggregate.csv"]):
            trials = points.pop((r["nodes"], r["edge_prob"], r["d_m"]), [])
            f = np.array([x for _, x in trials])
            if (len(trials) != int(r["trials"])
                    or float(r["prob_no_outage"]) != float(np.mean(f == 1.0))
                    or float(r["mean_outage_fraction"]) != float(1.0 - f.mean())):
                bad.update(op for op, _ in trials)
        for trials in points.values():  # trial rows without an aggregate row
            bad.update(op for op, _ in trials)
        return bad


class DcritSweeps(CliWorkload):
    name = "dcrit_sweeps"
    default_seed = 0
    tables = ("dcrit_vs_a0.csv", "dcrit_fixed_mean.csv")

    def make_commands(self, seed):
        # The seed shifts the sweep-dcrit grid by a fraction of its step.
        # The fixed-mean grid stays put: its a0 = b0 = mean cell needs the
        # exact grid values.
        step = 0.005
        shift = step * ((seed * 0.6180339887498949) % 1.0)
        sweep = {"a0_grid": _grid(0.30 + shift, 0.95 + shift, step)}
        fixed = {"mean": 0.8, "a0_grid": _grid(0.40, 0.80, 0.02),
                 "b0_grid": _grid(0.80, 0.98, 0.01)}
        return [("sweep-dcrit", sweep), ("sweep-bimodal", fixed)]

    def fingerprint(self, result):
        fp, first = {}, 0
        for name in self.tables:
            n = len(self.rows(result[name]))
            fp[name] = (_sha(result[name]), tuple(range(first, first + n)))
            first += n
        return fp

    def invalid_ops(self, result):
        bad, op = set(), 0
        for r in self.rows(result["dcrit_vs_a0.csv"]):
            if not (0.0 < float(r["d_critical"]) < 1.0
                    and float(r["headroom"]) == 1.0 - float(r["a0"])):
                bad.add(op)
            op += 1
        for r in self.rows(result["dcrit_fixed_mean.csv"]):
            d, pa = float(r["d_critical"]), float(r["pa"])
            if r["feasible"] == "True":
                ok = 0.0 < d < 1.0 and 0.0 < pa <= 1.0
            else:
                ok = r["feasible"] == "False" and math.isnan(d) and math.isnan(pa)
            if not ok:
                bad.add(op)
            op += 1
        return bad


WORKLOADS = {w.name: w for w in (Agreement, SimulateSmallN, DcritSweeps)}
