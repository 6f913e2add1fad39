"""One benchmark process: set up, warm up, then run timed rounds.

Started by ``run.py`` with ``src/`` on the path and BLAS/OpenMP pinned to
one thread. Set-up ends with one untimed warm-up unit on the workload's
default seed, checked against ``reference.json``; the line ``READY`` on the
protocol stream marks its end. Timed rounds then repeat one unit on the
requested seed until ``--seconds`` is used, and a final JSON line reports
the samples. Everything else the program prints goes to stderr.

The machine-speed probe runs before set-up and between rounds. For a
workload with ``probe_scaled`` set, each timing is also reported divided by
the machine's slowness over that interval (the mean of the Python probes
on either side, relative to ``PROBE_PY_REF``), that is, in seconds at the
reference speed.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import gridcascade
from tracing import EXACT_COUNTS, PER_LAYER_UNITS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


# Python probe time of the reference machine, a 2-vCPU KVM guest (Xeon,
# Python 3.11) in its slower phase
PROBE_PY_REF = 0.0058


def probe() -> tuple[float, float]:
    """Fixed machine-speed probe that never calls gridcascade: a pure-Python
    loop and a loop of small numpy operations, each the fastest of three."""
    py, nps = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0
        for i in range(50_000):
            s += i * i % 7
        t1 = time.perf_counter()
        a = np.linspace(0.0, 1.0, 20_000)
        for _ in range(50):
            a = np.sqrt(a * a + 1.0) - 0.5
        t2 = time.perf_counter()
        py.append(t1 - t0)
        nps.append(t2 - t1)
    return min(py), min(nps)


def slowness(workload, before, after) -> float:
    """How much slower than the reference the machine ran between two
    probes, or 1 for a workload whose timings are not scaled."""
    if not workload.probe_scaled:
        return 1.0
    return (before[0] + after[0]) / 2 / PROBE_PY_REF


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children (pool workers)."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


class Checker:
    """Counts operations and failed ones. A unit fails an operation when it
    breaks an invariant, differs from the committed reference (default
    seed), or differs from the first round on the same seed."""

    def __init__(self, workload, reference: dict | None):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def check(self, result) -> None:
        fp = self.workload.fingerprint(result)
        ops = set().union(*(o for _, o in fp.values()))
        bad = set(self.workload.invalid_ops(result))
        if self.reference is None:
            self.reference = {key: digest for key, (digest, _) in fp.items()}
        for key, (digest, key_ops) in fp.items():
            if self.reference.get(key) != digest:
                bad.update(key_ops)
        if set(fp) != set(self.reference):  # keys missing on either side
            bad.update(ops)
        self.attempted += len(ops)
        self.failed += len(bad & ops)


def timed(workload, tracer, workers=1):
    t0, c0 = time.perf_counter(), cpu_seconds()
    result = workload.run(tracer, workers)
    return result, time.perf_counter() - t0, cpu_seconds() - c0


def traced_unit(workload):
    """One traced unit, serial so every call lands in this process, and for
    a workload with ``pool_workers`` a second traced pass through the process
    pool that gives the pool metrics. Returns the outputs of both passes,
    the metrics and the wall time of the serial pass."""
    tracer = Tracer()
    with tracer.install():
        result, wall, _ = timed(workload, tracer)
    results = [result]
    metrics = tracer.metrics()
    if workload.pool_workers:
        pool = Tracer()
        with pool.install():
            result, _, _ = timed(workload, pool, workload.pool_workers)
        results.append(result)
        pool_metrics = pool.metrics()
        for name in ("cascade.pools", "cascade.pool_s", "cascade.result_bytes"):
            metrics[name] = pool_metrics[name]
    return results, metrics, wall


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args()

    protocol = os.fdopen(os.dup(1), "w", buffering=1)
    sys.stdout = sys.stderr

    src = (HERE.parent / "src").resolve()
    if not Path(gridcascade.__file__).resolve().is_relative_to(src):
        print(f"gridcascade imported from {gridcascade.__file__}, not {src}", file=sys.stderr)
        return 2

    cls = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())[cls.name]
    args.workdir.mkdir(parents=True, exist_ok=True)
    probes = [probe()]

    warm = cls(cls.default_seed, args.workdir)
    warm_check = Checker(warm, reference)
    result, _, _ = timed(warm, Tracer())
    warm_check.check(result)
    workload = warm if args.seed == cls.default_seed else cls(args.seed, args.workdir)
    checker = Checker(workload, reference if args.seed == cls.default_seed else None)
    protocol.write("READY\n")
    probes.append(probe())
    setup_slowness = slowness(cls, probes[0], probes[1])

    walls, cpus, scale, traces = [], [], [], []
    start = time.perf_counter()
    while True:
        if args.trace:
            results, metrics, wall = traced_unit(workload)
            traces.append(metrics)
            walls.append(wall)
        else:
            result, wall, cpu = timed(workload, Tracer())
            results = [result]
            walls.append(wall)
            cpus.append(cpu)
        probes.append(probe())
        scale.append(slowness(cls, probes[-2], probes[-1]))
        for result in results:
            checker.check(result)
        elapsed = time.perf_counter() - start
        # stop where the budget is used up to the nearest round
        if elapsed + statistics.median(walls) / 2 > args.seconds:
            break

    counts_repeat = all(
        t[name] == traces[0][name] for t in traces for name in EXACT_COUNTS
    )
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report = {
        "attempted": warm_check.attempted + checker.attempted,
        "failed": warm_check.failed + checker.failed + (0 if counts_repeat else 1),
        "wall_s": walls,
        "cpu_s": cpus,
        "slowness": scale,
        "setup_slowness": setup_slowness,
        "traces": traces,
        "units": PER_LAYER_UNITS,
        "peak_rss_mb": max(own, child) / 1024.0,
        "probe_python_s": [p[0] for p in probes],
        "probe_numpy_s": [p[1] for p in probes],
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "start_method": multiprocessing.get_start_method(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        },
    }
    protocol.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
