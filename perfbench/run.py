"""gridcascade benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Workloads, and why each was chosen, are listed in ``BENCHMARK.json`` and
defined in ``workloads.py``.

With ``--trace 0`` the run starts SETUPS fresh worker processes one after
another. Each one's set-up (interpreter start, imports, inputs, one
warm-up unit on the default seed) is timed from here, and each then runs
timed rounds of one unit for its share of ``--seconds``. The end-to-end
metrics are medians over those samples:

    wall_s       elapsed time of one unit
    cpu_s        CPU time of one unit, process plus any pool workers
    setup_s      set-up time of a worker process
    peak_rss_mb  peak RSS of the worker process or its largest child

On the interpreter-bound workloads (simulate_small_n, dcrit_sweeps) the
three times are in seconds at the reference machine speed: each sample is
divided by the slowness the Python speed probe measured around it (see
``worker.py``). The host this benchmark was built on changes speed by up
to 1.6x in phases lasting minutes, longer than a run; the scaling takes
most of that out of those two workloads, but over-corrects the
memory-bound agreement_n5000, whose times stay as measured. The unscaled
samples, the probe and the hypervisor steal time are printed on a
``machine`` line before the result, with the noise controls and versions.

With ``--trace 1`` one worker runs traced units instead (see
``tracing.py``) and the per-layer metrics of one unit are reported, as
medians over the traced units. ``trace.wall_s`` is the traced unit's
time, scaled like ``wall_s``, so the two differ by the tracing overhead.
simulate_small_n's traced unit adds a pass with 2 workers for the
process-pool metrics; its output must equal the serial one. Every output is
checked (see ``workloads.py``); ``failed`` counts operations whose output
was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUPS = 3
DEADLINE_S = 170.0  # every run must end within 180 s
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    # compile from source in every process, so no run reads a cache
    # left by an earlier one
    "PYTHONDONTWRITEBYTECODE": "1",
}


def start_worker(args, seconds: float, index: int, deadline: float):
    """Run one worker; return (set-up seconds, its report)."""
    env = dict(os.environ, **PINNED, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--workdir", str(WORK / f"{os.getpid()}-{index}")]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        killer.cancel()
        proc.kill()
        proc.wait()
    if ready.strip() != "READY" or code != 0 or not lines:
        raise RuntimeError(f"worker {index} failed (exit code {code})")
    return setup, json.loads(lines[-1])


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, from /proc/stat (0 where
    the kernel does not report it)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "gridcascade" / "__init__.py").is_file():
        print(f"no gridcascade sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    steal0 = steal_seconds()
    n = 1 if args.trace else SETUPS
    runs = []
    try:
        for i in range(n):
            # each worker gets an equal share of what is left of the budget
            left = args.seconds - sum(sum(r["wall_s"]) for _, r in runs)
            runs.append(start_worker(args, max(0.0, left) / (n - i), i, deadline))
    except RuntimeError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    setups = [s for s, _ in runs]
    reports = [r for _, r in runs]
    walls = [w for r in reports for w in r["wall_s"]]
    cpus = [c for r in reports for c in r["cpu_s"]]
    slow = [x for r in reports for x in r["slowness"]]
    probe_py = [x for r in reports for x in r["probe_python_s"]]
    probe_np = [x for r in reports for x in r["probe_numpy_s"]]
    machine = dict(reports[0]["machine"])
    machine.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "workers_started": n, "rounds": len(walls),
        "steal_s": steal_seconds() - steal0,
        "probe_python_s": statistics.median(probe_py),
        "probe_numpy_s": statistics.median(probe_np),
        "slowness": statistics.median(slow),
        # unscaled seconds, as measured
        "samples": {"setup_s": setups, "wall_s": walls, "cpu_s": cpus},
    })

    if args.trace:
        units = dict(reports[0]["units"], **{
            "trace.wall_s": "s", "probe.python_s": "s", "probe.numpy_s": "s"})
        traces = reports[0]["traces"]
        values = {name: statistics.median(t[name] for t in traces) for name in traces[0]}
        values["trace.wall_s"] = statistics.median(w / x for w, x in zip(walls, slow))
        values["probe.python_s"] = machine["probe_python_s"]
        values["probe.numpy_s"] = machine["probe_numpy_s"]
    else:
        units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        values = {
            "wall_s": statistics.median(w / x for w, x in zip(walls, slow)),
            "cpu_s": statistics.median(c / x for c, x in zip(cpus, slow)),
            "setup_s": statistics.median(
                s / r["setup_slowness"] for s, r in zip(setups, reports)),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
        }
    print(json.dumps({"machine": machine}))
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
