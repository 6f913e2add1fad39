"""Per-layer tracing of gridcascade from outside the package.

``Tracer.install()`` replaces the public functions of each layer, in the
module that calls them (modules import by name), with wrappers that record
a span per call and counts taken from the return values. A span's self
time is its duration minus the time covered by the spans it encloses.
Nothing in ``src/`` changes; the wrappers are removed on exit.
"""

from __future__ import annotations

import contextlib
import pickle
import time
from collections import defaultdict

import gridcascade.cascade as cascade
import gridcascade.harness as harness
import gridcascade.threshold as threshold
from gridcascade.meanfield import Verdict

# per-layer metric name -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "graph.draws": "count",
    "graph.draw_s": "s",
    "graph.bytes_computed": "bytes",
    "cascade.trials": "count",
    "cascade.stages": "count",
    "cascade.step_s": "s",
    "cascade.us_per_stage": "us",
    "cascade.load_draw_s": "s",
    "cascade.mc_self_s": "s",
    "cascade.pools": "count",
    "cascade.pool_s": "s",
    "cascade.result_bytes": "bytes",
    "meanfield.runs": "count",
    "meanfield.steps": "count",
    "meanfield.us_per_step": "us",
    "meanfield.run_s": "s",
    "bimodal.runs": "count",
    "bimodal.steps": "count",
    "bimodal.us_per_step": "us",
    "bimodal.run_s": "s",
    "threshold.searches": "count",
    "threshold.evals": "count",
    "threshold.evals_per_search": "count",
    "threshold.undetermined": "count",
    "threshold.self_s": "s",
    "harness.rows": "count",
    "harness.bytes_written": "bytes",
    "harness.write_s": "s",
    "harness.cli_self_s": "s",
}

# counts that must repeat exactly when the same inputs are run again
EXACT_COUNTS = (
    "graph.draws", "cascade.trials", "cascade.stages", "meanfield.steps",
    "bimodal.steps", "threshold.searches", "threshold.evals",
    "threshold.undetermined", "harness.rows",
)


class Tracer:
    """Span totals, self times and counters for one traced unit of work."""

    def __init__(self):
        self.total = defaultdict(float)   # span name -> summed duration
        self.self_ = defaultdict(float)   # span name -> summed self time
        self.count = defaultdict(int)
        self._stack: list[list[float]] = []  # [start, time covered by children]

    @contextlib.contextmanager
    def span(self, name: str):
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            dt = time.perf_counter() - frame[0]
            self.total[name] += dt
            self.self_[name] += dt - frame[1]
            if self._stack:
                self._stack[-1][1] += dt

    def _wrap(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, out)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _pool_class(self):
        tracer = self

        class TracedPool(cascade.ProcessPoolExecutor):
            """Times each pool from creation to shutdown and sizes the
            pickled results it hands back."""

            def __init__(self, *args, **kwargs):
                tracer.count["cascade.pools"] += 1
                self._created = time.perf_counter()
                super().__init__(*args, **kwargs)

            def map(self, *args, **kwargs):
                for result in super().map(*args, **kwargs):
                    tracer.count["cascade.result_bytes"] += len(pickle.dumps(result))
                    yield result

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                if self._created is not None:
                    tracer.total["cascade.pool"] += time.perf_counter() - self._created
                    self._created = None

        return TracedPool

    def _on_draw(self, args, g):
        self.count["graph.draws"] += 1
        self.count["graph.bytes_computed"] += 8 * g.n * g.n

    def _on_cascade(self, args, out):
        self.count["cascade.trials"] += 1
        self.count["cascade.stages"] += out.termination_stage

    def _on_verdict(self, args, verdict):
        self.count["threshold.evals"] += 1
        if verdict is Verdict.UNDETERMINED:
            self.count["threshold.undetermined"] += 1

    def _steps(self, layer):
        def on_result(args, out):
            self.count[f"{layer}.runs"] += 1
            self.count[f"{layer}.steps"] += len(out[1])
        return on_result

    def _on_search(self, args, res):
        self.count["threshold.searches"] += 1

    def _on_write(self, args, path):
        self.count["harness.rows"] += len(args[3])
        self.count["harness.bytes_written"] += path.stat().st_size

    @contextlib.contextmanager
    def install(self):
        """Patch every traced name; restore the originals on exit."""
        patches = [
            (cascade, "generate_er_graph", "graph.draw", self._on_draw),
            (cascade, "init_loads", "cascade.load_draw", None),
            (cascade, "apply_disturbance", "cascade.load_draw", None),
            (cascade, "run_cascade", "cascade.step", self._on_cascade),
            (cascade, "monte_carlo", "cascade.mc", None),
            (harness, "monte_carlo", "cascade.mc", None),
            (threshold, "model_verdict", "threshold.verdict", self._on_verdict),
            (threshold, "run_recursion", "meanfield.run", self._steps("meanfield")),
            (threshold, "run_bimodal", "bimodal.run", self._steps("bimodal")),
            (threshold, "find_d_critical", "threshold.search", self._on_search),
            (harness.OutputWriter, "write_table", "harness.write", self._on_write),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
        saved.append((cascade, "ProcessPoolExecutor", cascade.ProcessPoolExecutor))
        try:
            for owner, attr, name, on_result in patches:
                setattr(owner, attr, self._wrap(name, getattr(owner, attr), on_result))
            cascade.ProcessPoolExecutor = self._pool_class()
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        c, t, s = self.count, self.total, self.self_
        m = {name: float(c[name]) for name in PER_LAYER_UNITS if PER_LAYER_UNITS[name] != "s"}
        m["graph.draw_s"] = t["graph.draw"]
        m["cascade.step_s"] = t["cascade.step"]
        m["cascade.us_per_stage"] = _ratio(1e6 * t["cascade.step"], c["cascade.stages"])
        m["cascade.load_draw_s"] = t["cascade.load_draw"]
        m["cascade.mc_self_s"] = s["cascade.mc"]
        m["cascade.pool_s"] = t["cascade.pool"]
        for layer in ("meanfield", "bimodal"):
            m[f"{layer}.run_s"] = t[f"{layer}.run"]
            m[f"{layer}.us_per_step"] = _ratio(1e6 * t[f"{layer}.run"], c[f"{layer}.steps"])
        m["threshold.evals_per_search"] = _ratio(c["threshold.evals"], c["threshold.searches"])
        m["threshold.self_s"] = s["threshold.search"] + s["threshold.verdict"]
        m["harness.write_s"] = t["harness.write"]
        m["harness.cli_self_s"] = s["harness.cli"]
        return {name: m[name] for name in PER_LAYER_UNITS}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
