"""Experiment orchestration and CLI.

Subcommands map one-to-one onto plot-ready tables:

    simulate            Monte Carlo cascades over (nodes, edge_prob, d_m)
                        grids: per-trial rows and aggregate rows
    meanfield           single-mode recursion traces over a d_m grid
    bimodal-meanfield   two-mode recursion traces over a d_m grid
    dcrit               critical disturbance for one model
    sweep-dcrit         d_critical vs constant load level
    sweep-bimodal       d_critical over a fixed-mean two-mode grid

Each subcommand's schema in ``COMMANDS`` gives every config key a rule and
a default; ``validate`` applies them before any work runs. The number rules
are the library's own input checks, so a bad value exits 1 with the message
the library would raise, and a model's fields are checked by its
constructor.

All numbers are serialized with 17 significant digits, so re-running a
command with the same config and seed reproduces every table byte for
byte. The manifest (manifest.json) echoes the config, lists outputs and
records the environment (worker count, Python and numpy versions); only
its timestamp varies between identical runs on one machine.

Exit codes: 0 success, 1 config or command-line error, 2 runtime error
(running out of memory included).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import platform
import sys
from datetime import datetime, timezone
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from . import __version__
from .cascade import (
    BimodalLoads,
    DeltaLoads,
    UniformLoads,
    monte_carlo,
)
from .meanfield import (
    MAX_ITER,
    TOL,
    check_count,
    check_finite,
    check_level,
    check_positive,
    check_probability,
    run_bimodal,
    run_recursion,
)
from .threshold import (
    find_d_critical,
    sweep_bimodal_fixed_mean,
    sweep_dcrit_vs_a0,
)


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


# --- config schema ----------------------------------------------------------
# A key's rule is called as ``rule(key, value)`` and returns the value
# unconverted (the tables print ints and floats differently), the points of
# a grid, or the object a spec describes; else it raises ValueError. The
# number rules are the library's own (``meanfield``), so a bad value is
# reported with the library's message.

def _range(key: str, value: dict) -> list:
    """The points of a grid given as {start, stop, step}."""
    if sorted(value) != ["start", "step", "stop"]:
        raise ValueError(f"{key} must be a grid {{start, stop, step}}, got {value!r}")
    start, stop = (check_finite(f"{key} {end}", value[end]) for end in ("start", "stop"))
    step = check_positive(f"{key} step", value["step"])
    try:
        n = int(round((stop - start) / step)) + 1
    except OverflowError:  # an infinite number of steps
        n = math.inf
    if n > 10**6:  # a typo, not a grid: building it would hang the run
        raise ValueError(f"{key} must be a grid of at most 10**6 points, got {value!r}")
    return [start + i * step for i in range(n) if start + i * step <= stop + step * 1e-9]


def _grid(rule):
    """A grid of points that each pass ``rule``: a number, a nonempty list,
    or {start, stop, step}."""
    def check(key: str, value) -> list:
        grid = _range(key, value) if isinstance(value, dict) else (
            value if isinstance(value, list) else [value])
        if not grid:
            raise ValueError(f"{key} must be a nonempty grid, got {value!r}")
        return [rule(key, x) for x in grid]
    return check


REQUIRED = object()  # the default of a key that must be given


def _apply(keys: dict, cfg: dict, model: type | None = None) -> dict:
    """The checked values of ``cfg``; ``keys`` maps each key to ``(rule,
    default)``. The fields of ``model`` are required keys that build
    ``values["model"]``, whose constructor checks them, once."""
    fields = [f.name for f in dataclasses.fields(model)] if model else []
    keys = {**keys, **dict.fromkeys(fields, (None, REQUIRED))}
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(map(repr, unknown))}")
    values = {}
    try:
        for key, (rule, default) in keys.items():
            if key in cfg:
                values[key] = rule(key, cfg[key]) if rule else cfg[key]
            elif default is REQUIRED:
                raise ConfigError(f"missing required key '{key}'")
            else:
                values[key] = default
        if model:
            values["model"] = model(**{name: values[name] for name in fields})
    except ValueError as e:
        raise ConfigError(str(e)) from None
    return values


def _spec(kinds: dict):
    """A JSON object ``{"kind": k, ...}`` built as ``kinds[k]`` from its
    fields; an error in them is reported after the key."""
    def check(key: str, spec):
        kind = spec.get("kind") if isinstance(spec, dict) else None
        if not (isinstance(kind, str) and kind in kinds):
            raise ValueError(f"{key} must be an object with kind {'/'.join(kinds)}, got {spec!r}")
        fields = {k: v for k, v in spec.items() if k != "kind"}
        try:
            return _apply({}, fields, kinds[kind])["model"]
        except ValueError as e:
            raise ValueError(f"{key}: {e}") from None
    return check


LOAD = _spec({"uniform": UniformLoads, "delta": DeltaLoads, "bimodal": BimodalLoads})
MODEL = _spec({"unimodal": DeltaLoads, "bimodal": BimodalLoads})
TRACE_KEYS = {
    "d_m": (_grid(check_positive), REQUIRED),
    "max_iter": (check_count, MAX_ITER),
    "tol": (check_positive, TOL),
}
TOL_D = (check_positive, 1e-4)


_FLOAT = "%.17g"  # 17 significant digits: every float64 reads back exactly


def _fmt(x: float) -> str:
    return _FLOAT % x


@lru_cache(maxsize=64)
def _row_format(types: tuple[type, ...]) -> str:
    """The ``%`` format of one CSV line whose cells have ``types``: a float
    cell as ``_fmt`` writes it, any other cell as ``str``."""
    return ",".join(_FLOAT if issubclass(t, float) else "%s" for t in types) + "\r\n"


class OutputWriter:
    """Single writer for all tables and the manifest of one run.

    A CSV table is written a line at a time, each line one ``%`` operation
    on its row. Its bytes are those ``csv.writer`` writes, because no cell
    (a number, a bool, a name such as a verdict or a model kind, or a
    ``;``-joined list of counts) holds a comma, a quote or a line break, so
    no cell needs quoting. A JSON table is a list of records whose float
    values are ``_fmt`` strings.
    """

    def __init__(self, out_dir: Path, fmt: str):
        self.out_dir = out_dir
        self.fmt = fmt
        self.files: list[str] = []

    def write_table(self, name: str, header: list[str], rows: list[tuple]) -> Path:
        # made here, not up front: a command that fails first leaves no directory
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"{name}.{self.fmt}"
        if self.fmt == "csv":
            with open(path, "w", newline="") as fh:
                fh.write(",".join(header) + "\r\n")
                # the type tuple is built from a list: tuple() of an iterator
                # fills a tuple free list, about 0.2 MB that stays resident
                fh.writelines(_row_format(tuple([type(x) for x in row])) % row for row in rows)
        else:
            records = [
                {k: (_fmt(v) if isinstance(v, float) else v) for k, v in zip(header, row)}
                for row in rows
            ]
            with open(path, "w") as fh:
                json.dump(records, fh, indent=1)
                fh.write("\n")
        self.files.append(path.name)
        return path

    def write_manifest(self, command: str, config: dict, summary: dict, workers: int) -> Path:
        path = self.out_dir / "manifest.json"
        manifest = {
            "command": command,
            "version": __version__,
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "environment": {
                "workers": workers,
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "config": config,
            "outputs": sorted(self.files),
            "summary": summary,
        }
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=1, default=str)
            fh.write("\n")
        return path


# --- commands -------------------------------------------------------------
# Each takes the checked values, the writer and the worker count.

def cmd_simulate(v: dict, writer: OutputWriter, workers: int) -> dict:
    trials = v["trials"]
    trial_rows = []
    agg_rows = []
    for n in v["nodes"]:
        # one call per (n, d_m) draws each trial once for the whole edge_prob grid
        runs = [monte_carlo(n, v["edge_prob"], v["load"], d_m, trials, v["seed"], workers=workers)
                for d_m in v["d_m"]]
        for j, p in enumerate(v["edge_prob"]):
            for d_m, run in zip(v["d_m"], runs):
                stats = run[j]
                # a float cell rendered once per point, as the writer renders it
                point = [_fmt(x) if isinstance(x, float) else x for x in (p, d_m)]
                for k, out in enumerate(stats.outcomes):
                    trial_rows.append((
                        n, *point, k,
                        out.termination_stage,
                        out.survivor_fraction,
                        1.0 - out.survivor_fraction,
                        ";".join(map(str, out.failures_per_stage)),
                    ))
                agg_rows.append((
                    n, p, d_m, trials,
                    stats.prob_no_outage,
                    stats.mean_outage_fraction,
                ))
    writer.write_table(
        "trials",
        ["nodes", "edge_prob", "d_m", "trial", "termination_stage",
         "survivor_fraction", "outage_fraction", "failures_per_stage"],
        trial_rows,
    )
    header = ["nodes", "edge_prob", "d_m", "trials", "prob_no_outage",
              "mean_outage_fraction"]
    writer.write_table("aggregate", header, agg_rows)
    return {"points": [{k: x for k, x in zip(header, row) if k != "trials"}
                       for row in agg_rows]}


def _trace(run, v: dict, writer: OutputWriter, table: str, header: list[str]) -> dict:
    """``run`` over the d_m grid for the config's model, one row per stage
    with the ``header`` fields of each traced state."""
    model = {f.name: v[f.name] for f in dataclasses.fields(v["model"])}
    rows = []
    verdicts = {}
    for d_m in v["d_m"]:
        verdict, trace = run(*model.values(), d_m, max_iter=v["max_iter"], tol=v["tol"])
        verdicts[_fmt(float(d_m))] = verdict.value
        for s in trace:
            cells = [getattr(s, name) for name in header[1:]]
            rows.append((d_m, *[getattr(x, "value", x) for x in cells]))  # enum -> str
    writer.write_table(table, header, rows)
    return {**model, "verdicts": verdicts}


def cmd_meanfield(v: dict, writer: OutputWriter, workers: int) -> dict:
    return _trace(run_recursion, v, writer, "meanfield_trace",
                  ["d_m", "n", "a_n", "p_n", "D_n", "verdict"])


def cmd_bimodal_meanfield(v: dict, writer: OutputWriter, workers: int) -> dict:
    return _trace(run_bimodal, v, writer, "bimodal_trace",
                  ["d_m", "n", "a_n", "b_n", "p_n", "D_n", "branch", "verdict"])


def cmd_dcrit(v: dict, writer: OutputWriter, workers: int) -> dict:
    model = v["model"]
    res = find_d_critical(model, tol_d=v["tol_d"])
    rows = [(
        "unimodal" if isinstance(model, DeltaLoads) else "bimodal",
        model.a0,
        getattr(model, "b0", math.nan),
        getattr(model, "pa", math.nan),
        res.d_critical, res.d_low, res.d_high, res.resolution, "bisection",
    )]
    writer.write_table(
        "dcrit",
        ["model", "a0", "b0", "pa", "d_critical", "d_low", "d_high",
         "resolution", "method"],
        rows,
    )
    return {
        "d_critical": res.d_critical,
        "bracket": [res.d_low, res.d_high],
        "undetermined_in_bracket": res.undetermined_in_bracket,
        "evaluations": res.evaluations,
    }


def cmd_sweep_dcrit(v: dict, writer: OutputWriter, workers: int) -> dict:
    rows = sweep_dcrit_vs_a0(v["a0_grid"], tol_d=v["tol_d"])
    writer.write_table(
        "dcrit_vs_a0",
        ["a0", "d_critical", "headroom"],
        [(r.a0, r.d_critical, r.headroom) for r in rows],
    )
    # manifest only: the table stays byte-identical
    return {
        "points": len(rows),
        "undetermined_searches": sum(r.undetermined_in_bracket for r in rows),
        "evaluations": sum(r.evaluations for r in rows),
    }


def cmd_sweep_bimodal(v: dict, writer: OutputWriter, workers: int) -> dict:
    mean = v["mean"]
    rows = sweep_bimodal_fixed_mean(mean, v["a0_grid"], v["b0_grid"], tol_d=v["tol_d"])
    feasible = [r for r in rows if r.feasible]
    if not feasible:
        raise ConfigError(
            f"no feasible (a0, b0) pair on the grid for mean={mean}"
        )
    writer.write_table(
        "dcrit_fixed_mean",
        ["a0", "b0", "pa", "d_critical", "feasible"],
        [(r.a0, r.b0, r.pa, r.d_critical, r.feasible) for r in rows],
    )
    best = max(feasible, key=lambda r: r.d_critical)
    return {
        "feasible_points": len(feasible),
        "best": {"a0": best.a0, "b0": best.b0, "d_critical": best.d_critical},
        "undetermined_searches": sum(r.undetermined_in_bracket for r in feasible),
        "evaluations": sum(r.evaluations for r in feasible),
    }


# --- entry point ----------------------------------------------------------

# name: (command, schema, model class whose fields are top-level keys)
COMMANDS = {
    "simulate": (cmd_simulate, {
        "nodes": (_grid(check_count), REQUIRED),
        "edge_prob": (_grid(check_probability), REQUIRED),
        "d_m": (_grid(check_positive), REQUIRED),
        "load": (LOAD, REQUIRED),
        "trials": (check_count, REQUIRED),
        "seed": (partial(check_count, low=0), REQUIRED),  # or --seed; no wall-clock default
    }, None),
    "meanfield": (cmd_meanfield, TRACE_KEYS, DeltaLoads),
    "bimodal-meanfield": (cmd_bimodal_meanfield, TRACE_KEYS, BimodalLoads),
    "dcrit": (cmd_dcrit, {"model": (MODEL, REQUIRED), "tol_d": TOL_D}, None),
    "sweep-dcrit": (cmd_sweep_dcrit, {
        "a0_grid": (_grid(check_level), REQUIRED),
        "tol_d": TOL_D,
    }, None),
    "sweep-bimodal": (cmd_sweep_bimodal, {
        "mean": (check_finite, REQUIRED),
        "a0_grid": (_grid(check_level), REQUIRED),
        "b0_grid": (_grid(check_level), REQUIRED),
        "tol_d": TOL_D,
    }, None),
}


# Above the largest standard exponential numpy draws: its ziggurat tail is
# r - log1p(-u) with r = 7.697 and u <= 1 - 2**-53, so at most 44.434.
SHOCK_MAX = 64.0


def validate(command: str, cfg: dict) -> dict:
    """The checked values of ``cfg`` for ``command``, or ConfigError. The
    library accepts every value that passes: a later ValueError is a fault."""
    _, keys, model = COMMANDS[command]
    values = _apply(keys, cfg, model)
    if command == "simulate":
        n, d_m = max(values["nodes"]), max(values["d_m"])
        # a trial's largest array is its n float64 loads if every edge_prob
        # is 1, else the n x n weights; none may pass sys.maxsize bytes, the
        # most any array can index, whatever this machine's memory
        if all(p == 1.0 for p in values["edge_prob"]):
            most, size = sys.maxsize // 8, "8*n bytes of loads"
        else:
            most, size = math.isqrt(sys.maxsize // 8), "8*n*n bytes of edge weights"
        if n > most:
            raise ConfigError(
                f"nodes must be at most {most} ({size} within sys.maxsize), got {n}")
        # every initial load is below 1 and every shock below SHOCK_MAX*d_m,
        # so this bound keeps each trial's total load finite
        if n > sys.float_info.max / (1.0 + SHOCK_MAX * d_m):  # int vs float: exact
            raise ConfigError(
                f"d_m: {d_m} on {n} nodes can overflow the total load; "
                f"need max(nodes) * (1 + {SHOCK_MAX:g} * max(d_m)) < {sys.float_info.max:g}")
    return values


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # a command-line error is a config error (exit 1), not argparse's 2
        self.print_usage(sys.stderr)
        raise ConfigError(message)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call shares it."""
    parser = _ArgumentParser(
        prog="gridcascade",
        description="Cascading-failure simulator and mean-field solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        if name == "simulate":
            p.add_argument("--seed", type=int, help="master seed (overrides config)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="worker processes for Monte Carlo trials (default: 1)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def run_command(args: argparse.Namespace) -> dict:
    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as e:  # ValueError: not UTF-8 or not JSON
        raise ConfigError(f"cannot read config {args.config}: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    try:
        check_count("--threads", args.threads)
    except ValueError as e:
        raise ConfigError(str(e)) from None

    values = validate(args.command, cfg)
    writer = OutputWriter(Path(args.out), args.format)
    # only simulate runs trials in worker processes; the rest run serially
    workers = args.threads if args.command == "simulate" else 1
    summary = COMMANDS[args.command][0](values, writer, workers)
    writer.write_manifest(args.command, cfg, summary, workers)
    return summary


def main(argv: list[str] | None = None) -> int:
    try:
        run_command(build_parser().parse_args(argv))
        return 0
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
