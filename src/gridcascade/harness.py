"""Experiment orchestration and CLI.

Subcommands map one-to-one onto plot-ready tables:

    simulate            Monte Carlo cascades over (nodes, edge_prob, d_m)
                        grids: per-trial rows and aggregate rows
    meanfield           single-mode recursion traces over a d_m grid
    bimodal-meanfield   two-mode recursion traces over a d_m grid
    dcrit               critical disturbance for one model
    sweep-dcrit         d_critical vs constant load level
    sweep-bimodal       d_critical over a fixed-mean two-mode grid

Each subcommand's schema in ``COMMANDS`` gives every config key a check and
a default; ``validate`` applies it before any work runs.

All numbers are serialized with 17 significant digits, so re-running a
command with the same config and seed reproduces every table byte for
byte. The manifest (manifest.json) echoes the config, lists outputs and
records the environment (worker count, Python and numpy versions); only
its timestamp varies between identical runs on one machine.

Exit codes: 0 success, 1 config or command-line error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import platform
import sys
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from .cascade import (
    BimodalLoads,
    DeltaLoads,
    UniformLoads,
    monte_carlo,
)
from .meanfield import run_bimodal, run_recursion
from .threshold import (
    find_d_critical,
    sweep_bimodal_fixed_mean,
    sweep_dcrit_vs_a0,
)


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


# --- value checks ---------------------------------------------------------
# A check returns its value unconverted (the tables print ints and floats
# differently) or, for a spec, the object it describes; else ValueError.

def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """A finite JSON number, also as a float; true and false are not numbers."""
    if _is_int(x):
        return abs(x) <= sys.float_info.max
    return isinstance(x, float) and math.isfinite(x)


def _check(ok, expected: str):
    def check(x):
        if not ok(x):
            raise ValueError(f"must be {expected}, got {x!r}")
        return x
    return check


_count = _check(lambda x: _is_int(x) and x >= 1, "an integer >= 1")
_seed = _check(lambda x: _is_int(x) and x >= 0, "an integer >= 0")
_number = _check(_is_real, "a finite number")
_positive = _check(lambda x: _is_real(x) and x > 0, "a finite number > 0")
_probability = _check(lambda x: _is_real(x) and 0 <= x <= 1, "a finite number in [0, 1]")


def _level(x):
    """A constant load level, with the range ``DeltaLoads`` enforces."""
    return DeltaLoads(_number(x)).a0


def _as_grid(value) -> list:
    """Accept a scalar, an explicit list, or {start, stop, step}."""
    if isinstance(value, dict):
        if sorted(value) != ["start", "step", "stop"]:
            raise ValueError(f"grid dict needs exactly start/stop/step, got {value}")
        start, stop, step = value["start"], value["stop"], value["step"]
        if not all(_is_real(x) for x in (start, stop, step)):
            raise ValueError(f"grid start/stop/step must be finite numbers, got {value}")
        if step <= 0:
            raise ValueError(f"grid step must be > 0, got {step}")
        try:
            n = int(round((stop - start) / step)) + 1
        except OverflowError:  # an infinite number of steps
            n = math.inf
        if n > 10**6:  # a typo, not a grid: building it would hang the run
            raise ValueError(f"grid {value} has more than 10**6 points")
        grid = [start + i * step for i in range(n) if start + i * step <= stop + step * 1e-9]
        if not grid:
            raise ValueError(f"empty grid from {value}")
        return grid
    if isinstance(value, list):
        if not value:
            raise ValueError("grid list must be nonempty")
        return value
    return [value]


def _grid(check):
    """A grid (see ``_as_grid``) whose every point passes ``check``."""
    return lambda value: [check(x) for x in _as_grid(value)]


REQUIRED = object()  # the default of a key that must be given


def _apply(keys: dict, cfg: dict, model: type | None = None) -> dict:
    """The checked values of ``cfg``; ``keys`` maps each key to ``(check,
    default)``. The fields of ``model`` are number keys that build
    ``values["model"]``, so its range and cross-field rules apply, once."""
    fields = [f.name for f in dataclasses.fields(model)] if model else []
    keys = {**keys, **{name: (_number, REQUIRED) for name in fields}}
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(map(repr, unknown))}")
    values = {}
    for key, (check, default) in keys.items():
        if key in cfg:
            try:
                values[key] = check(cfg[key])
            except ValueError as e:
                raise ConfigError(f"{key}: {e}") from None
        elif default is REQUIRED:
            raise ConfigError(f"missing required key '{key}'")
        else:
            values[key] = default
    if model:
        try:
            values["model"] = model(**{name: values[name] for name in fields})
        except ValueError as e:
            raise ConfigError(str(e)) from None
    return values


def _spec(kinds: dict):
    """A JSON object ``{"kind": k, ...}`` built as ``kinds[k]`` from its fields."""
    def check(spec):
        kind = spec.get("kind") if isinstance(spec, dict) else None
        if not (isinstance(kind, str) and kind in kinds):
            raise ValueError(f"must be an object with kind {'/'.join(kinds)}, got {spec!r}")
        fields = {k: v for k, v in spec.items() if k != "kind"}
        return _apply({}, fields, kinds[kind])["model"]
    return check


LOAD = _spec({"uniform": UniformLoads, "delta": DeltaLoads, "bimodal": BimodalLoads})
MODEL = _spec({"unimodal": DeltaLoads, "bimodal": BimodalLoads})
TRACE_KEYS = {
    "d_m": (_grid(_positive), REQUIRED),
    "max_iter": (_count, 10_000),
    "tol": (_positive, 1e-12),
}
TOL_D = (_positive, 1e-4)


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
        out_dir.mkdir(parents=True, exist_ok=True)

    def write_table(self, name: str, header: list[str], rows: list[tuple]) -> Path:
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
        "nodes": (_grid(_count), REQUIRED),
        "edge_prob": (_grid(_probability), REQUIRED),
        "d_m": (_grid(_positive), REQUIRED),
        "load": (LOAD, REQUIRED),
        "trials": (_count, REQUIRED),
        "seed": (_seed, REQUIRED),  # or --seed; there is no wall-clock default
    }, None),
    "meanfield": (cmd_meanfield, TRACE_KEYS, DeltaLoads),
    "bimodal-meanfield": (cmd_bimodal_meanfield, TRACE_KEYS, BimodalLoads),
    "dcrit": (cmd_dcrit, {"model": (MODEL, REQUIRED), "tol_d": TOL_D}, None),
    "sweep-dcrit": (cmd_sweep_dcrit, {
        "a0_grid": (_grid(_level), REQUIRED),
        "tol_d": TOL_D,
    }, None),
    "sweep-bimodal": (cmd_sweep_bimodal, {
        "mean": (_number, REQUIRED),
        "a0_grid": (_grid(_level), REQUIRED),
        "b0_grid": (_grid(_level), REQUIRED),
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
        # every initial load is below 1 and every shock below SHOCK_MAX*d_m,
        # so this bound keeps each trial's total load finite
        n, d_m = max(values["nodes"]), max(values["d_m"])
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


def build_parser() -> argparse.ArgumentParser:
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
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")

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
