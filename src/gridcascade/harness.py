"""Experiment orchestration and CLI.

Subcommands map one-to-one onto plot-ready tables:

    simulate            Monte Carlo cascades over (nodes, edge_prob, d_m)
                        grids: per-trial rows and aggregate rows
    meanfield           single-mode recursion traces over a d_m grid
    bimodal-meanfield   two-mode recursion traces over a d_m grid
    dcrit               critical disturbance for one model
    sweep-dcrit         d_critical vs constant load level
    sweep-bimodal       d_critical over a fixed-mean two-mode grid

All numbers are serialized with 17 significant digits, so re-running a
command with the same config and seed reproduces every table byte for
byte. The manifest (manifest.json) echoes the config and lists outputs;
only its timestamp varies between identical runs.

Exit codes: 0 success, 1 config/validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .bimodal import run_bimodal
from .cascade import (
    BimodalLoads,
    DeltaLoads,
    UniformLoads,
    monte_carlo,
)
from .meanfield import run_recursion
from .threshold import (
    find_d_critical,
    sweep_bimodal_fixed_mean,
    sweep_dcrit_vs_a0,
)


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


# --- config helpers -------------------------------------------------------

def _require(cfg: dict, key: str, command: str):
    if key not in cfg:
        raise ConfigError(f"'{command}' config is missing required key '{key}'")
    return cfg[key]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """A finite JSON number; ``true`` and ``false`` are not numbers."""
    return _is_int(x) or (isinstance(x, float) and math.isfinite(x))


def _check(ok: bool, name: str, value, expected: str) -> None:
    if not ok:
        raise ConfigError(f"{name} must be {expected}, got {value!r}")


def _as_grid(value) -> list:
    """Accept a scalar, an explicit list, or {start, stop, step}."""
    if isinstance(value, dict):
        try:
            start, stop, step = value["start"], value["stop"], value["step"]
        except KeyError as e:
            raise ConfigError(f"grid dict needs start/stop/step, missing {e}")
        if not all(_is_real(x) for x in (start, stop, step)):
            raise ConfigError(f"grid start/stop/step must be finite numbers, got {value}")
        if step <= 0:
            raise ConfigError(f"grid step must be > 0, got {step}")
        n = int(round((stop - start) / step)) + 1
        grid = [start + i * step for i in range(n) if start + i * step <= stop + step * 1e-9]
        if not grid:
            raise ConfigError(f"empty grid from {value}")
        return grid
    if isinstance(value, list):
        if not value:
            raise ConfigError("grid list must be nonempty")
        return value
    return [value]


def _load_spec(cfg: dict):
    kind = _require(cfg, "kind", "load")
    try:
        if kind == "uniform":
            return UniformLoads()
        if kind == "delta":
            return DeltaLoads(a0=_require(cfg, "a0", "load"))
        if kind == "bimodal":
            return BimodalLoads(
                a0=_require(cfg, "a0", "load"),
                b0=_require(cfg, "b0", "load"),
                pa=_require(cfg, "pa", "load"),
            )
    except (TypeError, ValueError) as e:  # TypeError: a non-numeric value
        raise ConfigError(str(e))
    raise ConfigError(f"unknown load kind '{kind}' (expected uniform/delta/bimodal)")


def _fmt(x) -> str:
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


class OutputWriter:
    """Single writer for all tables and the manifest of one run."""

    def __init__(self, out_dir: Path, fmt: str):
        if fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got '{fmt}'")
        self.out_dir = out_dir
        self.fmt = fmt
        self.files: list[str] = []
        out_dir.mkdir(parents=True, exist_ok=True)

    def write_table(self, name: str, header: list[str], rows: list[tuple]) -> Path:
        path = self.out_dir / f"{name}.{self.fmt}"
        if self.fmt == "csv":
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(header)
                for row in rows:
                    w.writerow([_fmt(x) for x in row])
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

    def write_manifest(self, command: str, config: dict, summary: dict) -> Path:
        path = self.out_dir / "manifest.json"
        manifest = {
            "command": command,
            "version": __version__,
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "config": config,
            "outputs": sorted(self.files),
            "summary": summary,
        }
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=1, default=str)
            fh.write("\n")
        return path


# --- commands -------------------------------------------------------------

def cmd_simulate(cfg: dict, writer: OutputWriter, workers: int) -> dict:
    nodes = _as_grid(_require(cfg, "nodes", "simulate"))
    probs = _as_grid(_require(cfg, "edge_prob", "simulate"))
    dms = _as_grid(_require(cfg, "d_m", "simulate"))
    spec = _load_spec(_require(cfg, "load", "simulate"))
    trials = _require(cfg, "trials", "simulate")
    seed = _require(cfg, "seed", "simulate")
    # every value is checked here, before any trial runs
    for n in nodes:
        _check(_is_int(n) and n >= 1, "nodes", n, "an integer >= 1")
    _check(_is_int(trials) and trials >= 1, "trials", trials, "an integer >= 1")
    _check(_is_int(seed) and seed >= 0, "seed", seed, "an integer >= 0")
    for p in probs:
        _check(_is_real(p) and 0.0 <= p <= 1.0, "edge_prob", p, "a finite number in [0, 1]")
    for d_m in dms:
        _check(_is_real(d_m) and d_m > 0.0, "d_m", d_m, "a finite number > 0")

    trial_rows = []
    agg_rows = []
    summaries = []
    for n in nodes:
        for p in probs:
            for d_m in dms:
                stats = monte_carlo(n, p, spec, d_m, trials, seed, workers=workers)
                for k, out in enumerate(stats.outcomes):
                    trial_rows.append((
                        n, p, d_m, k,
                        out.termination_stage,
                        out.survivor_fraction,
                        1.0 - out.survivor_fraction,
                        ";".join(str(c) for c in out.failures_per_stage),
                    ))
                agg_rows.append((
                    n, p, d_m, trials,
                    stats.prob_no_outage,
                    stats.mean_outage_fraction,
                ))
                summaries.append({
                    "nodes": n, "edge_prob": p, "d_m": d_m,
                    "prob_no_outage": stats.prob_no_outage,
                    "mean_outage_fraction": stats.mean_outage_fraction,
                })
    writer.write_table(
        "trials",
        ["nodes", "edge_prob", "d_m", "trial", "termination_stage",
         "survivor_fraction", "outage_fraction", "failures_per_stage"],
        trial_rows,
    )
    writer.write_table(
        "aggregate",
        ["nodes", "edge_prob", "d_m", "trials", "prob_no_outage",
         "mean_outage_fraction"],
        agg_rows,
    )
    return {"points": summaries}


def _trace_cfg(cfg: dict, command: str):
    dms = _as_grid(_require(cfg, "d_m", command))
    max_iter = cfg.get("max_iter", 10_000)
    tol = cfg.get("tol", 1e-12)
    return dms, max_iter, tol


def cmd_meanfield(cfg: dict, writer: OutputWriter) -> dict:
    a0 = _require(cfg, "a0", "meanfield")
    dms, max_iter, tol = _trace_cfg(cfg, "meanfield")
    rows = []
    verdicts = {}
    for d_m in dms:
        try:
            verdict, trace = run_recursion(a0, d_m, max_iter=max_iter, tol=tol)
        except ValueError as e:
            raise ConfigError(str(e))
        verdicts[_fmt(float(d_m))] = verdict.value
        for s in trace:
            rows.append((d_m, s.n, s.a_n, s.p_n, s.D_n, s.verdict.value))
    writer.write_table(
        "meanfield_trace", ["d_m", "n", "a_n", "p_n", "D_n", "verdict"], rows
    )
    return {"a0": a0, "verdicts": verdicts}


def cmd_bimodal_meanfield(cfg: dict, writer: OutputWriter) -> dict:
    a0 = _require(cfg, "a0", "bimodal-meanfield")
    b0 = _require(cfg, "b0", "bimodal-meanfield")
    pa = _require(cfg, "pa", "bimodal-meanfield")
    dms, max_iter, tol = _trace_cfg(cfg, "bimodal-meanfield")
    rows = []
    verdicts = {}
    for d_m in dms:
        try:
            verdict, trace = run_bimodal(a0, b0, pa, d_m, max_iter=max_iter, tol=tol)
        except ValueError as e:
            raise ConfigError(str(e))
        verdicts[_fmt(float(d_m))] = verdict.value
        for s in trace:
            rows.append((d_m, s.n, s.a_n, s.b_n, s.p_n, s.D_n,
                         s.branch.value, s.verdict.value))
    writer.write_table(
        "bimodal_trace",
        ["d_m", "n", "a_n", "b_n", "p_n", "D_n", "branch", "verdict"],
        rows,
    )
    return {"a0": a0, "b0": b0, "pa": pa, "verdicts": verdicts}


def _model_from_cfg(cfg: dict):
    kind = _require(cfg, "kind", "model")
    try:
        if kind == "unimodal":
            return DeltaLoads(a0=_require(cfg, "a0", "model"))
        if kind == "bimodal":
            return BimodalLoads(
                a0=_require(cfg, "a0", "model"),
                b0=_require(cfg, "b0", "model"),
                pa=_require(cfg, "pa", "model"),
            )
    except (TypeError, ValueError) as e:  # TypeError: a non-numeric value
        raise ConfigError(str(e))
    raise ConfigError(f"unknown model kind '{kind}' (expected unimodal/bimodal)")


def cmd_dcrit(cfg: dict, writer: OutputWriter) -> dict:
    model = _model_from_cfg(_require(cfg, "model", "dcrit"))
    tol_d = cfg.get("tol_d", 1e-4)
    try:
        res = find_d_critical(model, tol_d=tol_d)
    except ValueError as e:
        raise ConfigError(str(e))
    is_uni = isinstance(model, DeltaLoads)
    rows = [(
        "unimodal" if is_uni else "bimodal",
        model.a0,
        math.nan if is_uni else model.b0,
        math.nan if is_uni else model.pa,
        res.d_critical, res.d_low, res.d_high, res.resolution, res.method,
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
    }


def cmd_sweep_dcrit(cfg: dict, writer: OutputWriter) -> dict:
    grid = _as_grid(_require(cfg, "a0_grid", "sweep-dcrit"))
    tol_d = cfg.get("tol_d", 1e-4)
    try:
        rows = sweep_dcrit_vs_a0(grid, tol_d=tol_d)
    except ValueError as e:
        raise ConfigError(str(e))
    writer.write_table(
        "dcrit_vs_a0",
        ["a0", "d_critical", "headroom"],
        [(r.a0, r.d_critical, r.headroom) for r in rows],
    )
    # manifest only: the table stays byte-identical
    undetermined = sum(r.undetermined_in_bracket for r in rows)
    return {"points": len(rows), "undetermined_searches": undetermined}


def cmd_sweep_bimodal(cfg: dict, writer: OutputWriter) -> dict:
    mean = _require(cfg, "mean", "sweep-bimodal")
    a0_grid = _as_grid(_require(cfg, "a0_grid", "sweep-bimodal"))
    b0_grid = _as_grid(_require(cfg, "b0_grid", "sweep-bimodal"))
    tol_d = cfg.get("tol_d", 1e-4)
    try:
        rows = sweep_bimodal_fixed_mean(mean, a0_grid, b0_grid, tol_d=tol_d)
    except ValueError as e:
        raise ConfigError(str(e))
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
    }


# --- entry point ----------------------------------------------------------

COMMANDS = (
    "simulate", "meanfield", "bimodal-meanfield",
    "dcrit", "sweep-dcrit", "sweep-bimodal",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridcascade",
        description="Cascading-failure simulator and mean-field solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides config; required for simulate)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                       help="worker processes for Monte Carlo trials")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def run_command(args: argparse.Namespace) -> dict:
    cfg_path = Path(args.config)
    if not cfg_path.exists():
        raise ConfigError(f"config file not found: {cfg_path}")
    try:
        cfg = json.loads(cfg_path.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.command == "simulate" and "seed" not in cfg:
        raise ConfigError("simulate needs a seed (config 'seed' or --seed); "
                          "there is no wall-clock default")

    writer = OutputWriter(Path(args.out), args.format)
    if args.command == "simulate":
        summary = cmd_simulate(cfg, writer, workers=max(1, args.threads))
    elif args.command == "meanfield":
        summary = cmd_meanfield(cfg, writer)
    elif args.command == "bimodal-meanfield":
        summary = cmd_bimodal_meanfield(cfg, writer)
    elif args.command == "dcrit":
        summary = cmd_dcrit(cfg, writer)
    elif args.command == "sweep-dcrit":
        summary = cmd_sweep_dcrit(cfg, writer)
    else:
        summary = cmd_sweep_bimodal(cfg, writer)
    writer.write_manifest(args.command, cfg, summary)
    return summary


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run_command(args)
        return 0
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
