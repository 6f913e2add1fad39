import csv
import hashlib
import json
import math
import platform
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridcascade import BimodalLoads, DeltaLoads, cascade, find_d_critical, harness
from gridcascade.harness import main


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


SIM_CFG = {
    "nodes": [10, 20],
    "edge_prob": [0.2, 1.0],
    "load": {"kind": "uniform"},
    "d_m": 0.1,
    "trials": 30,
    "seed": 42,
}


def test_simulate_emits_trials_and_aggregate(tmp_path):
    cfg = write_config(tmp_path, "sim.json", SIM_CFG)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    agg = read_csv(tmp_path / "out" / "aggregate.csv")
    assert agg[0] == ["nodes", "edge_prob", "d_m", "trials",
                      "prob_no_outage", "mean_outage_fraction"]
    assert len(agg) == 1 + 4  # one aggregate row per (nodes, edge_prob) point
    trials = read_csv(tmp_path / "out" / "trials.csv")
    assert len(trials) == 1 + 4 * 30
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert sorted(manifest["outputs"]) == ["aggregate.csv", "trials.csv"]
    assert manifest["config"]["seed"] == 42


def test_simulate_is_byte_reproducible_across_runs_and_threads(tmp_path):
    cfg = write_config(tmp_path, "sim.json", SIM_CFG)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a"),
                 "--threads", "1"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "b"),
                 "--threads", "3"]) == 0
    for name in ("trials.csv", "aggregate.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_simulate_single_trial_aggregate_matches_trial(tmp_path):
    cfg = write_config(tmp_path, "sim.json", {
        "nodes": 10, "edge_prob": 1.0, "load": {"kind": "uniform"},
        "d_m": 0.1, "trials": 1, "seed": 5,
    })
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    trials = read_csv(tmp_path / "out" / "trials.csv")
    agg = read_csv(tmp_path / "out" / "aggregate.csv")
    f = float(trials[1][5])
    assert float(agg[1][4]) == (1.0 if f == 1.0 else 0.0)
    assert float(agg[1][5]) == pytest.approx(1.0 - f)


# sha256 of the tables written for GOLDEN_CFG, recorded from the dense
# adjacency engine before the complete-graph path existed; p=0.5 runs the
# general path and p=1.0 the complete-graph path
GOLDEN_CFG = {
    "nodes": [10, 50],
    "edge_prob": [0.5, 1.0],
    "load": {"kind": "uniform"},
    "d_m": 0.1,
    "trials": 50,
    "seed": 42,
}
GOLDEN_SHA256 = {
    "trials.csv": "86e8a94ae145d0a8e027cf387a32cf0d6621931ecd368e2a701ec273336a3dc5",
    "aggregate.csv": "d25da8daa9950b4d4a18d1f972124006219a5742dfcb495a861fa4f7e18bfe35",
}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_tables_match_golden_digests(tmp_path, threads):
    cfg = write_config(tmp_path, "sim.json", GOLDEN_CFG)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--threads", threads]) == 0
    for name, digest in GOLDEN_SHA256.items():
        data = (tmp_path / "out" / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_pooled_simulate_starts_one_pool_per_nodes_and_d_m(tmp_path, monkeypatch):
    pools = []

    class CountedPool(cascade.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(None)
            super().__init__(*args, **kwargs)

    cfg = write_config(tmp_path, "sim.json", dict(SIM_CFG, edge_prob=[0.2, 0.6, 1.0], trials=10))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "serial")]) == 0
    monkeypatch.setattr(cascade, "ProcessPoolExecutor", CountedPool)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "pooled"),
                 "--threads", "2"]) == 0
    assert len(pools) == 2  # 2 nodes x 1 d_m, not one per edge_prob point as well
    for name in ("trials.csv", "aggregate.csv"):
        assert (tmp_path / "pooled" / name).read_bytes() == \
            (tmp_path / "serial" / name).read_bytes()


def test_simulate_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, "sim.json", dict(SIM_CFG, seed=1))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a"),
                 "--seed", "42"]) == 0
    cfg2 = write_config(tmp_path, "sim2.json", SIM_CFG)
    assert main(["simulate", "--config", cfg2, "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "trials.csv").read_bytes() == \
        (tmp_path / "b" / "trials.csv").read_bytes()


def test_simulate_without_seed_fails_validation(tmp_path):
    cfg = write_config(tmp_path, "sim.json",
                       {k: v for k, v in SIM_CFG.items() if k != "seed"})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("broken", [
    {"load": {"kind": "pareto"}},
    {"trials": 0},
    {"edge_prob": []},
    {"load": {"kind": "delta"}},
])
def test_simulate_config_validation_errors(tmp_path, broken):
    cfg = write_config(tmp_path, "sim.json", dict(SIM_CFG, **broken))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("broken", [
    {"nodes": "10"},
    {"nodes": 0},
    {"nodes": [10, 2.5]},
    {"nodes": True},
    {"trials": 2.5},
    {"trials": True},
    {"seed": -1},
    {"seed": "42"},
    {"edge_prob": 1.5},
    {"edge_prob": -0.1},
    {"edge_prob": "0.5"},
    {"edge_prob": {"start": 0.1, "stop": "1", "step": 0.1}},
    {"d_m": -0.1},
    {"d_m": 0},
    {"d_m": float("nan")},
    {"d_m": float("inf")},
    {"load": {"kind": "delta", "a0": "0.8"}},
])
def test_simulate_rejects_bad_values_before_any_trial(tmp_path, monkeypatch, broken):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the config was validated")

    monkeypatch.setattr(harness, "monte_carlo", no_trials)
    cfg = write_config(tmp_path, "sim.json", dict(SIM_CFG, **broken))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


def test_simulate_rejects_negative_seed_flag(tmp_path):
    cfg = write_config(tmp_path, "sim.json", SIM_CFG)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--seed", "-1"]) == 1


def test_missing_config_file_is_validation_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")]) == 1


def test_unwritable_output_is_runtime_error(tmp_path):
    cfg = write_config(tmp_path, "sim.json", SIM_CFG)
    blocker = tmp_path / "blocked"
    blocker.write_text("")
    assert main(["simulate", "--config", cfg, "--out", str(blocker)]) == 2


def test_meanfield_trace_grid(tmp_path):
    cfg = write_config(tmp_path, "mf.json", {
        "a0": 0.8,
        "d_m": {"start": 0.045, "stop": 0.052, "step": 0.001},
    })
    assert main(["meanfield", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    verdicts = list(manifest["summary"]["verdicts"].values())
    assert len(verdicts) == 8
    assert verdicts[0] == "survives" and verdicts[-1] == "complete_outage"
    rows = read_csv(tmp_path / "out" / "meanfield_trace.csv")
    assert rows[0] == ["d_m", "n", "a_n", "p_n", "D_n", "verdict"]


def test_meanfield_single_point(tmp_path):
    cfg = write_config(tmp_path, "mf.json", {"a0": 0.8, "d_m": 0.03})
    assert main(["meanfield", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    rows = read_csv(tmp_path / "out" / "meanfield_trace.csv")
    assert len({r[0] for r in rows[1:]}) == 1


def test_meanfield_floor_rounding_to_capacity_is_an_outage(tmp_path):
    # the shifted floor rounds to 1.0, so q = 1.0 and q / (1 - q) divides by 0
    cfg = write_config(tmp_path, "mf.json", {"a0": 0.0125, "d_m": 0.9157115631207786})
    assert main(["meanfield", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    rows = read_csv(tmp_path / "out" / "meanfield_trace.csv")
    assert rows[-1][1:4] == ["2", "1", "1"] and rows[-1][-1] == "complete_outage"


def test_bimodal_meanfield_trace(tmp_path):
    cfg = write_config(tmp_path, "bm.json", {
        "a0": 0.5, "b0": 0.9, "pa": 0.25, "d_m": [0.015, 0.03],
    })
    assert main(["bimodal-meanfield", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    verdicts = list(manifest["summary"]["verdicts"].values())
    assert verdicts == ["survives", "complete_outage"]


def test_dcrit_command(tmp_path):
    cfg = write_config(tmp_path, "dc.json",
                       {"model": {"kind": "unimodal", "a0": 0.8}})
    assert main(["dcrit", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    rows = read_csv(tmp_path / "out" / "dcrit.csv")
    assert len(rows) == 2
    assert 0.045 <= float(rows[1][4]) <= 0.052


def test_sweep_dcrit_command(tmp_path):
    cfg = write_config(tmp_path, "sw.json", {"a0_grid": [0.5, 0.8], "tol_d": 1e-3})
    assert main(["sweep-dcrit", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    rows = read_csv(tmp_path / "out" / "dcrit_vs_a0.csv")
    assert len(rows) == 3
    assert float(rows[1][1]) > float(rows[2][1])


def test_sweep_bimodal_command(tmp_path):
    cfg = write_config(tmp_path, "sb.json", {
        "mean": 0.8, "a0_grid": [0.5, 0.8], "b0_grid": [0.8, 0.9], "tol_d": 1e-3,
    })
    assert main(["sweep-bimodal", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 0
    rows = read_csv(tmp_path / "out" / "dcrit_fixed_mean.csv")
    by_cell = {(float(r[0]), float(r[1])): r for r in rows[1:]}
    assert by_cell[(0.5, 0.9)][4] == "True"
    assert by_cell[(0.8, 0.8)][4] == "True"


def test_sweep_bimodal_infeasible_grid_fails(tmp_path):
    cfg = write_config(tmp_path, "sb.json", {
        "mean": 0.8, "a0_grid": [0.85], "b0_grid": [0.9],
    })
    assert main(["sweep-bimodal", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 1


def test_json_output_format(tmp_path):
    cfg = write_config(tmp_path, "dc.json",
                       {"model": {"kind": "bimodal", "a0": 0.5, "b0": 0.9,
                                  "pa": 0.25}})
    assert main(["dcrit", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--format", "json"]) == 0
    rows = json.loads((tmp_path / "out" / "dcrit.json").read_text())
    assert 0.015 <= float(rows[0]["d_critical"]) <= 0.025


# sha256 of the mean-field tables, recorded from the traced recursions
# before the threshold search ran a trace-free scalar loop. The trace grids
# reach every bimodal branch and every verdict: max_iter=100 leaves
# d_m=0.049 (unimodal) and d_m=0.15 (bimodal) Undetermined.
MEANFIELD_GOLDEN = {
    "meanfield": (
        {"a0": 0.8, "d_m": [0.001, 0.03, 0.048, 0.049, 0.05, 0.07, 0.5],
         "max_iter": 100},
        "meanfield_trace.csv",
        "69177b75f6c6181411e92a73ab41fbee2aec644840d11a056b0cf1a68dfb08aa",
    ),
    "bimodal-meanfield": (
        {"a0": 0.4, "b0": 0.9, "pa": 0.9,
         "d_m": [0.01, 0.07, 0.1, 0.15, 0.158, 0.5], "max_iter": 100},
        "bimodal_trace.csv",
        "efa3bb10fc16760047f9534113d838d4aac41aceedb1b874d49bfd21e2b7ece9",
    ),
    "sweep-dcrit": (
        {"a0_grid": [0.3, 0.5, 0.8, 0.95]},
        "dcrit_vs_a0.csv",
        "e34b024cad2f853e97e21e3b894556b6b699d31e0654c9a0bc482da7bfb3339e",
    ),
    "sweep-bimodal": (
        {"mean": 0.8, "a0_grid": [0.5, 0.7, 0.8],
         "b0_grid": [0.8, 0.85, 0.9, 0.95]},
        "dcrit_fixed_mean.csv",
        "015af5912612a7a6b71f7dba28d2697bf133115821c2ee438a6428a6c99238ba",
    ),
    "dcrit": (
        {"model": {"kind": "bimodal", "a0": 0.5, "b0": 0.9, "pa": 0.25}},
        "dcrit.csv",
        "cf01c5aab5ef67d1507bbe842d1ca05b13ee1445aa5928f7e01107047e90588b",
    ),
}


@pytest.mark.parametrize("command", sorted(MEANFIELD_GOLDEN))
def test_meanfield_tables_match_golden_digests(tmp_path, command):
    cfg, table, digest = MEANFIELD_GOLDEN[command]
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 0
    data = (tmp_path / "out" / table).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


# sha256 of tables whose cells mix types, recorded from the csv.writer
# serializer: ints and floats in one column (edge_prob 0, 0.5 and 1), enum
# strings, bools, nan floats in CSV and in JSON, and JSON records of GOLDEN_CFG
SERIALIZATION_GOLDEN = {
    "simulate-json": ("simulate", GOLDEN_CFG, "json", {
        "trials.json": "780e0bf9394be26a12c721c9b21d9abbf976cbf1efc1f478296dd05cafc12014",
        "aggregate.json": "f38d318604a0648377fc5e44f19c1a43230bf0daa53fbb89e526a9d925defe69",
    }),
    "simulate-mixed-types": ("simulate", {
        "nodes": [10, 20], "edge_prob": [0, 0.5, 1], "load": {"kind": "uniform"},
        "d_m": 0.1, "trials": 20, "seed": 3,
    }, "csv", {
        "trials.csv": "edf91e064b6c71cabddca253c83276ef5cab7693a2d9741d771f9b3f1fafc5d8",
        "aggregate.csv": "0705b91acc4d9ba390042f87788d68f9f020b7bbd7ddca3197f92d2af8ef6166",
    }),
    "bimodal-meanfield-json": ("bimodal-meanfield", MEANFIELD_GOLDEN["bimodal-meanfield"][0],
                               "json", {
        "bimodal_trace.json": "85998dd5e32355eca9c29d8ead4777eaa648093c96548223e4286b7a9a5e3eb7",
    }),
    "sweep-bimodal-infeasible": ("sweep-bimodal", {
        "mean": 0.8, "a0_grid": [0.5, 0.7, 0.8], "b0_grid": [0.75, 0.8, 0.9],
    }, "csv", {
        "dcrit_fixed_mean.csv": "66c52970507f16515bc82204633b9228fd89a42e410cd8b6331e2683b6d0cde5",
    }),
    "dcrit-unimodal-json": ("dcrit", {"model": {"kind": "unimodal", "a0": 0.8}}, "json", {
        "dcrit.json": "47330b3c60356ebdf8d13f33c9af51a008158f4edee3bf8aae27b6bde70811ea",
    }),
}


@pytest.mark.parametrize("case", sorted(SERIALIZATION_GOLDEN))
def test_tables_of_mixed_cell_types_match_golden_digests(tmp_path, case):
    command, cfg, fmt, digests = SERIALIZATION_GOLDEN[case]
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "out"),
                 "--format", fmt]) == 0
    for table, digest in digests.items():
        data = (tmp_path / "out" / table).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, table


@pytest.mark.parametrize("command", ["meanfield", "bimodal-meanfield"])
def test_golden_traces_cover_every_verdict_and_branch(tmp_path, command):
    cfg, table, _ = MEANFIELD_GOLDEN[command]
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 0
    rows = read_csv(tmp_path / "out" / table)[1:]
    assert {r[-1] for r in rows} == {"running", "survives", "complete_outage",
                                     "undetermined"}
    if command == "bimodal-meanfield":
        assert {r[-2] for r in rows} == {"init", "both_alive", "upper_dies",
                                         "lower_only"}


@pytest.mark.parametrize("tol_d", [0, -1e-4])
def test_dcrit_bad_tolerance_is_a_config_error(tmp_path, tol_d):
    cfg = write_config(tmp_path, "dc.json", {
        "model": {"kind": "unimodal", "a0": 0.8}, "tol_d": tol_d,
    })
    assert main(["dcrit", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("tol_d,expected", [(1e-4, False), (1e-8, True)])
def test_dcrit_manifest_reports_undetermined_probes(tmp_path, tol_d, expected):
    cfg = write_config(tmp_path, "dc.json", {
        "model": {"kind": "unimodal", "a0": 0.8}, "tol_d": tol_d,
    })
    assert main(["dcrit", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["summary"]["undetermined_in_bracket"] is expected
    assert read_csv(tmp_path / "out" / "dcrit.csv")[0][-1] == "method"


@pytest.mark.parametrize("command,cfg,table", [
    ("sweep-dcrit", {"a0_grid": [0.5, 0.8]}, "dcrit_vs_a0.csv"),
    ("sweep-bimodal", {"mean": 0.8, "a0_grid": [0.5, 0.8], "b0_grid": [0.8, 0.9]},
     "dcrit_fixed_mean.csv"),
])
def test_sweep_manifests_count_undetermined_searches(tmp_path, command, cfg, table):
    counts = {}
    for tol_d in (1e-4, 1e-8):
        out = tmp_path / str(tol_d)
        path = write_config(tmp_path, "cfg.json", dict(cfg, tol_d=tol_d))
        assert main([command, "--config", path, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        counts[tol_d] = manifest["summary"]["undetermined_searches"]
        # the count stays out of the table
        assert "undetermined" not in (out / table).read_text()
    assert counts == {1e-4: 0, 1e-8: 2}


@pytest.mark.parametrize("command,cfg,table,searches", [
    ("dcrit", {"model": {"kind": "unimodal", "a0": 0.8}}, "dcrit.csv",
     [DeltaLoads(0.8)]),
    ("sweep-dcrit", {"a0_grid": [0.5, 0.8]}, "dcrit_vs_a0.csv",
     [DeltaLoads(0.5), DeltaLoads(0.8)]),
    ("sweep-bimodal", {"mean": 0.8, "a0_grid": [0.5, 0.8], "b0_grid": [0.8, 0.9]},
     "dcrit_fixed_mean.csv", [BimodalLoads(0.5, 0.9, 0.25), DeltaLoads(0.8)]),
])
def test_manifests_count_threshold_evaluations(tmp_path, command, cfg, table, searches):
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    expected = sum(find_d_critical(model).evaluations for model in searches)
    assert manifest["summary"]["evaluations"] == expected > 0
    assert "evaluations" not in (tmp_path / "out" / table).read_text()


MF_CFG = {"a0": 0.8, "d_m": 0.05}


# A bad config exits 1, naming the key, before any table is written.
@pytest.mark.parametrize("command,cfg,message", [
    ("meanfield", dict(MF_CFG, a0="0.8"), "a0"),
    ("meanfield", dict(MF_CFG, max_iter="5"), "max_iter"),
    ("meanfield", dict(MF_CFG, tol="1e-9"), "tol"),
    ("meanfield", dict(MF_CFG, d_m=True), "d_m"),
    ("meanfield", dict(MF_CFG, d_m=10**400), "d_m"),  # no float holds it
    ("meanfield", dict(MF_CFG, max_iter=True), "max_iter"),
    ("meanfield", dict(MF_CFG, max_iter=0.5), "max_iter: must be an integer"),
    ("bimodal-meanfield", {"a0": 0.9, "b0": 0.5, "pa": 0.25, "d_m": 0.05}, "a0 <= b0"),
    ("sweep-bimodal", {"mean": "0.8", "a0_grid": [0.5, 0.8], "b0_grid": [0.8, 0.9]},
     "mean"),
    ("sweep-bimodal", {"mean": 0.8, "a0_grid": [-0.5, 0.8], "b0_grid": [0.8, 0.9]},
     "a0_grid"),
    ("sweep-dcrit", {"a0_grid": ["0.5"]}, "a0_grid"),
    ("sweep-dcrit", {"a0_grid": [0.5], "tol_d": True}, "tol_d"),
    ("sweep-dcrit", {"a0_grid": [0.5], "tol-d": 1e-3}, "unknown key(s) 'tol-d'"),
    ("dcrit", {"model": {"kind": "unimodal", "a0": 0.8}, "tol_d": "1e-4"}, "tol_d"),
    ("dcrit", {"model": [1]}, "model"),
    ("dcrit", {"model": {"kind": "unimodal", "a0": 0.8, "b0": 0.9}}, "model"),
    ("simulate", dict(SIM_CFG, load="kind"), "load"),
    ("simulate", dict(SIM_CFG, d_m={"start": -1e308, "stop": 1e308, "step": 1e-3}),
     "d_m"),
    ("sweep-dcrit", {"a0_grid": {"start": 0.9, "stop": 0.5, "step": 0.1}}, "empty grid"),
    ("meanfield", [], "config must be a JSON object"),
    # valid numbers whose shocks, or whose total load, overflow float64
    ("simulate", dict(SIM_CFG, nodes=100, d_m=1e308), "d_m"),
    ("simulate", dict(SIM_CFG, nodes=1000, edge_prob=0, d_m=1e306), "d_m"),
])
def test_bad_config_exits_1_before_any_table(tmp_path, capsys, command, cfg, message):
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_huge_but_bounded_shocks_still_run(tmp_path):
    cfg = dict(SIM_CFG, nodes=100, edge_prob=0.5, d_m=1e300, trials=2)
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 0
    rows = read_csv(tmp_path / "out" / "trials.csv")[1:]
    assert [row[5] for row in rows] == ["0", "0"]  # every node fails at stage 0


def _untemper(y: int) -> int:
    """The MT19937 state word whose tempered output is ``y``."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    t = y
    for _ in range(5):
        t = y ^ ((t << 7) & 0x9D2C5680)
    y = t & 0xFFFFFFFF
    t = y
    for _ in range(3):
        t = y ^ (t >> 11)
    return t & 0xFFFFFFFF


def test_largest_exponential_draw_is_below_the_shock_bound():
    # numpy's ziggurat returns its largest value r - log1p(-u) when the first
    # 64-bit output selects the tail (layer 0, every rejection bit set) and
    # the uniform u is the largest double below 1; craft exactly that stream
    bit_generator = np.random.MT19937(0)
    state = bit_generator.state
    words = [0xFFFFFFFF, 0xFFFFF800, 0xFFFFFFFF, 0xFFFFFFFF]
    state["state"]["key"][:4] = [_untemper(w) for w in words]
    state["state"]["pos"] = 0
    bit_generator.state = state
    largest = np.random.Generator(bit_generator).standard_exponential()
    assert largest == pytest.approx(7.69711747013104972 - math.log1p(-(1 - 2**-53)))
    assert 44.4 < largest < harness.SHOCK_MAX


@pytest.mark.parametrize("argv", [
    ["meanfield", "--config", "{cfg}", "--seed", "5"],  # --seed is simulate's
    ["simulate", "--config", "{cfg}", "--threads", "0"],
    ["simulate", "--config", "{cfg}", "--threads", "-2"],
    ["simulate", "--config", "{cfg}", "--threads", "abc"],
    ["simulate", "--config", "{cfg}", "--format", "xml"],
    ["simulate"],
    [],
])
def test_command_line_errors_exit_1(tmp_path, argv):
    path = write_config(tmp_path, "cfg.json", SIM_CFG)
    argv = [a.replace("{cfg}", path) for a in argv]
    assert main([*argv, "--out", str(tmp_path / "out")] if argv else argv) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", list(harness.COMMANDS))
def test_threads_default_to_one(command):
    # a pool costs more than it saves on small runs: serial unless asked
    args = harness.build_parser().parse_args([command, "--config", "cfg.json"])
    assert args.threads == 1


@pytest.mark.parametrize("command,cfg,argv,workers", [
    ("simulate", dict(SIM_CFG, trials=2), [], 1),
    ("simulate", dict(SIM_CFG, trials=2), ["--threads", "2"], 2),
    ("sweep-dcrit", {"a0_grid": [0.8], "tol_d": 1e-2}, [], 1),
    ("sweep-dcrit", {"a0_grid": [0.8], "tol_d": 1e-2}, ["--threads", "2"], 1),  # serial
])
def test_manifest_records_the_environment(tmp_path, command, cfg, argv, workers):
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out), *argv]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["environment"] == {
        "workers": workers,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    for table in manifest["outputs"]:
        assert not {"workers", "python", "numpy"} & set(read_csv(out / table)[0])


def test_help_exits_0():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0


def readme_config_examples() -> dict:
    """The config example of each subcommand in README's jsonc block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    texts, command = {}, None
    for line in block.splitlines():
        heading = re.match(r"// ([\w-]+):", line)
        if heading and heading.group(1) in harness.COMMANDS:
            command = heading.group(1)
        elif not line.lstrip().startswith("//"):
            texts[command] = texts.get(command, "") + line + "\n"
    return {c: json.loads(t) for c, t in texts.items() if t.strip()}


def test_readme_config_examples_pass_validation():
    examples = readme_config_examples()
    assert sorted(examples) == sorted(harness.COMMANDS)
    for command, cfg in examples.items():
        harness.validate(command, cfg)


# A small valid config per subcommand; the fuzz mutates one key of it.
FUZZ_CFGS = {
    "simulate": {"nodes": [10, 20], "edge_prob": {"start": 0.5, "stop": 1.0, "step": 0.5},
                 "load": {"kind": "bimodal", "a0": 0.5, "b0": 0.9, "pa": 0.25},
                 "d_m": 0.1, "trials": 3, "seed": 1},
    "meanfield": {"a0": 0.8, "d_m": [0.03, 0.06], "max_iter": 50, "tol": 1e-9},
    "bimodal-meanfield": {"a0": 0.5, "b0": 0.9, "pa": 0.25, "max_iter": 50, "tol": 1e-9,
                          "d_m": {"start": 0.01, "stop": 0.03, "step": 0.01}},
    "dcrit": {"model": {"kind": "bimodal", "a0": 0.5, "b0": 0.9, "pa": 0.25},
              "tol_d": 1e-3},
    "sweep-dcrit": {"a0_grid": {"start": 0.5, "stop": 0.8, "step": 0.3}, "tol_d": 1e-3},
    "sweep-bimodal": {"mean": 0.8, "a0_grid": [0.5, 0.8], "b0_grid": [0.8, 0.9],
                      "tol_d": 1e-3},
}
DELETE = "<delete>"
MUTATIONS = st.one_of(
    st.just(DELETE),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-300),
    st.lists(st.integers() | st.floats() | st.text(max_size=2), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers() | st.floats(), max_size=2),
)


def key_paths(cfg: dict) -> list:
    """Every key of ``cfg`` and of the JSON objects it holds."""
    nested = [(k, sub) for k, x in cfg.items() if isinstance(x, dict) for sub in x]
    return [(k,) for k in cfg] + nested


@pytest.fixture
def cheap_library(monkeypatch):
    """Still-valid mutations (say nodes=10**9) run the real library, shrunk
    to a few trials, stages or bisection steps: it must accept them."""
    real = {name: getattr(harness, name) for name in (
        "monte_carlo", "run_recursion", "run_bimodal", "find_d_critical",
        "sweep_dcrit_vs_a0", "sweep_bimodal_fixed_mean")}
    patches = {
        "monte_carlo": lambda n, p, spec, d_m, trials, seed, workers: real["monte_carlo"](
            min(n, 5), p, spec, d_m, 1, seed, workers=1),
        "run_recursion": lambda *args, max_iter, tol: real["run_recursion"](
            *args, max_iter=min(max_iter, 3), tol=tol),
        "run_bimodal": lambda *args, max_iter, tol: real["run_bimodal"](
            *args, max_iter=min(max_iter, 3), tol=tol),
        "find_d_critical": lambda model, tol_d: real["find_d_critical"](
            model, tol_d=max(tol_d, 0.05)),
        "sweep_dcrit_vs_a0": lambda grid, tol_d: real["sweep_dcrit_vs_a0"](
            grid[:2], tol_d=max(tol_d, 0.05)),
        "sweep_bimodal_fixed_mean": lambda mean, a0s, b0s, tol_d: real[
            "sweep_bimodal_fixed_mean"](mean, a0s[:2], b0s[:2], tol_d=max(tol_d, 0.05)),
    }
    for name, fake in patches.items():
        monkeypatch.setattr(harness, name, fake)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(FUZZ_CFGS)), data=st.data())
def test_fuzzed_config_never_exits_2(tmp_path, cheap_library, command, data):
    cfg = json.loads(json.dumps(FUZZ_CFGS[command]))
    *parents, key = data.draw(st.sampled_from(key_paths(cfg)))
    target = cfg[parents[0]] if parents else cfg
    value = data.draw(MUTATIONS)
    if value == DELETE:
        del target[key]
    else:
        target[key] = value
    path = write_config(tmp_path, "cfg.json", cfg)
    code = main([command, "--config", path, "--out", str(tmp_path / "out"),
                 "--threads", "1"])
    assert code in (0, 1), cfg


# valid but extreme numbers, which MUTATIONS never draws: denormals, values
# next to float max, and integers past int64
EXTREME_NUMBERS = [5e-324, 1e-300, 1e300, 1.7e308, 2**63, 10**30]


def _numeric(x) -> bool:
    """A number, or a grid given as a list of numbers."""
    items = x if isinstance(x, list) else [x]
    return all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in items)


@pytest.mark.parametrize("command", sorted(FUZZ_CFGS))
def test_extreme_numbers_never_exit_2(tmp_path, cheap_library, command):
    """Every numeric key (a number or a list of numbers) set to each
    extreme number: the run either succeeds or rejects the config."""
    runs = 0
    for *parents, key in key_paths(FUZZ_CFGS[command]):
        for value in EXTREME_NUMBERS:
            cfg = json.loads(json.dumps(FUZZ_CFGS[command]))
            target = cfg[parents[0]] if parents else cfg
            if not _numeric(target[key]):
                break
            target[key] = value
            path = write_config(tmp_path, "cfg.json", cfg)
            code = main([command, "--config", path, "--out", str(tmp_path / "out"),
                         "--threads", "1"])
            assert code in (0, 1), cfg
            runs += 1
    assert runs > 0
