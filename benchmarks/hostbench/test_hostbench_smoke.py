"""Smoke test for hostbench: the contract file, every workload, span closure."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.hostbench import metrics, spans, workloads
from benchmarks.hostbench.compare import verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")

#: Shortened simulated duration, passed as an argument (never a CLI flag).
SMOKE_SCALE = 0.1


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_follows_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/hostbench"]
    assert all(PATH.match(p) and not p.startswith("/") and ".." not in p
               for p in spec["paths"])
    assert spec["command"] == ["python3", "benchmarks/hostbench/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in spec[section]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names)), "a name is used twice"
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 <= entry["bound"] <= 0.25
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        next(e for e in spec["end_to_end"] if e["name"] == "setup_s").items()
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_benchmark_json_agrees_with_the_metric_tables(spec):
    assert {w["name"]: w["why"] for w in spec["workloads"]} == metrics.WORKLOADS
    known = {m.name: m for m in metrics.END_TO_END}
    for entry in spec["end_to_end"]:
        metric = known[entry["name"]]
        assert (entry["unit"], entry["better"]) == (metric.unit, metric.better)
        # The driver compares across seeds and across minutes; never tighter
        # than ``compare`` is between two result files.
        assert entry["bound"] >= metric.bound
    assert [(e["name"], e["unit"], e["better"]) for e in spec["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in metrics.per_layer()]


def test_every_interaction_names_real_metrics_and_workloads():
    table = json.loads((HERE / "interactions.json").read_text(encoding="utf-8"))
    end_to_end = {m.name for m in metrics.END_TO_END}
    per_layer = {m.name for m in metrics.per_layer()}
    for row in table["interactions"]:
        assert set(row["layer_metrics"]) <= per_layer, row
        assert set(row["moves"]) <= end_to_end, row
        assert set(row["on"]) | set(row["bypass"]) <= set(metrics.WORKLOADS), row
        assert row["on"] and not set(row["on"]) & set(row["bypass"]), row


@pytest.mark.parametrize("name", list(metrics.WORKLOADS))
def test_workload_runs_traced_and_span_accounting_closes(name, tmp_path):
    ledger = spans.Ledger()
    uninstall = spans.install(ledger)
    try:
        result = workloads.run_pass(name, 11, tmp_path, scale=SMOKE_SCALE,
                                    span=ledger.wrap, matrix_workers=1)
    finally:
        uninstall()
    assert result["failures"] == []
    assert result["completed_ops"] > 0 and result["sim"]["sim_qps"] > 0
    layers = ledger.report()
    assert sum(row["self_s"] for row in layers.values()) == \
        pytest.approx(result["wall_s"], rel=0.02)
    assert not ledger.stack and all(span is not None for span in ledger.raw)
    # The workload's own layer ran, and a layer it bypasses did not.
    busy, idle = {"server_chain": ("netsim.tcp", "core.switch_program"),
                  "telemetry_on": ("core.trace", "core.history_store"),
                  "verified_failover": ("core.history_store", "core.trace"),
                  "matrix_grid": ("deploy.matrix", "core.trace"),
                  }.get(name, ("core.switch_program", "netsim.tcp"))
    assert layers[busy]["calls"] > 0 and layers[idle]["calls"] == 0


def test_tracing_leaves_the_simulation_unchanged(tmp_path):
    plain = workloads.run_pass("chain_write", 11, tmp_path / "plain", scale=SMOKE_SCALE)
    ledger = spans.Ledger()
    uninstall = spans.install(ledger)
    try:
        traced = workloads.run_pass("chain_write", 11, tmp_path / "traced",
                                    scale=SMOKE_SCALE, span=ledger.wrap)
    finally:
        uninstall()
    for field in ("completed_ops", "failed_ops", "processed_events", "digest", "sim"):
        assert plain[field] == traced[field], field


def test_compare_verdicts():
    def entry(median, spread=0.0):
        return {"median": median, "q1": median * (1 - spread / 2),
                "q3": median * (1 + spread / 2), "n": 5}

    wall = next(m for m in metrics.END_TO_END if m.name == "wall_s")
    qps = next(m for m in metrics.END_TO_END if m.name == "sim_qps")
    assert verdict(wall, entry(3.0, 0.02), entry(3.1, 0.02)) == "same"
    assert verdict(wall, entry(3.0, 0.02), entry(3.4, 0.02)) == "worse"
    assert verdict(wall, entry(3.0, 0.02), entry(2.5, 0.02)) == "better"
    assert verdict(wall, entry(3.0, 0.30), entry(3.4, 0.02)) == "unresolved"
    assert verdict(qps, entry(82000.0), entry(82000.0)) == "same"
    assert verdict(qps, entry(82000.0), entry(81999.0)) == "worse"


def test_command_fails_where_the_simulator_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "hostbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/hostbench/run.py", "--workload", "chain_read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
