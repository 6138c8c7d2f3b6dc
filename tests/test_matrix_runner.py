"""The parallel scenario-matrix runner and its serialization contract.

Three properties under test:

* **JSON-alone construction**: every cell descriptor a worker receives is
  a plain dict; spec/workload/checks round-trip through
  ``to_dict``/``from_dict`` with eager validation errors naming the
  offending field.
* **Serial == parallel determinism**: the same :class:`MatrixSpec` run
  with ``workers=1`` and ``workers=N`` produces byte-identical per-cell
  replay signatures and an identical merged report modulo the wall-clock
  fields in :data:`repro.deploy.matrix.WALL_CLOCK_FIELDS`.
* **Merge semantics**: latency recorders fold exactly via their shipped
  state, and ``peak_rss_bytes`` aggregates as max across workers (each
  value is a per-process high-water mark; summing would fabricate
  memory).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.deploy import (
    DeploymentSpec,
    MatrixSpec,
    ScenarioChecks,
    WorkloadSpec,
    canonical_report,
    default_matrix,
    merge_summaries,
    run_cell,
    run_matrix,
)
from repro.netsim.stats import LatencyRecorder

# --------------------------------------------------------------------- #
# Round-trip serialization with eager, named validation errors.
# --------------------------------------------------------------------- #


def test_workload_spec_round_trips():
    workload = WorkloadSpec(num_clients=3, concurrency=4, write_ratio=0.2,
                            think_time=1e-3, zipf_theta=0.9, warmup=0.1,
                            duration=0.7, drain=0.2, unique_values=False)
    assert WorkloadSpec.from_dict(workload.to_dict()) == workload


def test_workload_spec_rejects_unknown_field_by_name():
    with pytest.raises(ValueError, match="num_client_typo"):
        WorkloadSpec.from_dict({"num_client_typo": 3})


def test_workload_spec_validates_eagerly_naming_field():
    with pytest.raises(ValueError, match="warmup"):
        WorkloadSpec.from_dict({"warmup": -1.0})
    with pytest.raises(ValueError, match="think_time"):
        WorkloadSpec(think_time=-1e-3).to_dict()


def test_scenario_checks_round_trips():
    checks = ScenarioChecks(linearizability=False, require_progress=False,
                            history_mode="spill", verify_workers=2,
                            chain_invariants=True, no_lost_keys=True)
    assert ScenarioChecks.from_dict(checks.to_dict()) == checks


def test_scenario_checks_validates_history_mode():
    with pytest.raises(ValueError, match="history_mode"):
        ScenarioChecks.from_dict({"history_mode": "tape"})


def test_deployment_spec_round_trips_faults_and_options():
    spec = DeploymentSpec(backend="netchain", seed=7,
                          faults=[(0.3, "fail_switch", "S1"),
                                  (0.6, "recover_switch", "S1")],
                          options={"detector_config": {"probe_interval": 0.05}})
    rebuilt = DeploymentSpec.from_dict(spec.to_dict())
    assert rebuilt.faults == [(0.3, "fail_switch", "S1"),
                              (0.6, "recover_switch", "S1")]
    assert rebuilt.options == spec.options
    assert rebuilt == spec


def test_deployment_spec_names_non_serializable_option():
    spec = DeploymentSpec(options={"callback": lambda: None})
    with pytest.raises(ValueError, match=r"DeploymentSpec\.options\['callback'\]"):
        spec.to_dict()


def test_matrix_spec_round_trips():
    matrix = default_matrix(seeds=(0, 1))
    rebuilt = MatrixSpec.from_dict(matrix.to_dict())
    assert rebuilt.to_dict() == matrix.to_dict()
    assert [c["cell_id"] for c in rebuilt.cells()] == \
        [c["cell_id"] for c in matrix.cells()]


def test_matrix_spec_validates_axes():
    with pytest.raises(ValueError, match="seeds"):
        MatrixSpec(seeds=[]).validate()
    with pytest.raises(ValueError, match="not a registered backend"):
        MatrixSpec(backends=["netchain", "etcd"]).validate()
    with pytest.raises(ValueError, match="unknown key"):
        MatrixSpec(fault_profiles={"bad": {"fautls": []}}).validate()
    with pytest.raises(ValueError, match="unknown MatrixSpec field"):
        MatrixSpec.from_dict({"seed": [0]})


def test_default_matrix_covers_24_cells():
    matrix = default_matrix(seeds=(0, 1, 2))
    cells = matrix.cells()
    assert len(cells) == 24
    # Deterministic enumeration: ids are unique and ordered.
    ids = [c["cell_id"] for c in cells]
    assert len(set(ids)) == 24
    assert ids == [c["cell_id"] for c in default_matrix(seeds=(0, 1, 2)).cells()]


# --------------------------------------------------------------------- #
# Cells are constructible and runnable from JSON alone.
# --------------------------------------------------------------------- #


def _small_matrix(**overrides):
    defaults = dict(seeds=(0, 1), backends=("netchain", "zookeeper"),
                    duration=0.3)
    defaults.update(overrides)
    matrix = default_matrix(**defaults)
    # One fault profile keeps the grid small: 2 backends x 2 seeds
    # fault-free + 2 netchain fault cells = 6 cells.
    matrix.fault_profiles = {"none": {},
                             "fail-s1": matrix.fault_profiles["fail-s1"]}
    return matrix


def test_run_cell_from_json_string_alone():
    cell = _small_matrix().cells()[0]
    payload = json.dumps(cell, sort_keys=True)
    summary = run_cell(payload)
    assert summary["cell_id"] == cell["cell_id"]
    assert summary["ok"], summary["failures"]
    assert summary["completed_ops"] > 0
    assert len(summary["signature_sha256"]) == 64
    # The shipped summary itself must be JSON-safe (workers pickle it,
    # reports embed it).
    json.dumps(summary, sort_keys=True)


def test_run_cell_is_deterministic():
    cell = json.dumps(_small_matrix().cells()[0], sort_keys=True)
    first, second = run_cell(cell), run_cell(cell)
    for key in ("signature_sha256", "completed_ops", "fault_signature",
                "read_latency"):
        assert first[key] == second[key]


def test_fault_cells_carry_fault_signature():
    matrix = _small_matrix()
    cell = next(c for c in matrix.cells() if c["fault_profile"] == "fail-s1")
    summary = run_cell(json.dumps(cell, sort_keys=True))
    assert summary["ok"], summary["failures"]
    assert summary["fault_signature"] == [[0.3, "switch_fail", "S1", ""]]
    assert summary["invariant_violations"] == []
    assert summary["lost_keys"] == []


# --------------------------------------------------------------------- #
# Serial == parallel determinism.
# --------------------------------------------------------------------- #


@pytest.mark.anchor
def test_serial_and_parallel_runs_merge_identically():
    matrix = _small_matrix()
    serial = run_matrix(matrix, workers=1)
    parallel = run_matrix(matrix, workers=2)
    assert serial["totals"]["failed_cells"] == []
    # Cross-commit replay anchor: the ``matrix`` entry of
    # ``fixtures/replay_digests.json`` is this grid's merged digest and
    # counts as captured on the commit before the fixture gained it.
    expected = json.loads((Path(__file__).parent / "fixtures"
                           / "replay_digests.json").read_text())["matrix"]
    totals = serial["totals"]
    assert {"signature_sha256": serial["signature_sha256"],
            "cells": totals["cells"], "ok_cells": totals["ok_cells"],
            "completed_ops": totals["completed_ops"]} == expected
    # Per-cell replay signatures byte-identical between the two runs.
    serial_sigs = {c["cell_id"]: c["signature_sha256"]
                   for c in serial["cells"]}
    parallel_sigs = {c["cell_id"]: c["signature_sha256"]
                     for c in parallel["cells"]}
    assert serial_sigs == parallel_sigs
    assert serial["signature_sha256"] == parallel["signature_sha256"]
    # The merged reports are identical modulo wall-clock fields.
    assert json.dumps(canonical_report(serial), sort_keys=True) == \
        json.dumps(canonical_report(parallel), sort_keys=True)


def test_on_result_streams_every_cell():
    matrix = _small_matrix(seeds=(0,))
    seen = []
    report = run_matrix(matrix, workers=2,
                        on_result=lambda s, done, total: seen.append(
                            (s["cell_id"], done, total)))
    assert len(seen) == report["totals"]["cells"]
    assert [done for _, done, _ in seen] == list(range(1, len(seen) + 1))


# --------------------------------------------------------------------- #
# Merge semantics.
# --------------------------------------------------------------------- #


def _fake_summary(cell_id: str, rss: int, samples) -> dict:
    recorder = LatencyRecorder()
    for sample in samples:
        recorder.record(sample)
    return {
        "cell_id": cell_id, "backend": "netchain", "seed": 0,
        "fault_profile": "none", "workload": "mixed", "ok": True,
        "failures": [], "completed_ops": len(samples), "failed_ops": 0,
        "read_ops": len(samples), "write_ops": 0, "qps": 0.0,
        "success_qps": 0.0, "scaled_qps": 0.0, "mean_read_latency": 0.0,
        "mean_write_latency": 0.0, "read_latency_p99": 0.0,
        "signature_sha256": "0" * 64, "fault_signature": [],
        "invariant_violations": [], "lost_keys": [], "linearizable": True,
        "verdict_cache_hits": 0, "read_latency": recorder.state_dict(),
        "write_latency": None, "peak_rss_bytes": rss, "wall_clock_s": 0.5,
    }


def test_peak_rss_merges_as_max_across_workers_not_sum():
    summaries = [_fake_summary("a", 100, [1.0]),
                 _fake_summary("b", 300, [2.0]),
                 _fake_summary("c", 200, [3.0])]
    report = merge_summaries(summaries, workers=3, wall_clock_s=1.0)
    assert report["totals"]["peak_rss_bytes"] == 300


def test_latency_recorders_fold_exactly_from_shipped_state():
    summaries = [_fake_summary("a", 1, [1.0, 2.0]),
                 _fake_summary("b", 1, [3.0, 4.0, 5.0])]
    report = merge_summaries(summaries, workers=2, wall_clock_s=1.0)
    direct = LatencyRecorder()
    for sample in (1.0, 2.0, 3.0, 4.0, 5.0):
        direct.record(sample)
    assert report["totals"]["mean_read_latency"] == direct.mean()
    assert report["totals"]["read_latency_p99"] == direct.percentile(99.0)


def test_merge_is_order_independent():
    summaries = [_fake_summary(name, 10, [1.0]) for name in "cab"]
    forward = merge_summaries(summaries, workers=1, wall_clock_s=1.0)
    backward = merge_summaries(list(reversed(summaries)), workers=1,
                               wall_clock_s=1.0)
    assert forward == backward
    assert [c["cell_id"] for c in forward["cells"]] == ["a", "b", "c"]


# --------------------------------------------------------------------- #
# LatencyRecorder state round-trips (the wire format of the merge).
# --------------------------------------------------------------------- #


def test_latency_recorder_state_round_trips_exact_mode():
    recorder = LatencyRecorder()
    for sample in (1e-6, 2e-6, 5e-6):
        recorder.record(sample)
    rebuilt = LatencyRecorder.from_state(recorder.state_dict())
    assert rebuilt.samples == recorder.samples
    assert rebuilt.mean() == recorder.mean()
    assert rebuilt.percentile(99.0) == recorder.percentile(99.0)


def test_latency_recorder_state_round_trips_collapsed_mode():
    recorder = LatencyRecorder(max_exact_samples=4)
    for index in range(10):
        recorder.record((index + 1) * 1e-6)
    assert recorder.collapsed
    state = recorder.state_dict()
    json.dumps(state, sort_keys=True)  # JSON-safe
    rebuilt = LatencyRecorder.from_state(state)
    assert rebuilt.collapsed
    assert rebuilt.count() == recorder.count()
    assert rebuilt.mean() == recorder.mean()
    assert rebuilt.percentile(99.0) == recorder.percentile(99.0)


def test_latency_recorder_state_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        LatencyRecorder.from_state({"mode": "approximate"})
