"""Fast sanity checks for the experiment drivers (shapes, not exact numbers).

The full sweeps behind the paper's figures live in ``benchmarks/``; these
tests run miniature versions of each driver so regressions in the
experiment harness are caught by the unit-test suite.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from repro.deploy import DeploymentSpec, build_deployment
from repro.experiments import (
    adaptive_retry_timeout,
    elasticity_experiment,
    failure_experiment,
    latency_curve,
    measure,
    measure_transactions,
    netchain_max_throughput_qps,
)
from repro.perfmodel import scalability_sweep, table1_rows


SCALE = 100000.0  # tiny simulated rates keep these tests fast
NETCHAIN = DeploymentSpec(backend="netchain", scale=SCALE, store_size=50,
                          retry_timeout=adaptive_retry_timeout(8, SCALE))
NETCHAIN_LOAD = dict(concurrency=8, write_ratio=0.01, warmup=0.05, duration=0.2)
ZOOKEEPER = DeploymentSpec(backend="zookeeper", scale=1000.0)


def test_netchain_max_throughput_is_2_bqps():
    assert netchain_max_throughput_qps() == pytest.approx(2e9)


def test_adaptive_retry_timeout_scales_with_concurrency():
    assert adaptive_retry_timeout(1, 1000.0) == pytest.approx(1e-3)
    assert adaptive_retry_timeout(64, 50000.0) > adaptive_retry_timeout(4, 50000.0)


def test_netchain_throughput_tracks_number_of_servers():
    one = measure(NETCHAIN, num_clients=1, **NETCHAIN_LOAD)
    four = measure(NETCHAIN, num_clients=4, **NETCHAIN_LOAD)
    # Each DPDK client server contributes ~20.5 MQPS (Section 8.1).
    assert one.scaled_qps / 1e6 == pytest.approx(20.5, rel=0.2)
    assert four.scaled_qps / 1e6 == pytest.approx(82.0, rel=0.2)
    assert four.scaled_qps > 3 * one.scaled_qps


def test_netchain_throughput_insensitive_to_value_size():
    load = {**NETCHAIN_LOAD, "num_clients": 2, "duration": 0.15}
    small = measure(replace(NETCHAIN, value_size=16), **load)
    large = measure(replace(NETCHAIN, value_size=128), **load)
    assert large.scaled_qps == pytest.approx(small.scaled_qps, rel=0.15)


def test_netchain_loss_degrades_gracefully():
    spec = replace(NETCHAIN, retry_timeout=adaptive_retry_timeout(32, SCALE))
    load = {**NETCHAIN_LOAD, "num_clients": 2, "concurrency": 32}
    clean = measure(spec, **load)
    lossy = measure(replace(spec, loss_rate=0.1), **load)
    assert lossy.scaled_qps < clean.scaled_qps
    # Graceful: well above half of the loss-free throughput is retained
    # (Figure 9(d): 48 of 82 MQPS at 10% loss).
    assert lossy.scaled_qps > 0.4 * clean.scaled_qps


def test_zookeeper_throughput_drops_with_write_ratio():
    load = dict(num_clients=30, concurrency=1, warmup=0.5, duration=1.5)
    reads = measure(replace(ZOOKEEPER, store_size=100), write_ratio=0.0, **load)
    writes = measure(replace(ZOOKEEPER, store_size=100), write_ratio=1.0, **load)
    # Section 8.1: 230 KQPS read-only versus 27 KQPS write-only.
    assert reads.scaled_qps / 1e3 == pytest.approx(230.0, rel=0.5)
    assert writes.scaled_qps / 1e3 < 60.0
    assert writes.scaled_qps < reads.scaled_qps / 3


def test_netchain_beats_zookeeper_by_orders_of_magnitude():
    netchain = measure(NETCHAIN, **{**NETCHAIN_LOAD, "num_clients": 4, "duration": 0.15})
    zookeeper = measure(replace(ZOOKEEPER, store_size=50), num_clients=20, concurrency=1,
                        write_ratio=0.01, warmup=0.3, duration=1.0)
    assert netchain.scaled_qps > 50 * zookeeper.scaled_qps


def test_latency_curves_have_expected_magnitudes():
    netchain = latency_curve(DeploymentSpec(backend="netchain", store_size=20,
                                            unlimited_capacity=True),
                             [(1, 1)], duration=0.05, warmup=0.01)
    for _, latency in netchain["read"] + netchain["write"]:
        assert latency * 1e6 < 50.0
    zookeeper = latency_curve(replace(ZOOKEEPER, store_size=20, unlimited_capacity=True),
                              [(1, 1)], duration=0.6, warmup=0.2)
    assert zookeeper["read"][0][1] * 1e6 > 100.0
    assert zookeeper["write"][0][1] * 1e6 > 1000.0


def test_failure_experiment_timeline_phases():
    timeline = failure_experiment(virtual_groups=1, store_size=100, scale=SCALE,
                                  fail_at=1.0, detection_delay=0.5,
                                  recovery_start_delay=1.0, duration=3.8,
                                  sync_items_per_sec=200.0, bin_width=0.5,
                                  concurrency=8)
    # Observed from the control plane, so they do not depend on which keys
    # the client drew: captured at c463d02, before the driver ran through
    # run_scenario, and asserted exactly.
    assert (timeline.fail_time, timeline.failover_complete_time,
            timeline.recovery_start_time, timeline.recovery_end_time,
            timeline.groups_recovered) == (1.0, 1.25, 2.25, 2.763999999999999, 3)
    assert [event.kind for event in timeline.fault_trace] == ["switch_fail"]
    assert timeline.baseline_qps > 0
    # The failover window (before the controller reacts) loses most throughput.
    assert timeline.failover_window_qps < 0.5 * timeline.baseline_qps
    # After recovery the cluster is back to full throughput.
    assert timeline.post_recovery_qps > 0.8 * timeline.baseline_qps
    # Recovery costs some throughput (write unavailability).
    assert timeline.recovery_window_qps < timeline.baseline_qps
    assert [t for t, _ in timeline.series] == [0.5 * i for i in range(8)]


def test_failure_experiment_virtual_groups_reduce_disruption():
    # Each run lasts a second past the end of its recovery (2.629 s / 5.887 s).
    few = failure_experiment(virtual_groups=1, store_size=120, scale=SCALE,
                             fail_at=1.0, detection_delay=0.2, recovery_start_delay=0.5,
                             sync_items_per_sec=100.0, concurrency=8, duration=3.7)
    many = failure_experiment(virtual_groups=16, store_size=120, scale=SCALE,
                              fail_at=1.0, detection_delay=0.2, recovery_start_delay=0.5,
                              sync_items_per_sec=100.0, concurrency=8, duration=6.9)
    assert (few.recovery_end_time, few.groups_recovered) == (2.628999999999999, 3)
    assert (many.recovery_end_time, many.groups_recovered) == (5.886999999999991, 59)
    assert many.recovery_drop_fraction() < few.recovery_drop_fraction()
    for timeline in (few, many):
        assert timeline.post_recovery_qps > 0.8 * timeline.baseline_qps


@pytest.mark.parametrize("duration,missing", [
    (2.5, "recovery had not finished at duration=2.5 s"),
    (3.0, "post-recovery window"),
    (0.9, "no switch failure"),
])
def test_failure_experiment_names_the_time_a_short_run_is_missing(duration, missing):
    with pytest.raises(ValueError, match=missing):
        failure_experiment(virtual_groups=1, store_size=100, scale=SCALE,
                           fail_at=1.0, detection_delay=0.5,
                           recovery_start_delay=1.0, duration=duration,
                           sync_items_per_sec=200.0, concurrency=8)


def test_elasticity_experiment_grow_by_two():
    grow = dict(joins=["S4", "S5"], store_size=60, scale=SCALE, migrate_at=0.5,
                virtual_groups=2, sync_items_per_sec=20000.0, concurrency=8)
    timeline = elasticity_experiment(duration=0.9, **grow)
    report = timeline.report
    # Migration cost is the control plane's, captured at c463d02 like the
    # failure timeline's boundaries above.
    assert (timeline.groups_migrated, timeline.keys_moved, timeline.items_copied,
            report.started_at, report.finished_at, timeline.total_freeze_time,
            timeline.max_freeze_window) == (
        11, 27, 60, 0.5, 0.5359999999999999,
        0.013499999999999845, 0.0012799999999999478)
    assert not report.skipped_steps()
    assert timeline.after_qps > 0.8 * timeline.before_qps > 0
    assert timeline.series[0][0] == 0.0
    with pytest.raises(ValueError, match="migration had not finished at duration=0.52 s"):
        elasticity_experiment(duration=0.52, **grow)
    with pytest.raises(ValueError, match="after window"):
        elasticity_experiment(duration=0.7, **grow)


def test_only_run_scenario_builds_a_load_client():
    src = Path(__file__).resolve().parents[1] / "src"
    builders = sorted(str(path.relative_to(src)) for path in src.rglob("*.py")
                      if "LoadClient(" in path.read_text(encoding="utf-8"))
    assert builders == ["repro/deploy/scenario.py"]


def test_transaction_experiments_reproduce_figure_11_gap():
    netchain = measure_transactions("netchain", 5, contention_index=0.01,
                                    cold_items=100, duration=0.01, warmup=0.002)
    zookeeper = measure_transactions("zookeeper", 2, contention_index=0.01,
                                     cold_items=100, duration=0.6, warmup=0.1)
    assert netchain.txns_per_sec > 0
    assert zookeeper.txns_per_sec > 0
    # Orders of magnitude gap (Figure 11), compared per client.
    assert (netchain.txns_per_sec / netchain.num_clients) > \
        20 * (zookeeper.txns_per_sec / zookeeper.num_clients)


def test_netchain_contention_lowers_transaction_throughput():
    low = measure_transactions("netchain", 8, contention_index=0.01, cold_items=100,
                               duration=0.01, warmup=0.002)
    high = measure_transactions("netchain", 8, contention_index=1.0, cold_items=100,
                                duration=0.01, warmup=0.002)
    assert high.txns_per_sec < low.txns_per_sec
    assert high.aborts > low.aborts


def test_transaction_driver_names_an_unknown_backend():
    with pytest.raises(ValueError, match="no lock recipe for backend 'hybrid'"):
        measure_transactions("hybrid", 1, duration=0.01, warmup=0.0)


@pytest.mark.anchor
@pytest.mark.parametrize("backend,clients,window,contention,expected", [
    ("netchain", 10, (0.004, 0.001), 0.01, (12000.0, 419, 2224)),
    ("netchain", 10, (0.004, 0.001), 1.0, (4250.0, 3602, 3820)),
    ("zookeeper", 3, (0.4, 0.1), 0.01, (42.5, 19, 340)),
    ("zookeeper", 3, (0.4, 0.1), 1.0, (22.5, 421, 535)),
])
def test_figure_11_points_are_pinned(backend, clients, window, contention, expected):
    # Captured at 56745a4, before the two transaction clients and their two
    # drivers were merged: one state machine must replay both recipes.
    duration, warmup = window
    result = measure_transactions(backend, clients, contention_index=contention,
                                  cold_items=100, duration=duration, warmup=warmup)
    assert (result.txns_per_sec, result.aborts, result.lock_attempts) == expected


def test_only_the_transaction_client_runs_two_phase_locking():
    src = Path(__file__).resolve().parents[1] / "src"
    machines = sorted(str(path.relative_to(src)) for path in src.rglob("*.py")
                      if "def _acquire_next(" in path.read_text(encoding="utf-8"))
    assert machines == ["repro/apps/transactions.py"]


def test_scalability_experiment_linear_growth():
    points = scalability_sweep(sizes=[(2, 4), (8, 16)], samples=500)
    assert points[1].read_bqps > points[0].read_bqps
    assert points[1].write_bqps > points[0].write_bqps
    assert points[0].read_bqps > points[0].write_bqps


def test_table1_rows():
    rows = table1_rows()
    assert len(rows) == 2


def test_deployment_builders():
    netchain = build_deployment(DeploymentSpec(
        backend="netchain", scale=SCALE, store_size=10))
    assert len(netchain.keys) == 10
    assert netchain.cluster.controller.total_items() == 10
    zookeeper = build_deployment(DeploymentSpec(
        backend="zookeeper", scale=1000.0, store_size=10, num_hosts=4,
        replication=3))
    assert len(zookeeper.paths) == 10
    client = zookeeper.new_client(0)
    assert client.get_async(zookeeper.paths[0]).result().ok
