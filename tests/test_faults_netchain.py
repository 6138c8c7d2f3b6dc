"""Failure-scenario matrix for NetChain: seeded fault schedules under a
concurrent mixed read/write workload, verified by the linearizability
checker and the chain invariants sampled at every fault boundary.

Each scenario runs under every seed of the matrix (``FAULT_SEEDS`` in CI);
``result.consistent()`` requires an empty invariant-violation list AND a
linearizable recorded history with no exhausted key.
"""

from __future__ import annotations

import pytest

from repro.deploy import run_scenario
from repro.deploy.matrix import signature_digest
from repro.experiments.failures import fault_scenario
from tests.conftest import fault_seeds

SEEDS = fault_seeds()


def assert_consistent(result):
    __tracebackhide__ = True
    assert not result.invariant_violations, result.invariant_violations[:3]
    assert not result.linearizability.exhausted_keys()
    assert result.linearizability.ok, result.linearizability.summary()
    assert result.completed_ops > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_single_switch_failure_with_recovery(seed):
    result = run_scenario(*fault_scenario(
        seed=seed, duration=2.0, faults=[(0.4, "fail_switch", "S1")]))
    assert_consistent(result)
    controller = result.deployment.cluster.controller
    detector = result.deployment.cluster.detector
    # The controller learned of the failure from its detector, not from us.
    assert any(name == "S1" for _, name in detector.detections)
    assert "S1" in controller.failed_switches
    reports = controller.recovery_reports
    assert reports and reports[0].finished_at > 0
    assert reports[0].groups_recovered > 0
    # No surviving chain routes through the failed switch.
    for info in controller.chain_table.values():
        assert "S1" not in info.switches
        assert len(set(info.switches)) == len(info.switches)


@pytest.mark.parametrize("seed", SEEDS)
def test_double_switch_failure(seed):
    result = run_scenario(*fault_scenario(
        seed=seed, duration=2.6,
        faults=[(0.4, "fail_switch", "S1"), (1.2, "fail_switch", "S3")]))
    assert_consistent(result)
    controller = result.deployment.cluster.controller
    assert {"S1", "S3"} <= controller.failed_switches
    # With 2 of 4 members down there is no disjoint replacement left:
    # later recoveries shrink chains to the live members instead.
    for info in controller.chain_table.values():
        assert not ({"S1", "S3"} & set(info.switches))
        assert len(set(info.switches)) == len(info.switches)


@pytest.mark.parametrize("seed", SEEDS)
def test_second_failure_during_recovery(seed):
    def schedule(s, cluster):
        controller = cluster.controller
        return (s.at(0.4, "fail_switch", "S1")
                 .when(lambda: "S1" in controller.recovering,
                       "fail_switch", "S2", label="fail S2 mid-recovery"))

    result = run_scenario(*fault_scenario(seed=seed, duration=3.0,
                                          sync_items_per_sec=500.0),
                          schedule_builder=schedule)
    assert_consistent(result)
    controller = result.deployment.cluster.controller
    assert {"S1", "S2"} <= controller.failed_switches
    # Both recoveries terminated (none left hanging mid-protocol).
    assert "S1" not in controller.recovering
    assert "S2" not in controller.recovering
    for info in controller.chain_table.values():
        assert len(set(info.switches)) == len(info.switches)


@pytest.mark.parametrize("seed", SEEDS)
def test_partition_heal_reintroduces_switch(seed):
    result = run_scenario(*fault_scenario(
        seed=seed, duration=2.4,
        faults=[(0.3, "partition", ["S3"]), (1.0, "heal_partition")]))
    assert_consistent(result)
    detector = result.deployment.cluster.detector
    controller = result.deployment.cluster.controller
    assert any(name == "S3" for _, name in detector.detections)
    assert any(name == "S3" for _, name in detector.reintroductions)
    assert "S3" not in controller.failed_switches


@pytest.mark.parametrize("seed", SEEDS)
def test_gray_failure_is_detected_and_recovered(seed):
    result = run_scenario(*fault_scenario(
        seed=seed, duration=2.4,
        faults=[(0.4, "gray_fail_switch", "S1"),
                (1.6, "recover_switch", "S1")]))
    assert_consistent(result)
    cluster = result.deployment.cluster
    # The gray switch kept forwarding but dropped service traffic...
    assert cluster.topology.switches["S1"].dropped_not_serving > 0
    # ...which the detector caught like a failure.
    assert any(name == "S1" for _, name in cluster.detector.detections)
    assert cluster.controller.recovery_reports


@pytest.mark.parametrize("seed", SEEDS)
def test_lossy_link_write_storm(seed):
    # Keyword arguments: beyond the (at, action, *args) tuple form.
    def schedule(s, _cluster):
        return (s.at(0.2, "set_link_faults", "S0", "S1",
                     loss_rate=0.08, corrupt_rate=0.02, reorder_jitter=30e-6)
                 .at(0.2, "set_link_faults", "S1", "S2",
                     loss_rate=0.08, reorder_jitter=30e-6))

    result = run_scenario(*fault_scenario(seed=seed, duration=2.0,
                                          write_ratio=0.9),
                          schedule_builder=schedule)
    assert_consistent(result)
    drops = result.drop_report
    assert drops["S0-S1"]["dropped_loss"] > 0
    assert drops["S0-S1"]["dropped_corrupt"] > 0
    assert drops["S1-S2"]["dropped_loss"] > 0
    # Retries masked the loss: the storm still made progress.
    assert result.completed_ops > 100


@pytest.mark.parametrize("seed", SEEDS)
def test_acceptance_scenario_replays_identically(seed):
    """The flagship schedule: lossy link + switch failure + partition heal
    under a concurrent mixed workload; consistent, and byte-identical on
    rerun with the same seed."""

    def schedule(s, _cluster):
        return (s.at(0.3, "set_link_faults", "S3", "S0", loss_rate=0.03,
                     reorder_jitter=20e-6)
                 .at(0.5, "fail_switch", "S1")
                 .at(1.4, "partition", {"S3"})
                 .at(1.7, "heal_partition"))

    def run():
        return run_scenario(*fault_scenario(seed=seed, duration=2.2),
                            schedule_builder=schedule)

    first = run()
    assert_consistent(first)
    assert first.fault_trace  # something actually happened
    second = run()
    assert first.trace_signature() == second.trace_signature()
    assert first.completed_ops == second.completed_ops
    assert first.failed_ops == second.failed_ops
    assert first.drop_report == second.drop_report
    # The recorded histories are identical operation for operation.
    assert signature_digest(first) == signature_digest(second)
