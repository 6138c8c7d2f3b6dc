"""Migration x faults scenario matrix: planned membership changes under a
concurrent recorded workload, seeded like the failure-scenario matrix
(``FAULT_SEEDS`` in CI), each checked with the per-key linearizability
checker, the chain invariants at every migration commit and fault
boundary, the zero-lost-keys sweep, and replay identity."""

from __future__ import annotations

import pytest

from repro.core.detector import DetectorConfig
from repro.deploy import run_scenario
from repro.deploy.matrix import signature_digest
from repro.experiments.elasticity import reconfig_scenario
from tests.conftest import fault_seeds

SEEDS = fault_seeds()


def assert_consistent(result):
    __tracebackhide__ = True
    assert not result.invariant_violations, result.invariant_violations[:3]
    assert not result.lost_keys, result.lost_keys
    assert not result.linearizability.exhausted_keys()
    assert result.linearizability.ok, result.linearizability.summary()
    assert result.completed_ops > 0
    assert result.migrations and all(rep.done for rep in result.migrations)


@pytest.mark.parametrize("seed", SEEDS)
def test_join_under_load(seed):
    result = run_scenario(*reconfig_scenario([(0.5, ["S4"], [])], seed=seed,
                                             duration=2.0))
    assert_consistent(result)
    report = result.migrations[0]
    assert report.committed_steps() and not report.skipped_steps()
    assert report.total_keys_moved() > 0
    controller = result.deployment.cluster.controller
    assert "S4" in controller.ring.switch_names
    assert any("S4" in info.switches for info in controller.chain_table.values())
    # Freeze windows are per-group, measured, and small.
    for step in report.committed_steps():
        assert 0.0 < step.freeze_window < 0.05


@pytest.mark.parametrize("seed", SEEDS)
def test_leave_under_load(seed):
    result = run_scenario(*reconfig_scenario([(0.5, [], ["S1"])], seed=seed,
                                             duration=2.0))
    assert_consistent(result)
    controller = result.deployment.cluster.controller
    assert "S1" not in controller.ring.switch_names
    assert "S1" not in controller.members
    for info in controller.chain_table.values():
        assert "S1" not in info.switches
        assert len(set(info.switches)) == len(info.switches)


@pytest.mark.parametrize("seed", SEEDS)
def test_double_join_under_load(seed):
    result = run_scenario(*reconfig_scenario([(0.5, ["S4", "S5"], [])],
                                             seed=seed, duration=2.4))
    assert_consistent(result)
    controller = result.deployment.cluster.controller
    distribution = controller.ring.load_distribution()
    vnodes = controller.config.vnodes_per_switch
    assert distribution["S4"] == vnodes and distribution["S5"] == vnodes
    assert any("S4" in info.switches for info in controller.chain_table.values())
    assert any("S5" in info.switches for info in controller.chain_table.values())


@pytest.mark.parametrize("seed", SEEDS)
def test_joining_switch_fails_mid_migration(seed):
    """The joining switch fail-stops as soon as it is provisioned: the
    coordinator must repair the plan (skip its groups once detected, route
    target chains around it) and the cluster must stay consistent."""

    def kill_joiner(schedule, cluster):
        controller = cluster.controller
        return schedule.when(lambda: "S4" in controller.members,
                             "fail_switch", "S4",
                             label="fail-stop joiner at provision")

    result = run_scenario(*reconfig_scenario(
        [(0.5, ["S4"], [])], seed=seed, duration=3.5,
        sync_items_per_sec=100.0,
        detector_config=DetectorConfig(probe_interval=10e-3,
                                       suspicion_threshold=1)),
        schedule_builder=kill_joiner)
    assert_consistent(result)
    assert any(e.kind == "switch_fail" for e in result.fault_trace)
    controller = result.deployment.cluster.controller
    assert "S4" in controller.failed_switches
    # Converged: no serving chain routes through the dead joiner.
    for info in controller.chain_table.values():
        assert "S4" not in info.switches
        assert len(set(info.switches)) == len(info.switches)
    report = result.migrations[0]
    # The dead joiner's own groups were skipped (plan repair) or were
    # committed before detection and then repaired by failure recovery;
    # either way the migration terminated.
    assert report.done


@pytest.mark.parametrize("seed", SEEDS)
def test_member_fails_during_scale_out(seed):
    """An unrelated member dies while the migration is running: failure
    recovery and the coordinator interleave without corrupting a group."""

    def kill_member(schedule, cluster):
        controller = cluster.controller
        return schedule.when(
            lambda: any("S4" in info.switches
                        for info in controller.chain_table.values()),
            "fail_switch", "S2", label="fail S2 mid-migration")

    result = run_scenario(*reconfig_scenario(
        [(0.5, ["S4"], [])], seed=seed, duration=3.5,
        sync_items_per_sec=300.0),
        schedule_builder=kill_member)
    assert_consistent(result)
    controller = result.deployment.cluster.controller
    assert "S2" in controller.failed_switches
    assert "S2" not in controller.recovering
    for info in controller.chain_table.values():
        assert "S2" not in info.switches
        assert len(set(info.switches)) == len(info.switches)


@pytest.mark.parametrize("seed", SEEDS)
def test_acceptance_grow_then_shrink(seed):
    """The flagship elasticity schedule: grow 4 -> 8 under sustained
    read/write load, then shrink 8 -> 6, with zero lost keys, a
    linearizable history, and bounded per-group freeze windows."""
    result = run_scenario(*reconfig_scenario(
        [(0.4, ["S4", "S5", "S6", "S7"], []),
         (2.2, [], ["S1", "S4"])],
        seed=seed, duration=4.0, sync_items_per_sec=3000.0))
    assert_consistent(result)
    grow, shrink = result.migrations
    controller = result.deployment.cluster.controller
    assert sorted(controller.ring.switch_names) == \
        ["S0", "S2", "S3", "S5", "S6", "S7"]
    assert grow.total_keys_moved() > 0 and shrink.total_keys_moved() > 0
    # Freeze windows: every group's write-unavailability is measured and
    # bounded (well under the client's retry budget of 4ms x ... windows).
    for report in (grow, shrink):
        assert report.max_freeze_window() < 0.05
        assert report.total_freeze_time() > 0
    for info in controller.chain_table.values():
        assert not ({"S1", "S4"} & set(info.switches))


@pytest.mark.parametrize("seed", SEEDS)
def test_scenario_replays_identically(seed):
    """Same seed -> byte-identical fault trace, migration step outcomes,
    and operation history."""

    def kill_joiner(schedule, cluster):
        controller = cluster.controller
        return schedule.when(lambda: "S4" in controller.members,
                             "fail_switch", "S4", label="kill joiner")

    def run():
        return run_scenario(*reconfig_scenario(
            [(0.5, ["S4"], [])], seed=seed, duration=2.5,
            sync_items_per_sec=300.0), schedule_builder=kill_joiner)

    first, second = run(), run()
    assert first.trace_signature() == second.trace_signature()
    assert first.migration_signature() == second.migration_signature()
    assert first.completed_ops == second.completed_ops
    assert first.failed_ops == second.failed_ops
    assert first.drop_report == second.drop_report
    assert signature_digest(first) == signature_digest(second)
