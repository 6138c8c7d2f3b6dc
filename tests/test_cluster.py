"""Tests for the NetChainCluster convenience wrapper."""

from __future__ import annotations

import pytest

from repro.core import NetChainCluster
from repro.core.controller import ControllerConfig
from repro.netsim.faults import FaultInjector, FaultSchedule
from repro.perfmodel.devices import scaled_testbed
from tests.conftest import make_cluster


def test_default_cluster_builds_testbed():
    cluster = make_cluster()
    assert set(cluster.topology.switches) == {"S0", "S1", "S2", "S3"}
    assert len(cluster.agents) == 4
    assert cluster.agent("H0") is cluster.agents["H0"]
    assert len(cluster.agent_list()) == 4


def test_populate_installs_keys_with_values():
    cluster = make_cluster()
    keys = cluster.populate(25, value_size=32)
    assert len(keys) == 25
    result = cluster.agent("H0").read(keys[0]).result()
    assert result.ok
    assert len(result.value) == 32
    assert cluster.controller.total_items() == 25


def test_total_completed_aggregates_agents():
    cluster = make_cluster()
    cluster.populate(4)
    cluster.agent("H0").read("k00000000").result()
    cluster.agent("H1").read("k00000001").result()
    assert cluster.total_completed() == 2


def test_scale_applies_to_device_capacities():
    cluster = NetChainCluster(scaled_testbed(scale=2000.0),
                              ControllerConfig(store_slots=256, vnodes_per_switch=2),
                              scale=2000.0)
    switch = cluster.topology.switches["S0"]
    host = cluster.topology.hosts["H0"]
    assert switch.config.capacity_pps == pytest.approx(4e9 / 2000.0)
    assert host.config.nic_pps == pytest.approx(20.5e6 / 2000.0)


def test_fail_switch_schedules_failure_and_recovery():
    cluster = make_cluster()
    cluster.populate(10)
    (FaultSchedule(FaultInjector(cluster.topology))
     .at(0.01, "fail_switch", "S1")
     .at(0.01, cluster.controller.handle_switch_failure, "S1", new_switch="S3",
         recovery_start_delay=0.05)
     .arm())
    cluster.run(until=20.0)
    assert cluster.topology.switches["S1"].failed
    assert "S1" in cluster.controller.failed_switches
    assert cluster.controller.recovery_reports
    assert cluster.controller.recovery_reports[-1].finished_at > 0


def test_custom_topology_can_be_injected():
    from repro.netsim.topology import build_testbed
    topology = build_testbed(num_hosts=2)
    cluster = NetChainCluster(topology,
                              ControllerConfig(store_slots=128, vnodes_per_switch=2))
    assert len(cluster.agents) == 2
    assert cluster.topology is topology
