"""Unit/integration tests for the NetChain control plane (Section 5)."""

from __future__ import annotations

import pytest

from repro.core.controller import INSERT_LATENCY, ControllerConfig, NetChainController
from repro.netsim.topology import build_testbed


def test_chain_assignment_uses_distinct_member_switches(cluster):
    controller = cluster.controller
    for i in range(50):
        info = controller.chain_for_key(f"key{i}")
        assert len(info.switches) == 3
        assert len(set(info.switches)) == 3
        ips, vgroup, _epoch = controller.route_for_key(f"key{i}")
        assert len(ips) == 3
        assert vgroup == info.vgroup


def test_populate_installs_on_all_chain_switches(cluster):
    controller = cluster.controller
    controller.populate({"k1": b"v1"})
    info = controller.chain_for_key("k1")
    for name in info.switches:
        item = controller.stores[name].read("k1")
        assert item is not None
        assert item.value == b"v1"
    assert controller.total_items() == 1


def test_insert_key_takes_control_plane_latency(cluster):
    controller = cluster.controller
    done = []
    controller.insert_key("slow-key", on_done=lambda: done.append(cluster.sim.now))
    assert controller.chain_for_key("slow-key") is not None
    cluster.run(until=cluster.sim.now + 0.1)
    assert done and done[0] >= INSERT_LATENCY


def test_garbage_collect_removes_slots(cluster):
    controller = cluster.controller
    controller.populate(["gone"])
    controller.garbage_collect("gone")
    info = controller.chain_for_key("gone")
    for name in info.switches:
        assert controller.stores[name].read("gone") is None
    assert controller.total_items() == 0


def test_requires_enough_member_switches():
    topology = build_testbed()
    with pytest.raises(ValueError):
        NetChainController(topology, member_switches=["S0", "S1"],
                           config=ControllerConfig(replication=3, store_slots=64))


def test_fast_failover_installs_rules_on_neighbors_only(cluster):
    controller = cluster.controller
    cluster.topology.switches["S1"].fail()
    controller.fast_failover("S1")
    cluster.run(until=cluster.sim.now + 0.1)
    failed_ip = controller.switch_ip("S1")
    # Ring topology: S0 and S2 are S1's neighbours; S3 is not.
    for name, expect_rule in (("S0", True), ("S2", True), ("S3", False)):
        rules = [r for r in controller.programs[name].rules
                 if r.match_dst_ip == failed_ip and r.kind == "failover"]
        assert bool(rules) == expect_rule
    assert "S1" in controller.failed_switches
    # Failover is idempotent.
    controller.fast_failover("S1")
    cluster.run(until=cluster.sim.now + 0.1)
    s0_rules = [r for r in controller.programs["S0"].rules if r.kind == "failover"]
    assert len(s0_rules) == 1


def test_fast_failover_bumps_session_for_headed_groups(cluster):
    controller = cluster.controller
    headed = [vg for vg, info in controller.chain_table.items()
              if info.switches[0] == "S1"]
    assert headed, "expected S1 to head at least one virtual group"
    cluster.topology.switches["S1"].fail()
    controller.fast_failover("S1")
    cluster.run(until=cluster.sim.now + 0.1)
    for vgroup in headed:
        new_head = controller.chain_table[vgroup].switches[1]
        assert controller.sessions[vgroup] == 1
        assert controller.programs[new_head].head_sessions.get(vgroup) == 1


def test_affected_vgroups_lists_chains_containing_switch(cluster):
    controller = cluster.controller
    groups = controller.affected_vgroups("S2")
    assert groups
    for vgroup in groups:
        assert "S2" in controller.chain_table[vgroup].switches


def test_failure_recovery_replaces_switch_and_copies_state(cluster):
    controller = cluster.controller
    keys = [f"key{i}" for i in range(40)]
    controller.populate(keys)
    agent = cluster.agent("H0")
    for key in keys[:10]:
        agent.write(key, b"before-failure").result()
    cluster.topology.switches["S1"].fail()
    controller.fast_failover("S1")
    report = controller.failure_recovery("S1", new_switch="S3")
    cluster.run(until=cluster.sim.now + 60.0)
    assert report.finished_at > 0
    assert report.groups_recovered == len(controller.affected_vgroups("S1")) or \
        report.groups_recovered > 0
    # S1 no longer appears in any chain.
    for info in controller.chain_table.values():
        assert "S1" not in info.switches
        assert len(set(info.switches)) == len(info.switches)
    # Data written before the failure is still readable.
    for key in keys[:10]:
        assert agent.read(key).result().value == b"before-failure"


def test_recovery_report_counts_items(cluster):
    controller = cluster.controller
    controller.populate([f"key{i}" for i in range(30)])
    cluster.topology.switches["S2"].fail()
    controller.fast_failover("S2")
    report = controller.failure_recovery("S2", new_switch="S3")
    cluster.run(until=cluster.sim.now + 60.0)
    assert report.items_copied > 0
    assert report.replacements


def test_handle_switch_failure_runs_both_phases(cluster):
    controller = cluster.controller
    controller.populate([f"key{i}" for i in range(10)])
    cluster.topology.switches["S1"].fail()
    controller.handle_switch_failure("S1", new_switch="S3",
                                     recovery_start_delay=0.5)
    cluster.run(until=cluster.sim.now + 60.0)
    assert controller.recovery_reports
    assert controller.recovery_reports[-1].finished_at > 0


def test_planned_removal_and_reintroduction(cluster):
    controller = cluster.controller
    controller.remove_switch("S3")
    assert "S3" in controller.failed_switches
    controller.reintroduce_switch("S3")
    assert "S3" not in controller.failed_switches
    assert controller.programs["S3"].active


def test_remove_switch_keeps_serving_through_failover(cluster):
    """Planned removal behaves exactly like a fast failover: the removed
    switch's chains keep answering with the remaining members."""
    controller = cluster.controller
    keys = [f"k{i}" for i in range(30)]
    controller.populate(keys)
    agent = cluster.agent("H0")
    for key in keys[:10]:
        assert agent.write(key, b"pre").result().ok
    served_by_s1 = [key for key in keys
                    if "S1" in controller.chain_for_key(key).switches]
    assert served_by_s1, "expected S1 to serve some chains"
    controller.remove_switch("S1")
    cluster.run(until=cluster.sim.now + 0.1)
    # Failover rules landed on S1's physical neighbours only.
    s1_ip = controller.switch_ip("S1")
    for name in ("S0", "S2"):
        assert any(r.match_dst_ip == s1_ip and r.kind == "failover"
                   for r in controller.programs[name].rules)
    # Reads and writes still work, including on chains that contained S1.
    for key in keys[:10]:
        assert agent.read(key).result().value == b"pre"
    for key in served_by_s1[:5]:
        assert agent.write(key, b"post").result().ok
        assert agent.read(key).result().value == b"post"


def test_remove_switch_is_idempotent(cluster):
    controller = cluster.controller
    controller.remove_switch("S3")
    controller.remove_switch("S3")
    cluster.run(until=cluster.sim.now + 0.1)
    assert "S3" in controller.failed_switches
    failover_rules = [r for program in controller.programs.values()
                      for r in program.rules if r.kind == "failover"]
    # One rule per neighbour (S2 and S0), not doubled by the second call.
    assert len(failover_rules) == 2


def test_reintroduced_switch_becomes_recovery_candidate(cluster):
    """After removal + reintroduction, the switch is empty but eligible:
    the next failure recovery may splice it back into chains."""
    controller = cluster.controller
    controller.populate([f"k{i}" for i in range(20)])
    controller.remove_switch("S3")
    controller.reintroduce_switch("S3")
    assert "S3" not in controller.failed_switches
    # Now S1 fails; S3 is the only disjoint replacement candidate.
    cluster.topology.switches["S1"].fail()
    controller.handle_switch_failure("S1")
    cluster.run(until=cluster.sim.now + 60.0)
    report = controller.recovery_reports[-1]
    assert report.finished_at > 0
    assert report.groups_recovered > 0
    # Chains that did not already contain S3 spliced it in (chains that
    # did pick the other live switch, so several replacements can appear).
    assert "S3" in set(report.replacements.values())
    assert any("S3" in info.switches for info in controller.chain_table.values())


def test_reintroduce_clears_device_failure_and_reroutes(cluster):
    controller = cluster.controller
    cluster.topology.switches["S3"].fail()
    controller.fast_failover("S3")
    controller.reintroduce_switch("S3")
    assert not cluster.topology.switches["S3"].failed
    assert controller.programs["S3"].active
    # The underlay routes through S3 again (S0 -> S3 direct hop restored).
    from repro.netsim.routing import path_between
    assert path_between(cluster.topology, "S0", "S3") == ["S0", "S3"]


def test_events_log_records_reconfigurations(cluster):
    controller = cluster.controller
    cluster.topology.switches["S1"].fail()
    controller.fast_failover("S1")
    assert {"t": 0.0, "ev": "fast_failover", "switch": "S1"} in \
        controller.event_log.as_records()


def test_recovery_of_head_bumps_session_again(cluster):
    controller = cluster.controller
    headed = [vg for vg, info in controller.chain_table.items()
              if info.switches[0] == "S1"]
    controller.populate([f"k{i}" for i in range(20)])
    cluster.topology.switches["S1"].fail()
    controller.fast_failover("S1")
    controller.failure_recovery("S1", new_switch="S3")
    cluster.run(until=cluster.sim.now + 60.0)
    for vgroup in headed:
        assert controller.sessions[vgroup] >= 2


# --------------------------------------------------------------------- #
# failure_recovery edge cases.
# --------------------------------------------------------------------- #

def make_minimal_cluster():
    """A cluster whose membership equals the replication factor: losing any
    switch leaves no disjoint replacement candidate."""
    from repro.core import NetChainCluster
    from repro.perfmodel.devices import scaled_testbed
    controller_config = ControllerConfig(vnodes_per_switch=4, store_slots=2048,
                                         sync_items_per_sec=2000.0)
    return NetChainCluster(scaled_testbed(scale=1000.0), controller_config,
                           member_switches=["S0", "S1", "S2"])


def test_recovery_without_replacement_candidate_shrinks_chains():
    cluster = make_minimal_cluster()
    controller = cluster.controller
    keys = [f"k{i}" for i in range(20)]
    controller.populate(keys)
    agent = cluster.agent("H0")
    for key in keys[:5]:
        agent.write(key, b"v").result()
    cluster.topology.switches["S1"].fail()
    controller.fast_failover("S1")
    affected = len(controller.affected_vgroups("S1"))
    report = controller.failure_recovery("S1")
    cluster.run(until=cluster.sim.now + 30.0)
    assert report.finished_at > 0
    assert report.groups_recovered == 0
    assert affected > 0 and report.groups_shrunk == affected
    # Chains shrank to the two live members: no duplicates, no S1.
    for info in controller.chain_table.values():
        assert "S1" not in info.switches
        assert len(info.switches) == len(set(info.switches)) == 2
    # The shrunk chains still serve reads and writes.
    for key in keys[:5]:
        assert agent.read(key).result(5.0).value == b"v"
        assert agent.write(key, b"after").result(5.0).ok


def test_recovery_with_no_live_switches_raises():
    cluster = make_minimal_cluster()
    controller = cluster.controller
    controller.populate(["k0"])
    for name in ("S0", "S1", "S2"):
        cluster.topology.switches[name].fail()
        controller.fast_failover(name)
    with pytest.raises(RuntimeError):
        controller.failure_recovery("S1")
    assert "S1" not in controller.recovering


def test_duplicate_recovery_request_is_a_noop(cluster):
    controller = cluster.controller
    controller.populate([f"k{i}" for i in range(30)])
    cluster.topology.switches["S1"].fail()
    controller.fast_failover("S1")
    first_report = controller.failure_recovery("S1", new_switch="S3")
    # A second request while the first is in flight must not restart it.
    second_report = controller.failure_recovery("S1", new_switch="S3")
    assert second_report is not first_report
    assert second_report.groups_recovered == 0
    assert len(controller.recovery_reports) == 1
    cluster.run(until=cluster.sim.now + 60.0)
    assert first_report.finished_at > 0


def test_second_failure_mid_recovery_completes_without_failed_chains(cluster):
    controller = cluster.controller
    keys = [f"k{i}" for i in range(40)]
    controller.populate(keys)
    cluster.topology.switches["S1"].fail()
    controller.fast_failover("S1")
    report = controller.failure_recovery("S1", new_switch="S3")

    # While S1's groups are being synchronized, S2 fails as well.
    def second_failure() -> None:
        cluster.topology.switches["S2"].fail()
        controller.handle_switch_failure("S2")

    cluster.sim.schedule(0.2, second_failure)
    cluster.run(until=cluster.sim.now + 120.0)
    assert report.finished_at > 0
    assert "S1" not in controller.recovering
    assert "S2" not in controller.recovering
    assert controller.recovery_reports[-1].finished_at > 0
    # No chain routes through either failed switch, and none has duplicates.
    for info in controller.chain_table.values():
        assert "S1" not in info.switches
        assert "S2" not in info.switches
        assert len(set(info.switches)) == len(info.switches)
    # The survivors still serve.
    agent = cluster.agent("H0")
    for key in keys[:5]:
        assert agent.write(key, b"post").result(10.0).ok


def test_replacement_failing_mid_recovery_is_rechosen(cluster):
    controller = cluster.controller
    keys = [f"k{i}" for i in range(40)]
    controller.populate(keys)
    cluster.topology.switches["S1"].fail()
    controller.fast_failover("S1")
    report = controller.failure_recovery("S1", new_switch="S3")

    # The preferred replacement dies while the copies are in flight.
    def kill_replacement() -> None:
        cluster.topology.switches["S3"].fail()
        controller.handle_switch_failure("S3")

    cluster.sim.schedule(0.2, kill_replacement)
    cluster.run(until=cluster.sim.now + 120.0)
    assert report.finished_at > 0
    for info in controller.chain_table.values():
        assert "S1" not in info.switches
        assert "S3" not in info.switches
        assert len(set(info.switches)) == len(info.switches)
