"""Unit tests for the elastic reconfiguration subsystem: planner diffs,
incremental ring rebalancing, hot-plug, and the migration coordinator on a
quiet cluster (the under-load scenario matrix lives in
``tests/test_reconfig_migration.py``)."""

from __future__ import annotations

import pytest

from repro.core.reconfig import MigrationCoordinator, ReconfigPlanner
from repro.core.ring import ConsistentHashRing
from tests.conftest import make_cluster

MEMBERS = ["S0", "S1", "S2", "S3"]


def run_until_done(cluster, coordinator, max_time: float = 60.0):
    deadline = cluster.sim.now + max_time
    while not coordinator.done and cluster.sim.now < deadline:
        cluster.run(until=cluster.sim.now + 0.25)
    assert coordinator.done, "migration did not finish in time"
    return coordinator.report


# --------------------------------------------------------------------- #
# Incremental ring rebalancing.
# --------------------------------------------------------------------- #

def test_ring_add_switch_is_stable():
    ring = ConsistentHashRing(MEMBERS, vnodes_per_switch=20)
    before = {f"key{i}": ring.chain_for_key(f"key{i}") for i in range(300)}
    before_vnodes = dict(ring.vnodes)
    new_ids = ring.add_switch("S4")
    assert len(new_ids) == 20
    # Every pre-existing vnode is untouched (same id, switch, position).
    for vid, vnode in before_vnodes.items():
        assert ring.vnodes[vid] == vnode
    moved = sum(1 for key, chain in before.items()
                if ring.chain_for_key(key) != chain)
    # Minimal movement: only segments/chains touching S4's vnodes change.
    assert 0 < moved < len(before)
    # Membership helpers see the new switch.
    assert "S4" in ring.switch_names
    assert len(ring.virtual_nodes_of("S4")) == 20


def test_ring_add_then_remove_restores_mapping():
    ring = ConsistentHashRing(MEMBERS, vnodes_per_switch=10)
    before = {f"key{i}": ring.chain_for_key(f"key{i}") for i in range(200)}
    ring.add_switch("S4")
    ring.remove_switch("S4")
    after = {key: ring.chain_for_key(key) for key in before}
    assert before == after


def test_ring_remove_below_replication_rejected():
    ring = ConsistentHashRing(["A", "B", "C"], vnodes_per_switch=4, replication=3)
    with pytest.raises(ValueError):
        ring.remove_switch("A")
    with pytest.raises(ValueError):
        ring.remove_switch("unknown")


def test_ring_clone_is_independent():
    ring = ConsistentHashRing(MEMBERS, vnodes_per_switch=5)
    clone = ring.clone()
    clone.add_switch("S4")
    assert "S4" not in ring.switch_names
    assert len(ring.vnodes) == 20
    assert len(clone.vnodes) == 25
    # Unchanged vnodes are shared by value, not by object.
    for vid in ring.vnodes:
        assert clone.vnodes[vid] == ring.vnodes[vid]


def test_ring_insert_and_remove_vnode_flip_single_segment():
    ring = ConsistentHashRing(MEMBERS, vnodes_per_switch=5)
    target = ring.clone()
    new_ids = target.add_switch("S4")
    vnode = target.vnodes[new_ids[0]]
    ring.insert_vnode(vnode)
    assert ring.vnodes[vnode.vnode_id].switch == "S4"
    assert "S4" in ring.switch_names
    removed = ring.remove_vnode(vnode.vnode_id)
    assert removed.vnode_id == vnode.vnode_id
    # The last vnode of S4 gone -> S4 leaves the membership.
    assert "S4" not in ring.switch_names


def test_ring_key_position_ignores_wire_padding():
    ring = ConsistentHashRing(MEMBERS)
    padded = b"abc" + b"\x00" * 13
    assert ring.key_position("abc") == ring.key_position(padded)
    assert ring.vgroup_for_key("abc") == ring.vgroup_for_key(padded)


# --------------------------------------------------------------------- #
# The planner.
# --------------------------------------------------------------------- #

def test_planner_join_plan_is_minimal(cluster):
    controller = cluster.controller
    cluster.populate(120)
    cluster.add_switch("S4")
    plan = ReconfigPlanner(controller).plan(MEMBERS + ["S4"])
    assert plan.joins == ["S4"] and plan.leaves == []
    new_groups = [s for s in plan.steps if s.kind == "new-group"]
    assert len(new_groups) == controller.config.vnodes_per_switch
    # New groups are scheduled before everything else.
    assert all(s.new_vnode is not None for s in plan.steps[:len(new_groups)])
    # Minimality: groups whose chain and keys are unaffected do not appear.
    planned = {s.vgroup for s in plan.steps}
    untouched = set(controller.chain_table) - planned
    assert untouched, "expected some groups to be untouched by one join"
    for vgroup in untouched:
        assert list(controller.chain_table[vgroup].switches) == \
            plan.target_ring.chain_for_vgroup(vgroup)
    # Roughly 1/(n+1) of the keys move (loose bounds; 4 -> 5 switches).
    assert 0.0 < plan.moved_fraction() < 0.6


def test_planner_rejects_bad_targets(cluster):
    planner = ReconfigPlanner(cluster.controller)
    with pytest.raises(ValueError):
        planner.plan(["S0", "S1"])  # below replication
    with pytest.raises(ValueError):
        planner.plan(["S0", "S1", "S2", "S2"])  # duplicate
    with pytest.raises(ValueError):
        planner.plan(MEMBERS + ["S9"])  # not in the topology


def test_planner_noop_for_identical_membership(cluster):
    cluster.populate(50)
    plan = ReconfigPlanner(cluster.controller).plan(MEMBERS)
    assert plan.steps == []
    assert plan.summary().startswith("join [] leave []")


# --------------------------------------------------------------------- #
# Hot-plug.
# --------------------------------------------------------------------- #

def test_hot_plug_switch_into_running_cluster(cluster):
    cluster.populate(10)
    cluster.run(until=0.1)  # the simulation is genuinely running
    switch = cluster.add_switch("S4")
    controller = cluster.controller
    assert "S4" in cluster.topology.switches
    assert "S4" in controller.members
    assert controller.programs["S4"].kvstore is not None
    assert controller.stores["S4"].used_slots() == 0
    # Physically wired into the ring (default: last + first member).
    neighbor_names = {n.name for n in switch.neighbors()}
    assert neighbor_names == {"S3", "S0"}
    # Underlay routes reach it: an agent can address it directly.
    assert cluster.topology.node("H0") is not None
    from repro.netsim.routing import path_between
    path = path_between(cluster.topology, "H0", "S4")
    assert path[0] == "H0" and path[-1] == "S4"


def test_hot_plug_duplicate_name_rejected(cluster):
    with pytest.raises(ValueError):
        cluster.add_switch("S1")


# --------------------------------------------------------------------- #
# The coordinator on a quiet cluster.
# --------------------------------------------------------------------- #

def test_scale_out_moves_keys_and_serves_them(cluster):
    controller = cluster.controller
    keys = cluster.populate(80)
    agent = cluster.agent("H0")
    for key in keys[:30]:
        assert agent.write(key, b"before").result().ok
    cluster.add_switch("S4")
    coordinator = cluster.migrate(MEMBERS + ["S4"])
    report = run_until_done(cluster, coordinator)
    assert report.total_keys_moved() > 0
    assert not report.skipped_steps()
    # S4 now serves groups; the ring is balanced.
    assert any("S4" in info.switches for info in controller.chain_table.values())
    assert controller.ring.load_distribution()["S4"] == \
        controller.config.vnodes_per_switch
    # Every key readable with the pre-migration value.
    for key in keys[:30]:
        assert agent.read(key).result().value == b"before"
    # Writes keep working, including on migrated groups.
    for key in keys:
        assert agent.write(key, b"after").result().ok
    # Freeze windows were measured and bounded.
    assert report.max_freeze_window() > 0
    assert report.max_freeze_window() < 0.1


def test_scale_out_bumps_epochs_and_gcs_old_copies(cluster):
    controller = cluster.controller
    keys = cluster.populate(60)
    epochs_before = dict(controller.epochs)
    cluster.add_switch("S4")
    coordinator = cluster.migrate(MEMBERS + ["S4"])
    report = run_until_done(cluster, coordinator)
    committed = report.committed_steps()
    assert committed
    for step in committed:
        assert controller.epochs[step.vgroup] > epochs_before.get(step.vgroup, 0)
        # The data plane knows the new epoch on every switch.
        for program in controller.programs.values():
            assert program.vgroup_epochs.get(step.vgroup) == \
                controller.epochs[step.vgroup]
        # No group is left frozen.
        for program in controller.programs.values():
            assert step.vgroup not in program.frozen_write_vgroups
    # Let garbage collection run, then check moved keys left the old owners.
    cluster.run(until=cluster.sim.now + 1.0)
    for key in keys:
        info = controller.chain_table[controller.ring.vgroup_for_key(key)]
        holders = [name for name, store in controller.stores.items()
                   if store.read(key) is not None]
        assert sorted(holders) == sorted(info.switches), key


def test_scale_in_drains_and_decommissions(cluster):
    controller = cluster.controller
    keys = cluster.populate(80)
    agent = cluster.agent("H0")
    for key in keys[:20]:
        assert agent.write(key, b"v").result().ok
    coordinator = cluster.migrate(["S0", "S2", "S3"])
    report = run_until_done(cluster, coordinator)
    assert coordinator.plan.leaves == ["S1"]
    # S1 serves nothing and is no longer a probed member.
    for info in controller.chain_table.values():
        assert "S1" not in info.switches
        assert len(set(info.switches)) == len(info.switches)
    assert "S1" not in controller.members
    assert controller.ring.virtual_nodes_of("S1") == []
    # Its groups were absorbed: every key still readable and writable.
    for key in keys[:20]:
        assert agent.read(key).result().value == b"v"
    for key in keys:
        assert agent.write(key, b"w").result().ok
    assert report.total_keys_moved() > 0


def test_migration_copies_at_the_controllers_sync_rate():
    """A migration synchronizes state at the controller's
    ``sync_items_per_sec``, the rate failure recovery copies at."""
    durations = {}
    for rate in (100.0, 10000.0):
        cluster = make_cluster(sync_items_per_sec=rate)
        cluster.populate(60)
        cluster.add_switch("S4")
        report = run_until_done(cluster, cluster.migrate(MEMBERS + ["S4"]))
        assert report.total_items_copied() > 0
        durations[rate] = report.duration()
    assert durations[100.0] > 10 * durations[10000.0]


def test_abort_skips_remaining_steps():
    cluster = make_cluster(sync_items_per_sec=100.0)
    controller = cluster.controller
    cluster.populate(60)
    cluster.add_switch("S4")
    plan = ReconfigPlanner(controller).plan(MEMBERS + ["S4"])
    coordinator = MigrationCoordinator(controller, plan)
    coordinator.start()

    def abort_after_first_commit() -> None:
        if any(s.status == "committed" for s in coordinator.report.steps):
            coordinator.abort()
        elif not coordinator.done:
            cluster.sim.schedule(1e-3, abort_after_first_commit)

    cluster.sim.schedule(1e-3, abort_after_first_commit)
    report = run_until_done(cluster, coordinator)
    assert report.aborted
    assert report.committed_steps()
    assert report.skipped_steps()
    # Committed groups stay committed and consistent; nothing is frozen.
    from repro.core.invariants import sample_chain_invariants
    assert not sample_chain_invariants(controller, raise_on_violation=False)
    for program in controller.programs.values():
        assert not program.frozen_write_vgroups


def test_aborted_leave_keeps_serving_switch_as_member():
    """An aborted scale-in must not decommission a leaver that still
    serves chains: it has to stay a probed member so the failure detector
    keeps covering it."""
    cluster = make_cluster(sync_items_per_sec=100.0)
    controller = cluster.controller
    keys = cluster.populate(60)
    plan = ReconfigPlanner(controller).plan(["S0", "S2", "S3"])
    coordinator = MigrationCoordinator(controller, plan)
    coordinator.start()
    coordinator.abort()  # the in-flight group finishes, the rest skip
    report = run_until_done(cluster, coordinator)
    assert report.aborted
    assert report.skipped_steps()
    # S1 still serves its chains, so it stays a member and keeps its vnodes.
    assert any("S1" in info.switches for info in controller.chain_table.values())
    assert "S1" in controller.members
    assert controller.ring.virtual_nodes_of("S1")
    # The cluster still works end to end.
    agent = cluster.agent("H0")
    assert agent.write(keys[0], b"v").result().ok


def test_migration_start_is_single_shot(cluster):
    cluster.populate(10)
    cluster.add_switch("S4")
    plan = ReconfigPlanner(cluster.controller).plan(MEMBERS + ["S4"])
    coordinator = MigrationCoordinator(cluster.controller, plan)
    coordinator.start()
    with pytest.raises(RuntimeError):
        coordinator.start()
