"""Elastic reconfiguration: online scale-out/scale-in with live migration.

NetChain's headline property is *scale-free* coordination -- Figure 9(f)
shows throughput growing linearly as switches are added.  This module turns
that from a static claim into an operation: a running cluster grows or
shrinks while serving traffic, with per-key consistency preserved across
the membership change.

Two pieces:

* :class:`ReconfigPlanner` diffs the controller's live consistent-hash ring
  against a target membership and emits a :class:`MigrationPlan`: one
  :class:`MigrationStep` per affected virtual group.  Consistent hashing
  with stable virtual-node placement (Section 4.1) keeps the plan minimal:
  only the segments owned by joining/leaving switches move, roughly a
  ``1/n`` fraction of the keys per membership change.

* :class:`MigrationCoordinator` executes the plan live, one virtual group
  at a time, with the paper's two-phase atomic switching protocol
  (Section 5.2) generalized from failure recovery to planned moves:

  1. **Pre-sync** -- most of the group's state is copied to the target
     switches in the background; availability is unaffected.
  2. **Write freeze (phase 1)** -- writes for the group are dropped by the
     data plane (:attr:`NetChainSwitchProgram.frozen_write_vgroups`); reads
     keep flowing because the frozen state cannot change.  In-flight writes
     drain, then the remaining delta is synchronized.
  3. **Commit (phase 2)** -- one atomic control-plane action: the virtual
     node flips on the live ring, the directory's chain table swaps to the
     target chain, the head session is bumped so new writes order after
     everything the old chain issued, and the group's chain *epoch* is
     bumped and broadcast so straggler queries addressed under the old
     layout drop instead of reading or writing retired replicas.
  4. **Garbage collection** -- after a short delay the moved keys are
     reclaimed from switches that no longer serve them.

  Because groups migrate one at a time, only one group's writes are ever
  frozen -- the same "minimizing disruptions with virtual groups" argument
  the paper makes for failure recovery.

The coordinator is self-validating against faults: every phase re-derives
the target chain against the controller's current failed-switch set, a step
whose joining switch died is skipped (plan repair), and the coordinator
pauses while failure recovery (Algorithm 3) is splicing chains so the two
reconfiguration machines never fight over a group.

The coordinator decides; the controller writes.  Every change to the ring,
the chain table, the key registry, sessions, epochs and write freezes goes
through a :class:`~repro.core.controller.NetChainController` method
(:meth:`~repro.core.controller.NetChainController.commit_migration`,
``retire_vgroup``, ``rehome_keys``, ``set_write_freeze``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.controller import NetChainController
from repro.core.ring import ConsistentHashRing, VirtualNode

#: Fraction of each group's state copied before the write freeze (Step 1
#: of the recovery protocol; planned moves can pre-copy almost everything
#: because the source is healthy).
PRESYNC_FRACTION = 0.9
#: Drain window between the freeze and the delta copy, letting writes
#: already inside the chain reach the tail before it is snapshotted.
SETTLE_DELAY = 1e-3
#: Fixed per-group overhead added to each group's delta-sync window.
PER_GROUP_OVERHEAD = 2e-3
#: Delay between a group's commit and garbage-collecting its moved keys
#: from the old owners.
GC_DELAY = 10e-3
#: Poll interval while waiting out an active failure recovery.
PAUSE_POLL = 10e-3


@dataclass
class MigrationStep:
    """Planned handling of one virtual group."""

    vgroup: int
    #: ``new-group`` (a joining switch's vnode), ``chain-update`` (same
    #: group, different members), or ``absorb`` (this group additionally
    #: inherits the keys of retiring virtual nodes).
    kind: str
    target_chain: List[str]
    #: Virtual node to insert into the live ring at commit (scale-out).
    new_vnode: Optional[VirtualNode] = None
    #: Retiring virtual nodes removed from the live ring at commit
    #: (scale-in); their keys flow to this group.
    absorbed_vnodes: List[VirtualNode] = field(default_factory=list)
    #: Estimated keys gained from other groups (reporting only; the
    #: coordinator recomputes membership at commit time).
    est_keys_moving: int = 0


@dataclass
class MigrationPlan:
    """A diff between the live ring and a target membership."""

    target_members: List[str]
    joins: List[str]
    leaves: List[str]
    steps: List[MigrationStep]
    target_ring: ConsistentHashRing
    #: Keys registered when the plan was computed (for move-fraction stats).
    total_keys: int = 0

    def estimated_keys_moved(self) -> int:
        return sum(step.est_keys_moving for step in self.steps)

    def moved_fraction(self) -> float:
        if not self.total_keys:
            return 0.0
        return self.estimated_keys_moved() / self.total_keys

    def summary(self) -> str:
        kinds: Dict[str, int] = {}
        for step in self.steps:
            kinds[step.kind] = kinds.get(step.kind, 0) + 1
        parts = ", ".join(f"{count} {kind}" for kind, count in sorted(kinds.items()))
        return (f"join {self.joins or '[]'} leave {self.leaves or '[]'}: "
                f"{len(self.steps)} group migrations ({parts}), "
                f"~{self.estimated_keys_moved()}/{self.total_keys} keys move "
                f"({self.moved_fraction():.1%})")


class ReconfigPlanner:
    """Derives a minimal per-group migration plan from a membership diff."""

    def __init__(self, controller: NetChainController) -> None:
        self.controller = controller

    def plan(self, target_members: Sequence[str]) -> MigrationPlan:
        """Diff the live ring against ``target_members``.

        Joining switches get fresh virtual nodes at their canonical hash
        positions; leaving switches' vnodes retire and their segments flow
        to the ring successors.  Every group whose serving chain or key set
        changes gets one :class:`MigrationStep`; everything else is
        untouched, which is the consistent-hashing minimality property.
        """
        controller = self.controller
        targets = list(target_members)
        if len(set(targets)) != len(targets):
            raise ValueError(f"duplicate switch names in {targets!r}")
        if len(targets) < controller.config.replication:
            raise ValueError(
                f"target membership {targets!r} smaller than the replication "
                f"factor {controller.config.replication}")
        current = set(controller.ring.switch_names)
        joins = [name for name in targets if name not in current]
        leaves = sorted(current - set(targets))
        for name in joins:
            if name not in controller.topology.switches:
                raise ValueError(f"joining switch {name!r} is not in the topology")

        target_ring = controller.ring.clone()
        for name in joins:
            target_ring.add_switch(name)
        for name in leaves:
            target_ring.remove_switch(name)

        # Where does every registered key live in the target layout?
        moving_to: Dict[int, int] = {}
        total_keys = 0
        for vgroup, keys in controller.keys_by_vgroup.items():
            total_keys += len(keys)
            for key in keys:
                target_vg = target_ring.vgroup_for_key(key)
                if target_vg != vgroup:
                    moving_to[target_vg] = moving_to.get(target_vg, 0) + 1

        # Retiring vnodes are absorbed by the target-ring successor of
        # their position (the group the tail of their segment flows to).
        retiring: Dict[int, List[VirtualNode]] = {}
        for vgroup, vnode in controller.ring.vnodes.items():
            if vgroup not in target_ring.vnodes:
                successor = target_ring.successor_vnodes(vnode.position)[0]
                retiring.setdefault(successor.vnode_id, []).append(vnode)

        steps: List[MigrationStep] = []
        for vgroup in sorted(target_ring.vnodes):
            target_chain = target_ring.chain_for_vgroup(vgroup)
            info = controller.chain_table.get(vgroup)
            absorbed = retiring.get(vgroup, [])
            gains = moving_to.get(vgroup, 0)
            if info is None:
                vnode = target_ring.vnodes[vgroup]
                steps.append(MigrationStep(vgroup=vgroup, kind="new-group",
                                           target_chain=target_chain,
                                           new_vnode=vnode,
                                           absorbed_vnodes=absorbed,
                                           est_keys_moving=gains))
            elif absorbed:
                steps.append(MigrationStep(vgroup=vgroup, kind="absorb",
                                           target_chain=target_chain,
                                           absorbed_vnodes=absorbed,
                                           est_keys_moving=gains))
            elif list(info.switches) != target_chain or gains:
                steps.append(MigrationStep(vgroup=vgroup, kind="chain-update",
                                           target_chain=target_chain,
                                           est_keys_moving=gains))
        # New groups commit first so a retiring segment that splits between
        # a joining vnode and its surviving successor is fully drained by
        # the time the absorbing group commits.
        steps.sort(key=lambda s: (0 if s.new_vnode is not None else 1, s.vgroup))
        return MigrationPlan(target_members=targets, joins=joins, leaves=leaves,
                             steps=steps, target_ring=target_ring,
                             total_keys=total_keys)


@dataclass
class StepReport:
    """Outcome of one group's migration."""

    vgroup: int
    kind: str
    target_chain: List[str] = field(default_factory=list)
    status: str = "pending"  # "committed" | "skipped"
    keys_moved: int = 0
    items_copied: int = 0
    freeze_started: float = 0.0
    freeze_ended: float = 0.0
    committed_at: float = 0.0
    detail: str = ""

    @property
    def freeze_window(self) -> float:
        """How long this group's writes were frozen (seconds)."""
        if self.freeze_ended <= self.freeze_started:
            return 0.0
        return self.freeze_ended - self.freeze_started


@dataclass
class MigrationReport:
    """Summary of one executed migration, filled in as it progresses."""

    joins: List[str]
    leaves: List[str]
    steps: List[StepReport] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0
    done: bool = False
    aborted: bool = False

    def committed_steps(self) -> List[StepReport]:
        return [s for s in self.steps if s.status == "committed"]

    def skipped_steps(self) -> List[StepReport]:
        return [s for s in self.steps if s.status == "skipped"]

    def total_keys_moved(self) -> int:
        return sum(s.keys_moved for s in self.steps)

    def total_items_copied(self) -> int:
        return sum(s.items_copied for s in self.steps)

    def total_freeze_time(self) -> float:
        return sum(s.freeze_window for s in self.steps)

    def max_freeze_window(self) -> float:
        return max((s.freeze_window for s in self.steps), default=0.0)

    def duration(self) -> float:
        return max(0.0, self.finished_at - self.started_at)

    def summary(self) -> str:
        committed = len(self.committed_steps())
        return (f"migrated {committed}/{len(self.steps)} groups in "
                f"{self.duration():.3f}s: {self.total_keys_moved()} keys moved, "
                f"total freeze {self.total_freeze_time() * 1e3:.2f}ms, "
                f"max per-group freeze {self.max_freeze_window() * 1e3:.2f}ms"
                + (", ABORTED" if self.aborted else ""))


class MigrationCoordinator:
    """Executes a :class:`MigrationPlan` live, one virtual group at a time."""

    def __init__(self, controller: NetChainController, plan: MigrationPlan) -> None:
        self.controller = controller
        self.sim = controller.sim
        self.plan = plan
        self.report = MigrationReport(joins=list(plan.joins), leaves=list(plan.leaves))
        #: Called with each :class:`StepReport` as it commits or skips
        #: (tests sample the chain invariants here).
        self.observers: List[Callable[[StepReport], None]] = []
        self._started = False
        self._abort_requested = False

    # ------------------------------------------------------------------ #
    # Lifecycle.
    # ------------------------------------------------------------------ #

    @property
    def done(self) -> bool:
        return self.report.done

    def abort(self) -> None:
        """Stop after the current group; remaining steps are skipped.

        Committed groups stay committed (each commit is atomic and
        self-consistent), so an abort leaves a mixed but correct layout.
        """
        self._abort_requested = True

    def start(self) -> MigrationReport:
        """Begin the migration; run the simulator until :attr:`done`."""
        if self._started:
            raise RuntimeError("a MigrationCoordinator can only be started once")
        self._started = True
        controller = self.controller
        self.report.started_at = self.sim.now
        for name in self.plan.joins:
            if name not in controller.members:
                controller.provision_switch(name)
        controller.event_log.emit("migration_start", steps=len(self.plan.steps),
                                  joins=len(self.plan.joins),
                                  leaves=len(self.plan.leaves))
        self._run_step(0)
        return self.report

    # ------------------------------------------------------------------ #
    # Internals.
    # ------------------------------------------------------------------ #

    def _sync_duration(self, num_items: int) -> float:
        """State synchronization copies at the controller's
        ``sync_items_per_sec``, the rate failure recovery copies at."""
        return num_items / self.controller.config.sync_items_per_sec + PER_GROUP_OVERHEAD

    def _when_recovery_idle(self, action: Callable[[], None]) -> None:
        """Defer ``action`` while failure recovery is splicing chains."""
        if self.controller.recovering:
            self.sim.schedule(PAUSE_POLL,
                              lambda: self._when_recovery_idle(action))
        else:
            action()

    def _retire_drained_vnodes(self) -> None:
        """Retire every retiring virtual node whose keys have all re-homed:
        its segment's new-key mapping flips to the ring successor."""
        controller = self.controller
        for vnode_id in list(controller.ring.vnodes):
            if vnode_id in self.plan.target_ring.vnodes:
                continue
            if controller.keys_by_vgroup.get(vnode_id):
                continue
            controller.retire_vgroup(vnode_id)

    def _finish(self) -> None:
        controller = self.controller
        if not self.report.aborted:
            # Completed migrations converge fully: keys inserted into a
            # retiring segment after its absorbing step are re-homed.  An
            # abort instead leaves the mixed-but-correct layout untouched.
            self._rehome_stragglers()
        self._retire_drained_vnodes()
        for name in self.plan.leaves:
            # A leaver is only decommissioned once fully drained: after an
            # abort or skipped steps it may still serve committed chains or
            # own vnodes, and it must stay a probed member so the failure
            # detector keeps covering it.
            still_serving = any(name in info.switches
                                for info in controller.chain_table.values())
            if still_serving or controller.ring.virtual_nodes_of(name):
                continue
            controller.decommission_switch(name)
        self.report.finished_at = self.sim.now
        self.report.done = True
        controller.event_log.emit("migration_finish",
                                  committed=len(self.report.committed_steps()),
                                  keys_moved=self.report.total_keys_moved(),
                                  aborted=self.report.aborted)

    def _rehome_stragglers(self) -> None:
        """Directly move keys still registered to a retiring group.

        Keys inserted into a retiring segment after its absorbing step
        committed (control-plane inserts race the plan) are copied to their
        target chain and re-registered in one control-plane action, so the
        migration always converges to the target layout.
        """
        controller = self.controller
        failed = controller.failed_switches
        retiring = [vid for vid in controller.ring.vnodes
                    if vid not in self.plan.target_ring.vnodes]
        if not retiring:
            return
        # Destinations come from the live ring minus every retiring vnode:
        # that is exactly how the directory will route once the vnodes are
        # removed (the final target ring may contain vnodes whose steps
        # were skipped, e.g. a joiner that died).
        probe = controller.ring.clone()
        for vid in retiring:
            probe.remove_vnode(vid)
        for vnode_id in retiring:
            keys = sorted(controller.keys_by_vgroup.get(vnode_id, set()))
            source_info = controller.chain_table.get(vnode_id)
            if not keys or source_info is None:
                continue
            live_source = [s for s in source_info.switches if s not in failed]
            if not live_source:
                continue
            by_target: Dict[int, List[bytes]] = {}
            for key in keys:
                by_target.setdefault(probe.vgroup_for_key(key), []).append(key)
            for target_vg, target_keys in sorted(by_target.items()):
                target_info = controller.chain_table.get(target_vg)
                if target_info is None:
                    continue
                target_chain = [s for s in target_info.switches if s not in failed]
                if not target_chain:
                    continue
                controller.copy_group_state(live_source[-1], target_chain,
                                            target_keys)
                controller.rehome_keys(vnode_id, target_vg, target_keys)

    def _probe_ring(self, step: MigrationStep) -> ConsistentHashRing:
        """The live ring as it will look immediately after this step's
        commit (its vnode inserted, its absorbed vnodes removed).

        Key movement must be computed against this *prospective live* ring,
        not the final target ring: with only some new vnodes committed, a
        new vnode's live segment is larger than its final one (it also
        covers segments of not-yet-committed vnodes), and every key the
        directory will route to the group after the flip must have been
        copied -- later steps then pull those keys onward.
        """
        ring = self.controller.ring
        needs_insert = (step.new_vnode is not None
                        and step.new_vnode.vnode_id not in ring.vnodes)
        absorbed = [v for v in step.absorbed_vnodes if v.vnode_id in ring.vnodes]
        if not needs_insert and not absorbed:
            return ring
        probe = ring.clone()
        if needs_insert:
            probe.insert_vnode(step.new_vnode)
        for vnode in absorbed:
            probe.remove_vnode(vnode.vnode_id)
        return probe

    def _moving_keys(self, step: MigrationStep) -> Dict[int, List[bytes]]:
        """Keys that must re-home to ``step.vgroup``, grouped by their
        *current* group -- recomputed at freeze and commit time (against
        the prospective live ring) so keys inserted after planning are not
        stranded on retired chains."""
        probe = self._probe_ring(step)
        moving: Dict[int, List[bytes]] = {}
        for vgroup, keys in self.controller.keys_by_vgroup.items():
            if vgroup == step.vgroup or not keys:
                continue
            for key in keys:
                if probe.vgroup_for_key(key) == step.vgroup:
                    moving.setdefault(vgroup, []).append(key)
        return moving

    def _live_target_chain(self, step: MigrationStep) -> List[str]:
        """The step's target chain re-derived against current failures."""
        failed = self.controller.failed_switches
        chain = self.plan.target_ring.chain_for_vgroup(step.vgroup, exclude=failed)
        return chain

    def _frozen_groups(self, step: MigrationStep, sources: Sequence[int]) -> List[int]:
        groups = set(sources)
        if step.vgroup in self.controller.chain_table:
            groups.add(step.vgroup)
        for vnode in step.absorbed_vnodes:
            groups.add(vnode.vnode_id)
        return sorted(groups)

    def _run_step(self, index: int) -> None:
        if index >= len(self.plan.steps):
            self._finish()
            return
        if self._abort_requested:
            for step in self.plan.steps[index:]:
                report = StepReport(vgroup=step.vgroup, kind=step.kind,
                                    target_chain=list(step.target_chain),
                                    status="skipped", detail="migration aborted")
                self.report.steps.append(report)
                self._notify(report)
            self.report.aborted = True
            self._finish()
            return
        step = self.plan.steps[index]
        self._when_recovery_idle(lambda: self._begin_step(step, index))

    def _notify(self, report: StepReport) -> None:
        for observer in self.observers:
            observer(report)

    def _skip(self, step: MigrationStep, index: int, reason: str,
              report: Optional[StepReport] = None,
              frozen: Optional[List[int]] = None) -> None:
        if frozen:
            self.controller.set_write_freeze(frozen, False)
        if report is None:
            report = StepReport(vgroup=step.vgroup, kind=step.kind,
                                target_chain=list(step.target_chain))
            self.report.steps.append(report)
        report.status = "skipped"
        report.detail = reason
        if report.freeze_started and not report.freeze_ended:
            report.freeze_ended = self.sim.now
        self.controller.event_log.emit("migration_skip", vgroup=step.vgroup,
                                       reason=reason)
        self._notify(report)
        self._run_step(index + 1)

    def _begin_step(self, step: MigrationStep, index: int) -> None:
        controller = self.controller
        report = StepReport(vgroup=step.vgroup, kind=step.kind,
                            target_chain=list(step.target_chain))
        self.report.steps.append(report)

        if step.new_vnode is not None and step.new_vnode.switch in controller.failed_switches:
            self._skip(step, index, f"joining switch {step.new_vnode.switch} failed",
                       report=report)
            return
        target_chain = self._live_target_chain(step)
        if not target_chain:
            self._skip(step, index, "no live switch in the target chain", report=report)
            return
        report.target_chain = list(target_chain)

        # Size the copy from the current registrations.  The same scan also
        # yields the groups to freeze; only the commit-time rescan must be
        # authoritative (it runs under the freeze and catches keys inserted
        # mid-step), so the scan is not repeated at the freeze point.
        moving = self._moving_keys(step)
        own_keys = controller.keys_by_vgroup.get(step.vgroup, set())
        num_items = len(own_keys) + sum(len(keys) for keys in moving.values())
        sync_time = self._sync_duration(num_items)
        presync_time = sync_time * PRESYNC_FRACTION
        delta_time = sync_time - presync_time

        def freeze_point() -> None:
            frozen = self._frozen_groups(step, sorted(moving))
            controller.set_write_freeze(frozen, True)
            report.freeze_started = self.sim.now
            self.sim.schedule(SETTLE_DELAY + delta_time,
                              lambda: self._when_recovery_idle(
                                  lambda: self._commit_step(step, index, report,
                                                            frozen)))

        # Step 1: pre-synchronization; availability unaffected.
        self.sim.schedule(presync_time,
                          lambda: self._when_recovery_idle(freeze_point))

    def _commit_step(self, step: MigrationStep, index: int, report: StepReport,
                     frozen: List[int]) -> None:
        """Phase 2: the atomic flip.  Runs in a single simulator event, so
        agents can never observe a half-updated directory."""
        controller = self.controller
        failed = controller.failed_switches

        if (step.new_vnode is not None
                and step.new_vnode.switch in failed):
            self._skip(step, index,
                       f"joining switch {step.new_vnode.switch} failed mid-migration",
                       report=report, frozen=frozen)
            return
        target_chain = self._live_target_chain(step)
        if not target_chain:
            self._skip(step, index, "target chain lost mid-migration",
                       report=report, frozen=frozen)
            return
        report.target_chain = list(target_chain)

        # Authoritative membership scan under the freeze.
        moving = self._moving_keys(step)
        own_keys = sorted(controller.keys_by_vgroup.get(step.vgroup, set()))

        gc_targets: Dict[str, Set[bytes]] = {}

        # Copy the group's own keys when its membership changes.  Every
        # target member is overwritten with the frozen tail state: the tail
        # holds exactly the acknowledged writes, so squashing a partial,
        # never-acknowledged write on an overlapping member preserves
        # Invariant 1 across the commit.
        current_info = controller.chain_table.get(step.vgroup)
        if (current_info is not None and own_keys
                and list(current_info.switches) != target_chain):
            live_current = [s for s in current_info.switches if s not in failed]
            if not live_current:
                self._skip(step, index, "no live replica holds the group's state",
                           report=report, frozen=frozen)
                return
            ref = live_current[-1]
            report.items_copied += controller.copy_group_state(ref, target_chain,
                                                              own_keys)
            for name in current_info.switches:
                if name not in target_chain:
                    gc_targets.setdefault(name, set()).update(own_keys)

        # Copy moved keys from each source group's frozen tail.
        session_floor = 0
        moved_keys: List[Tuple[int, bytes]] = []
        for source_vg, keys in sorted(moving.items()):
            source_info = controller.chain_table.get(source_vg)
            if source_info is None:
                continue
            live_source = [s for s in source_info.switches if s not in failed]
            if not live_source:
                continue  # no live replica: the source's keys stay
            ref = live_source[-1]
            report.items_copied += controller.copy_group_state(
                ref, target_chain, sorted(keys))
            session_floor = max(session_floor,
                                controller.sessions.get(source_vg, 0))
            for key in keys:
                moved_keys.append((source_vg, key))
            for name in source_info.switches:
                if name not in target_chain:
                    gc_targets.setdefault(name, set()).update(keys)

        controller.commit_migration(step.vgroup, target_chain, moved_keys,
                                    sorted(moving), new_vnode=step.new_vnode,
                                    session_floor=session_floor)
        self._retire_drained_vnodes()
        controller.set_write_freeze(frozen, False)
        report.freeze_ended = self.sim.now
        report.committed_at = self.sim.now
        report.keys_moved = len(moved_keys)
        report.status = "committed"
        controller.event_log.emit("migration_step", vgroup=step.vgroup,
                                  keys_moved=report.keys_moved,
                                  freeze=report.freeze_window)

        if gc_targets:
            self.sim.schedule(GC_DELAY,
                              lambda: self._garbage_collect(gc_targets))
        self._notify(report)
        self._run_step(index + 1)

    def _garbage_collect(self, gc_targets: Dict[str, Set[bytes]]) -> None:
        """Reclaim moved keys from switches that no longer serve them.

        Re-validated against the *current* directory: a concurrent failure
        recovery may have spliced a switch back into a key's chain, in
        which case its copy is load-bearing and stays.
        """
        controller = self.controller
        for name, keys in gc_targets.items():
            store = controller.stores.get(name)
            if store is None:
                continue
            for key in keys:
                info = controller.chain_table.get(
                    controller.ring.vgroup_for_key(key))
                if info is not None and name in info.switches:
                    continue
                store.remove_key(key)


def migrate(controller: NetChainController,
            target_members: Sequence[str]) -> MigrationCoordinator:
    """Plan and start a live migration to ``target_members``.

    Returns the started coordinator; run the simulator until
    ``coordinator.done`` and read ``coordinator.report``.
    """
    plan = ReconfigPlanner(controller).plan(target_members)
    coordinator = MigrationCoordinator(controller, plan)
    coordinator.start()
    return coordinator
