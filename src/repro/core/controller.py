"""The NetChain control plane (Section 5).

The controller is the auxiliary master of Vertical Paxos: it owns the
reconfiguration protocol while the switches' data plane runs the steady
state protocol.  Concretely it

* assigns keys to chains of ``f+1`` switches with consistent hashing and
  virtual nodes (Section 4.1),
* installs the NetChain program, index-table entries and register state on
  switches (insert/delete are control-plane operations),
* performs **fast failover** (Algorithm 2): when a switch fails it installs
  destination-IP rewrite rules on the failed switch's neighbours so every
  affected chain immediately continues with ``f`` nodes, and
* performs **failure recovery** (Algorithm 3): it copies state to a
  replacement switch and splices it into the chain with a two-phase atomic
  switching protocol, one virtual group at a time so that only a small
  fraction of keys lose write availability at any moment (Section 5.2).

It is also the only writer of control-plane state: the chain table, the
per-group epochs and head sessions, the ring, the key registry, the write
freezes and the hot-key tier's hot routes.  The migration coordinator
(:mod:`repro.core.reconfig`) and the hot-key manager
(:mod:`repro.core.hotkeys`) keep their policy and change that state only
through the controller's methods, and every control event lands in one
:class:`~repro.netsim.telemetry.ControlEventLog`, :attr:`event_log`.

All controller actions take simulated time (rule installation latency,
state-synchronization throughput), which is what produces the throughput
time series of Figure 10.  The timings are the prototype's (Sections 5
and 7) and are module constants, not knobs: a rule install is one 1 ms
control-channel RPC (:data:`RULE_INSTALL_LATENCY`), failure recovery does
no pre-synchronization (:data:`RECOVERY_PRESYNC_FRACTION`, the behaviour
Figure 10 measured) and adds a fixed per-group overhead
(:data:`RECOVERY_GROUP_OVERHEAD`).  The one timing a deployment sets is
the state-copy rate, ``ControllerConfig.sync_items_per_sec``: ~140
items/s is the prototype's per-item RPC copy behind Figure 10(a), and
the experiments pick their own (``DeploymentSpec.sync_items_per_sec``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.client import canonical_key
from repro.core.kvstore import StoreFullError, SwitchKVStore
from repro.core.protocol import normalize_value
from repro.core.ring import ConsistentHashRing, VirtualNode
from repro.core.switch_program import NetChainSwitchProgram, RedirectRule
from repro.netsim.routing import install_shortest_path_routes, reroute_around_failures
from repro.netsim.switch import Switch
from repro.netsim.telemetry import ControlEventLog
from repro.netsim.topology import Topology


#: Latency of installing one rule on one switch (control channel RPC).
RULE_INSTALL_LATENCY = 1e-3
#: Extra delay before the controller reacts to a failure it was told of;
#: detection time is the failure detector's probing.
FAILURE_DETECTION_DELAY = 0.0
#: Fraction of a failure recovery's state copy done in the
#: pre-synchronization step (Step 1 of Algorithm 3), during which
#: availability is unaffected.  The measured prototype (Figure 10) does
#: none; a planned migration's own is :data:`repro.core.reconfig.PRESYNC_FRACTION`.
RECOVERY_PRESYNC_FRACTION = 0.0
#: Fixed per-virtual-group overhead added to each group's recovery (a
#: planned migration's own is :data:`repro.core.reconfig.PER_GROUP_OVERHEAD`).
RECOVERY_GROUP_OVERHEAD = 50e-3
#: Control-plane latency of an insert/delete operation.
INSERT_LATENCY = 2e-3


@dataclass
class ControllerConfig:
    """Control-plane parameters a deployment sets.

    The state-synchronization rate is expressed in items per second because
    the prototype controller copies key-value items over per-item RPCs
    through the switch OS agent (Section 7); ~140 items/s reproduces the
    ~150 s recovery of a 20K-item store observed in Figure 10(a).
    """

    #: Chain length, f+1.  The paper's deployments use 3.
    replication: int = 3
    #: Virtual nodes (= virtual groups) per switch.
    vnodes_per_switch: int = 10
    #: Key slots per switch store.
    store_slots: int = 65536
    #: Items per second the controller can copy during state synchronization.
    sync_items_per_sec: float = 140.0
    #: Seed for randomized choices (replacement switch selection).
    seed: int = 0


@dataclass
class ChainInfo:
    """The chain currently serving one virtual group."""

    vgroup: int
    switches: List[str]


class HotRoute:
    """The per-key wide chain the hot-key tier installed for one hot key.

    ``switches``/``ips`` hold the wide chain head-to-tail: the base chain
    followed by the extra replicas.  Writes traverse the whole wide chain
    (the commit point moves to the wide tail); reads rotate round-robin
    across every member, each carrying the forward suffix toward the wide
    tail so a dirty replica can forward instead of serving.
    """

    __slots__ = ("key", "vgroup", "switches", "ips", "extras", "_targets", "_rr")

    def __init__(self, key: bytes, vgroup: int, switches: List[str],
                 ips: Tuple[str, ...], extras: List[str]) -> None:
        self.key = key
        self.vgroup = vgroup
        self.switches = list(switches)
        self.ips = ips
        self.extras = list(extras)
        self._targets = tuple((ips[i], ips[i + 1:]) for i in range(len(ips)))
        self._rr = 0

    def next_read(self, epochs: Dict[int, int]):
        """(dst ip, forward suffix, vgroup, epoch) for the next rotated read."""
        index = self._rr
        self._rr = (index + 1) % len(self._targets)
        dst_ip, suffix = self._targets[index]
        return dst_ip, suffix, self.vgroup, epochs.get(self.vgroup, 0)


@dataclass
class RecoveryReport:
    """Summary of one completed failure recovery, for tests and experiments."""

    failed_switch: str
    groups_recovered: int = 0
    #: Groups restored by shrinking the chain to its live members because no
    #: disjoint replacement switch was available.
    groups_shrunk: int = 0
    #: Groups skipped because no live chain member held their state.
    groups_skipped: int = 0
    items_copied: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0
    aborted: bool = False
    replacements: Dict[int, str] = field(default_factory=dict)


class NetChainController:
    """The logically centralized NetChain controller."""

    def __init__(self, topology: Topology, member_switches: Optional[Sequence[str]] = None,
                 *, config: ControllerConfig) -> None:
        """Args:
            topology: the simulated network.
            member_switches: names of the switches that store NetChain data.
                Defaults to every switch in the topology.
            config: control-plane parameters.
        """
        self.topology = topology
        self.sim = topology.sim
        self.config = config
        self.rng = random.Random(self.config.seed)
        self.members: List[str] = list(member_switches or topology.switches.keys())
        if len(self.members) < self.config.replication:
            raise ValueError("not enough member switches for the requested replication")
        self.ring = ConsistentHashRing(self.members,
                                       vnodes_per_switch=self.config.vnodes_per_switch,
                                       replication=self.config.replication)
        self.programs: Dict[str, NetChainSwitchProgram] = {}
        self.stores: Dict[str, SwitchKVStore] = {}
        self._install_programs()
        #: vgroup -> chain (switch names, head first).  Agents read through
        #: :meth:`route_for_key`, which consults this table; the table is
        #: only touched by reconfigurations, never by queries.
        self.chain_table: Dict[int, ChainInfo] = {
            vgroup: ChainInfo(vgroup, self.ring.chain_for_vgroup(vgroup))
            for vgroup in self.ring.vnodes
        }
        #: Head session number per virtual group (Section 5.2).
        self.sessions: Dict[int, int] = {vgroup: 0 for vgroup in self.ring.vnodes}
        #: Chain-configuration epoch per virtual group, stamped into query
        #: headers by :meth:`route_for_key` and bumped by planned
        #: reconfigurations so straggler queries addressed under a
        #: superseded layout are dropped by the data plane.
        self.epochs: Dict[int, int] = {vgroup: 0 for vgroup in self.ring.vnodes}
        #: Keys registered per virtual group (used to scope state sync).
        self.keys_by_vgroup: Dict[int, Set[bytes]] = {}
        #: key -> (chain IPs, vgroup) routing cache for the per-query hot
        #: path.  Validity is keyed on the ring generation plus a chain
        #: version bumped by every chain-table commit and epoch bump, so
        #: reconfigurations invalidate it wholesale.
        self._route_cache: Dict = {}
        self._route_token: Tuple[int, int] = (-1, -1)
        self._chain_version = 0
        self.failed_switches: Set[str] = set()
        #: Switches whose failure recovery (Algorithm 3) is in progress;
        #: guards against double-started recoveries and against membership
        #: flapping while chains are being spliced.
        self.recovering: Set[str] = set()
        self.recovery_reports: List[RecoveryReport] = []
        #: raw key -> :class:`HotRoute` for every key the hot-key tier has
        #: widened.  Empty keeps routing on the plain chain-table path.
        self.hot_routes: Dict[bytes, HotRoute] = {}
        #: Hot routes torn down, by the tier's policy or by a chain change
        #: under them (commit, failover, delete).
        self.narrowed_hot_routes = 0
        #: Chain commits the hot-key tier did not make (recovery,
        #: migration).  The tier narrows every route when it sees this
        #: move and aborts a widen that was pending across it.
        self.chain_commits = 0
        #: Every control event, always on: the telemetry plane spills it
        #: to ``events.ndjson`` and the Figure 10 driver reads it.
        self.event_log = ControlEventLog(self.sim)
        install_shortest_path_routes(topology)

    # ------------------------------------------------------------------ #
    # Setup.
    # ------------------------------------------------------------------ #

    def _install_programs(self) -> None:
        slots = self.config.store_slots
        for name, switch in self.topology.switches.items():
            if name in self.members:
                store = SwitchKVStore(switch, slots=slots)
                program = NetChainSwitchProgram(switch, kvstore=store)
                self.stores[name] = store
            else:
                # Non-member switches still run the program so they can host
                # failover rules when they neighbour a failed member.
                program = NetChainSwitchProgram(switch, kvstore=None, create_store=False)
            self.programs[name] = program
            switch.install_program(program)

    # ------------------------------------------------------------------ #
    # Directory API used by agents.
    # ------------------------------------------------------------------ #

    def switch_ip(self, name: str) -> str:
        """IP address of a member switch."""
        return self.topology.switches[name].ip

    def chain_for_key(self, key) -> ChainInfo:
        """The chain currently assigned to ``key``'s virtual group."""
        vgroup = self.ring.vgroup_for_key(key)
        return self.chain_table[vgroup]

    def route_for_key(self, key) -> Tuple[Sequence[str], int, int]:
        """(chain IPs, virtual group, chain epoch) — the full routing state
        agents stamp into each transmission of a query.

        Cached per key: agents re-resolve the directory on every
        transmission (first send and each retry), which makes this the
        single most-called control-plane entry point.  The cache is
        invalidated wholesale whenever the ring or any chain assignment
        changes; the epoch is always read live.
        """
        hot_routes = self.hot_routes
        if hot_routes:
            hot = hot_routes.get(canonical_key(key))
            if hot is not None:
                # Writes (and non-rotated reads) of a widened key traverse
                # the whole wide chain; the commit point is the wide tail.
                return hot.ips, hot.vgroup, self.epochs.get(hot.vgroup, 0)
        token = (self.ring.generation, self._chain_version)
        cache = self._route_cache
        if self._route_token != token:
            cache.clear()
            self._route_token = token
        entry = cache.get(key)
        if entry is None:
            info = self.chain_for_key(key)
            switches = self.topology.switches
            # A tuple, not a list: the cached route is shared by reference
            # across every transmission of the key, so it must be immutable.
            ips = tuple(switches[name].ip for name in info.switches)
            entry = (ips, info.vgroup)
            if len(cache) >= 1 << 16:
                # Bounded: an unbounded distinct-key stream (e.g. read
                # misses) must not grow memory forever.
                cache.clear()
            cache[key] = entry
        ips, vgroup = entry
        return ips, vgroup, self.epochs.get(vgroup, 0)

    def read_route_for_key(self, key):
        """Hot-key-tier rotated read route, or ``None`` for cold keys.

        Agents consult this before building a read; ``None`` (the steady
        state, one dict/None check) falls through to the normal
        tail-addressed read via :meth:`route_for_key`.  Returns
        ``(dst_ip, chain_suffix, vgroup, epoch)`` where the suffix holds
        the wide-chain hops after ``dst_ip``, toward the wide tail.
        """
        hot_routes = self.hot_routes
        if not hot_routes:
            return None
        route = hot_routes.get(canonical_key(key))
        if route is None:
            return None
        return route.next_read(self.epochs)

    # ------------------------------------------------------------------ #
    # Key management (control-plane insert / delete, Section 4.1).
    # ------------------------------------------------------------------ #

    def insert_key(self, key, value=b"", on_done: Optional[Callable[[], None]] = None) -> None:
        """Insert a key: install index entries on the chain switches.

        Takes control-plane latency; ``on_done`` fires when the key is
        queryable.
        """
        def do_insert() -> None:
            self._insert_now(key, value)
            if on_done is not None:
                on_done()

        self.sim.schedule(INSERT_LATENCY, do_insert)

    def _insert_now(self, key, value=b"") -> None:
        info = self.chain_for_key(key)
        raw_key = canonical_key(key)
        raw_value = normalize_value(value)
        for name in info.switches:
            store = self.stores[name]
            loc = store.insert_key(raw_key)
            if raw_value:
                store.write_loc(loc, raw_value, seq=0, session=0)
        self.keys_by_vgroup.setdefault(info.vgroup, set()).add(raw_key)

    def populate(self, items: Dict, default_value=b"") -> None:
        """Bulk-load keys without simulating per-key control latency.

        ``items`` may be a dict of ``key -> value`` or an iterable of keys.
        """
        if isinstance(items, dict):
            pairs = items.items()
        else:
            pairs = ((key, default_value) for key in items)
        for key, value in pairs:
            self._insert_now(key, value)

    def garbage_collect(self, key) -> None:
        """Reclaim the slots of a deleted key on all its chain switches."""
        raw_key = canonical_key(key)
        # A deleted key cannot stay widened.
        self.narrow_hot_route(raw_key)
        info = self.chain_for_key(key)
        for name in info.switches:
            self.stores[name].remove_key(raw_key)
        self.keys_by_vgroup.get(info.vgroup, set()).discard(raw_key)

    def total_items(self) -> int:
        """Number of keys registered across all groups."""
        return sum(len(keys) for keys in self.keys_by_vgroup.values())

    # ------------------------------------------------------------------ #
    # Shared reconfiguration primitives.
    #
    # Failure recovery (Algorithm 3) and planned migration
    # (:mod:`repro.core.reconfig`) are the same two-phase protocol applied
    # to different membership changes; these primitives are the common
    # machinery: state-copy timing, the copy itself, the head-session bump
    # that orders a new head's writes after everything the old head issued,
    # and the atomic chain-table/ring commit.
    # ------------------------------------------------------------------ #

    def sync_duration(self, num_items: int) -> float:
        """Simulated time to synchronize ``num_items`` items of one group."""
        return num_items / self.config.sync_items_per_sec + RECOVERY_GROUP_OVERHEAD

    def copy_group_state(self, ref_name: str, dest_names: Sequence[str],
                         keys: Sequence[bytes]) -> int:
        """Copy a group's items from a reference switch to destinations.

        Destinations that already hold a key are overwritten with the
        reference state: during a freeze the reference holds the committed
        truth, and squashing a never-acknowledged partial write on an
        overlapping member is what keeps Invariant 1 across the commit.
        Returns the number of items copied per destination.
        """
        items = self.stores[ref_name].export_items(keys)
        for dest in dest_names:
            if dest == ref_name:
                continue
            self.stores[dest].import_items(items)
        return len(items)

    def bump_group_session(self, vgroup: int, new_head: str,
                           floor: int = 0) -> int:
        """Advance a group's head session and install it on the new head.

        ``floor`` lets a migration that re-homes keys from another group
        start above that group's session as well.  Returns the new session.
        """
        self.sessions[vgroup] = max(self.sessions.get(vgroup, 0), floor) + 1
        session = self.sessions[vgroup]
        self.programs[new_head].set_head_session(vgroup, session)
        return session

    def bump_group_epoch(self, vgroup: int) -> int:
        """Advance a group's chain epoch and install it on every program.

        Installation is a control-plane broadcast: any switch that sees a
        query stamped with an older epoch for this group drops it, so
        stragglers addressed under the superseded chain cannot apply or
        answer anywhere.
        """
        epoch = self._bump_epoch(vgroup)
        self._chain_changed(vgroup)
        return epoch

    def _bump_epoch(self, vgroup: int) -> int:
        self.epochs[vgroup] = self.epochs.get(vgroup, 0) + 1
        epoch = self.epochs[vgroup]
        for program in self.programs.values():
            program.set_vgroup_epoch(vgroup, epoch)
        # Epoch bumps accompany every chain-layout change, so they also
        # invalidate the route cache.
        self._chain_version += 1
        return epoch

    def _chain_changed(self, vgroup: int) -> None:
        """A commit the hot-key tier did not make: ``vgroup``'s hot routes
        were built on its superseded chain and narrow now, not at the
        tier's next poll, by when the commit's gc may have removed the
        copies they read."""
        self.chain_commits += 1
        for raw, route in list(self.hot_routes.items()):
            if route.vgroup == vgroup:
                self.narrow_hot_route(raw)

    def commit_chain(self, vgroup: int, chain: Sequence[str],
                     moved_from: Optional[str] = None) -> None:
        """Atomically swap one group's serving chain in the directory.

        When ``moved_from`` owned the group's virtual node (it failed or is
        leaving), the vnode is reassigned to the new head so ring-derived
        lookups agree with the chain table.
        """
        self.chain_table[vgroup] = ChainInfo(vgroup, list(chain))
        self._chain_version += 1
        self._chain_changed(vgroup)
        vnode = self.ring.vnodes.get(vgroup)
        if moved_from is not None and vnode is not None and vnode.switch == moved_from:
            self.ring.reassign_vnode(vgroup, chain[0])

    def set_write_freeze(self, vgroups: Sequence[int], frozen: bool,
                         switches: Optional[Sequence[str]] = None) -> None:
        """Freeze (or lift the freeze on) writes of ``vgroups`` on
        ``switches``, every program by default."""
        for name in self.programs if switches is None else switches:
            program = self.programs[name]
            for vgroup in vgroups:
                if frozen:
                    program.freeze_vgroup_writes(vgroup)
                else:
                    program.unfreeze_vgroup_writes(vgroup)

    # ------------------------------------------------------------------ #
    # Planned migration commits (driven by repro.core.reconfig).
    # ------------------------------------------------------------------ #

    def commit_migration(self, vgroup: int, chain: Sequence[str],
                         moved_keys: Sequence[Tuple[int, bytes]],
                         sources: Sequence[int],
                         new_vnode: Optional[VirtualNode] = None,
                         session_floor: int = 0) -> None:
        """The atomic flip of one migration step, in one simulator event.

        Inserts the step's new virtual node into the ring, re-registers
        ``moved_keys`` (``(source group, key)`` pairs) under ``vgroup``,
        swaps the group's chain, bumps its head session when the head
        changed or keys arrived (above ``session_floor``, the highest
        source session), and bumps the epochs of the group and of every
        source group, so stragglers under the old layout drop.
        """
        old = self.chain_table.get(vgroup)
        old_head = old.switches[0] if old is not None else None
        if new_vnode is not None:
            self.ring.insert_vnode(new_vnode)
        for source_vg, key in moved_keys:
            self.keys_by_vgroup.get(source_vg, set()).discard(key)
            self.keys_by_vgroup.setdefault(vgroup, set()).add(key)
        self.chain_table[vgroup] = ChainInfo(vgroup, list(chain))
        if old_head != chain[0] or moved_keys:
            self.bump_group_session(vgroup, chain[0], floor=session_floor)
        self.bump_group_epoch(vgroup)
        for source_vg in sources:
            self.bump_group_epoch(source_vg)

    def retire_vgroup(self, vgroup: int) -> None:
        """Drop a drained virtual group: its vnode leaves the ring, its
        directory entry and registry go, and its epoch is bumped so
        stragglers tagged with it drop everywhere."""
        self.ring.remove_vnode(vgroup)
        self.chain_table.pop(vgroup, None)
        self.keys_by_vgroup.pop(vgroup, None)
        self.bump_group_epoch(vgroup)

    def rehome_keys(self, source_vg: int, target_vg: int,
                    keys: Sequence[bytes]) -> None:
        """Re-register ``keys`` (already copied) from ``source_vg`` to
        ``target_vg`` and bump both groups' epochs."""
        for key in keys:
            self.keys_by_vgroup[source_vg].discard(key)
            self.keys_by_vgroup.setdefault(target_vg, set()).add(key)
        self.bump_group_epoch(target_vg)
        self.bump_group_epoch(source_vg)

    # ------------------------------------------------------------------ #
    # Hot routes (driven by repro.core.hotkeys).
    # ------------------------------------------------------------------ #

    def install_hot_route(self, raw: bytes, vgroup: int, base: List[str],
                          extras: List[str], version: Tuple[int, int]) -> None:
        """Widen ``raw``'s chain to ``base + extras``.

        Copies the key from the base tail to each extra replica, installs
        the clean-version read gate (at ``version``) on every wide member
        but the wide tail, which notifies its siblings instead, and bumps
        the group's epoch.  A :class:`StoreFullError` on an extra replica
        propagates after the key is removed from the extras it reached.
        """
        reached = []
        try:
            for name in extras:
                self.copy_group_state(base[-1], [name], [raw])
                reached.append(name)
        except StoreFullError:
            for name in reached:
                self.stores[name].remove_key(raw)
            raise
        wide = base + extras
        ips = tuple(self.switch_ip(name) for name in wide)
        tail = wide[-1]
        for index, name in enumerate(wide):
            program = self.programs[name]
            if name == tail:
                siblings = tuple(ip for i, ip in enumerate(ips) if i != index)
                program.set_clean_notify(raw, siblings)
            else:
                program.set_read_gate(raw, version)
        self.hot_routes[raw] = HotRoute(raw, vgroup, wide, ips, extras)
        self._bump_epoch(vgroup)
        self.event_log.emit("hotkey_widen", key=raw.decode("ascii", "replace"),
                            vgroup=vgroup, width=len(wide))

    def narrow_hot_route(self, raw: bytes) -> bool:
        """Tear ``raw``'s hot route down, reverting it to its base chain.

        Synchronous: the epoch bump makes every in-flight query addressed
        under the wide route drop before its store lookup, so the extra
        replicas' slots are reclaimed at once.  ``False`` when the key
        has no hot route.
        """
        route = self.hot_routes.pop(raw, None)
        if route is None:
            return False
        for name in route.switches:
            program = self.programs.get(name)
            if program is not None:
                program.clear_read_gate(raw)
                program.clear_clean_notify(raw)
        # A reconfiguration since the widen may have made an extra replica a
        # member of the key's base chain: that copy is now the chain's own.
        base = self.chain_for_key(raw).switches
        for name in route.extras:
            store = self.stores.get(name)
            if store is not None and name not in base:
                store.remove_key(raw)
        self._bump_epoch(route.vgroup)
        self.narrowed_hot_routes += 1
        self.event_log.emit("hotkey_narrow", key=raw.decode("ascii", "replace"),
                            vgroup=route.vgroup)
        return True

    # ------------------------------------------------------------------ #
    # Elastic membership (hot-plug support for planned reconfiguration).
    # ------------------------------------------------------------------ #

    def provision_switch(self, name: str) -> None:
        """Prepare a topology switch to store NetChain data: install the
        program and an empty store, add it to the probed membership.

        The switch serves no virtual group yet -- it joins chains only when
        a :class:`repro.core.reconfig.MigrationCoordinator` commits groups
        onto it (or failure recovery picks it as a replacement).
        """
        if name in self.members:
            raise ValueError(f"{name!r} is already a member switch")
        switch = self.topology.switches[name]
        program = self.programs.get(name)
        if program is None or program.kvstore is None:
            store = SwitchKVStore(switch, slots=self.config.store_slots)
            program = NetChainSwitchProgram(switch, kvstore=store)
            self.stores[name] = store
            self.programs[name] = program
            switch.install_program(program)
        # A late joiner must know every group's current epoch, or it would
        # accept stragglers that the rest of the fabric already rejects.
        for vgroup, epoch in self.epochs.items():
            if epoch:
                program.set_vgroup_epoch(vgroup, epoch)
        self.members.append(name)
        self.event_log.emit("provisioned", switch=name)

    def decommission_switch(self, name: str) -> None:
        """Retire a member switch after migration drained it: it stops being
        probed and chosen for recoveries but keeps forwarding as a plain
        transit switch."""
        if name in self.members:
            self.members.remove(name)
        self.event_log.emit("decommissioned", switch=name)

    # ------------------------------------------------------------------ #
    # Fast failover (Algorithm 2).
    # ------------------------------------------------------------------ #

    def neighbor_switches(self, name: str) -> List[Switch]:
        """Physical switch neighbours of a switch (hosts cannot hold rules)."""
        node = self.topology.switches[name]
        return [n for n in node.neighbors() if isinstance(n, Switch)]

    def handle_switch_failure(self, failed: str,
                              new_switch: Optional[str] = None,
                              recovery_start_delay: float = 0.0) -> None:
        """Full failure handling: detection delay, fast failover, then
        failure recovery after ``recovery_start_delay``."""
        def react() -> None:
            self.fast_failover(failed)
            self.sim.schedule(recovery_start_delay,
                              lambda: self.failure_recovery(failed, new_switch))

        # An event even at zero delay: it takes its own seq, so running
        # ``react`` inline would reorder it against events of the same instant.
        self.sim.schedule(FAILURE_DETECTION_DELAY, react)

    def fast_failover(self, failed: str) -> None:
        """Remove ``failed`` from all its chains by updating only its
        neighbour switches (Algorithm 2)."""
        if failed in self.failed_switches:
            return
        self.failed_switches.add(failed)
        # Hot routes through the failed switch must die with it: rotated
        # reads would otherwise keep retrying into it.
        for raw, route in list(self.hot_routes.items()):
            if failed in route.switches:
                self.narrow_hot_route(raw)
        failed_ip = self.switch_ip(failed)
        self.event_log.emit("fast_failover", switch=failed)
        # The underlay's fast rerouting steers traffic around the failed
        # device; NetChain relies on it for reachability (Section 4.2).
        reroute_around_failures(self.topology, self.failed_switches)
        delay = RULE_INSTALL_LATENCY
        for neighbor in self.neighbor_switches(failed):
            program = self.programs.get(neighbor.name)
            if program is None:
                continue
            rule = RedirectRule(match_dst_ip=failed_ip, kind="failover", priority=10)
            self.sim.schedule(delay, lambda p=program, r=rule: p.add_rule(r))
        # Promote the next chain node to head for every group the failed
        # switch headed: bump the session number it will use (Section 5.2).
        for vgroup, info in self.chain_table.items():
            if failed in info.switches and info.switches[0] == failed and len(info.switches) > 1:
                new_head = info.switches[1]
                if new_head in self.failed_switches:
                    continue
                self.sessions[vgroup] += 1
                session = self.sessions[vgroup]
                program = self.programs[new_head]
                self.sim.schedule(delay, lambda p=program, g=vgroup, s=session:
                                  p.set_head_session(g, s))

    # ------------------------------------------------------------------ #
    # Failure recovery (Algorithm 3).
    # ------------------------------------------------------------------ #

    def affected_vgroups(self, failed: str) -> List[int]:
        """Virtual groups whose chain contains the failed switch."""
        return sorted(vgroup for vgroup, info in self.chain_table.items()
                      if failed in info.switches)

    def failure_recovery(self, failed: str, new_switch: Optional[str] = None) -> RecoveryReport:
        """Restore every chain that lost ``failed`` back to ``f+1`` switches.

        Groups are recovered strictly one at a time; while a group is being
        recovered its write queries (and, for a failed tail, also its read
        queries) are dropped by the neighbours' stop rules.  The returned
        report is filled in as the (simulated-time) recovery progresses.
        """
        if failed in self.recovering:
            # A second recovery request for a switch already being recovered
            # (e.g. a re-firing failure detector): report it as a no-op.
            report = RecoveryReport(failed_switch=failed, started_at=self.sim.now,
                                    finished_at=self.sim.now)
            return report
        report = RecoveryReport(failed_switch=failed, started_at=self.sim.now)
        self.recovery_reports.append(report)
        self.recovering.add(failed)
        groups = self.affected_vgroups(failed)
        self.event_log.emit("recovery_start", switch=failed, groups=len(groups))
        if not self._live_switches(failed):
            self.recovering.discard(failed)
            raise RuntimeError("no live switches available for recovery")

        def recover_next(index: int) -> None:
            if index >= len(groups):
                report.finished_at = self.sim.now
                self.recovering.discard(failed)
                self.event_log.emit("recovery_complete", switch=failed,
                                    recovered=report.groups_recovered,
                                    shrunk=report.groups_shrunk,
                                    skipped=report.groups_skipped,
                                    items=report.items_copied)
                return
            # Re-derive liveness per group: further switches may have failed
            # while earlier groups were being synchronized.
            live = self._live_switches(failed)
            if not live:
                report.aborted = True
                report.finished_at = self.sim.now
                self.recovering.discard(failed)
                self.event_log.emit("recovery_aborted", switch=failed)
                return
            vgroup = groups[index]
            self._recover_group(failed, vgroup, new_switch, live, report,
                                on_done=lambda: recover_next(index + 1))

        recover_next(0)
        return report

    def _live_switches(self, failed: str) -> List[str]:
        return [s for s in self.members if s not in self.failed_switches and s != failed]

    def _choose_replacement(self, chain: List[str], preferred: Optional[str],
                            live: List[str]) -> Optional[str]:
        """A live switch not already on the chain, or ``None`` when the
        membership is too small for a disjoint replacement (the chain is
        then shrunk to its live members instead of splicing a duplicate)."""
        if (preferred is not None and preferred not in chain
                and preferred in live):
            return preferred
        candidates = [s for s in live if s not in chain]
        if not candidates:
            return None
        return self.rng.choice(candidates)

    def _recover_group(self, failed: str, vgroup: int, preferred: Optional[str],
                       live: List[str], report: RecoveryReport,
                       on_done: Callable[[], None]) -> None:
        info = self.chain_table[vgroup]
        if failed not in info.switches:
            on_done()
            return
        chain = list(info.switches)
        idx = chain.index(failed)
        is_tail = idx == len(chain) - 1
        is_head = idx == 0
        failed_ip = self.switch_ip(failed)
        live_chain = [s for s in chain if s != failed and s not in self.failed_switches]
        if not live_chain:
            # No live replica holds this group's state; nothing to copy
            # from.  Leave the group to a later recovery (e.g. after a
            # reintroduction) instead of wedging the whole run.
            report.groups_skipped += 1
            on_done()
            return
        new_name = self._choose_replacement(chain, preferred, live)
        if new_name is None:
            self._shrink_group(failed, vgroup, chain, live_chain, report, on_done)
            return
        keys = sorted(self.keys_by_vgroup.get(vgroup, set()))
        sync_time = self.sync_duration(len(keys))
        presync_time = sync_time * RECOVERY_PRESYNC_FRACTION
        stop_time = sync_time - presync_time
        neighbors = [self.programs[s.name] for s in self.neighbor_switches(failed)
                     if s.name in self.programs]
        rule_delay = RULE_INSTALL_LATENCY
        stop_rules: List[Tuple[NetChainSwitchProgram, RedirectRule]] = []

        def cleanup_and_skip() -> None:
            for program, rule in stop_rules:
                program.remove_rule(rule)
            report.groups_skipped += 1
            on_done()

        def step1_presync() -> None:
            # Step 1: pre-synchronization; availability unaffected.  Zero
            # long (RECOVERY_PRESYNC_FRACTION), but still its own event.
            self.sim.schedule(presync_time, step2_phase1)

        def step2_phase1() -> None:
            # Phase 1: stop queries for this group at the failed switch's
            # neighbours, then finish synchronizing.  Write queries stop for
            # head/middle recovery; reads stop too when the tail failed.
            for program in neighbors:
                rule = RedirectRule(match_dst_ip=failed_ip, kind="drop", priority=30,
                                    vgroups={vgroup}, write_only=not is_tail)
                stop_rules.append((program, rule))
                self.sim.schedule(rule_delay, lambda p=program, r=rule: p.add_rule(r))
            self.sim.schedule(rule_delay + stop_time, do_state_copy)

        def do_state_copy() -> None:
            # Re-validate against failures that happened during the stop
            # window: both the reference switch and the chosen replacement
            # may have failed since this group's recovery started.
            nonlocal new_name
            current_live = [s for s in chain if s != failed
                            and s not in self.failed_switches]
            if not current_live:
                cleanup_and_skip()
                return
            if not is_tail:
                following = [s for s in chain[idx + 1:] if s in current_live]
                ref_name = following[0] if following else current_live[-1]
            else:
                ref_name = current_live[-1]
            if new_name in self.failed_switches:
                fresh_live = self._live_switches(failed)
                new_name = self._choose_replacement(chain, None, fresh_live)
                if new_name is None:
                    for program, rule in stop_rules:
                        program.remove_rule(rule)
                    self._shrink_group(failed, vgroup, chain, current_live,
                                       report, on_done)
                    return
            # Copy the group's items from the reference switch to the new one.
            report.items_copied += self.copy_group_state(ref_name, [new_name], keys)
            step2_phase2()

        def step2_phase2() -> None:
            # Phase 2: activation.  The new switch starts processing and the
            # neighbours forward this group's queries to it, with a higher
            # priority than the fast-failover rule.
            new_ip = self.switch_ip(new_name)
            if is_head:
                self.bump_group_session(vgroup, new_name)
            for program in neighbors:
                rule = RedirectRule(match_dst_ip=failed_ip, kind="forward", priority=20,
                                    new_dst_ip=new_ip, vgroups={vgroup})
                self.sim.schedule(rule_delay, lambda p=program, r=rule: p.add_rule(r))
            # Remove the stop rules once the forward rules are in.
            def finish() -> None:
                for program, rule in stop_rules:
                    program.remove_rule(rule)
                new_chain = list(chain)
                new_chain[idx] = new_name
                # Commit-point re-check: the replacement may have failed in
                # the activation window.  Never commit a chain that routes
                # through a known-failed switch -- fall back to the live
                # members, which hold the state.
                live_now = [s for s in new_chain if s not in self.failed_switches]
                if len(live_now) < len(new_chain):
                    if not live_now:
                        report.groups_skipped += 1
                        on_done()
                        return
                    self.commit_chain(vgroup, live_now, moved_from=failed)
                    report.groups_shrunk += 1
                    on_done()
                    return
                self.commit_chain(vgroup, new_chain, moved_from=failed)
                report.groups_recovered += 1
                report.replacements[vgroup] = new_name
                self.event_log.emit("group_recovered", vgroup=vgroup,
                                    replacement=new_name)
                on_done()

            self.sim.schedule(2 * rule_delay, finish)

        step1_presync()

    def _shrink_group(self, failed: str, vgroup: int, chain: List[str],
                      live_chain: List[str], report: RecoveryReport,
                      on_done: Callable[[], None]) -> None:
        """Restore a group by shrinking its chain to the live members.

        Used when the membership has no disjoint replacement switch left:
        the live members already hold the state (fast failover kept them
        serving), so the controller simply rewrites the chain table to the
        ``f``-node chain after one rule-install latency.  The group runs
        with one fewer replica until a reintroduced switch allows a future
        recovery to restore ``f+1``.
        """
        def finish() -> None:
            if chain[0] == failed:
                # The failed switch headed this group: make sure the new
                # head's session orders after everything it issued (a
                # prior fast failover normally already did this; bumping
                # again is harmless because versions only need to grow).
                self.bump_group_session(vgroup, live_chain[0])
            self.commit_chain(vgroup, live_chain, moved_from=failed)
            report.groups_shrunk += 1
            self.event_log.emit("group_shrunk", vgroup=vgroup)
            on_done()

        self.sim.schedule(RULE_INSTALL_LATENCY, finish)

    # ------------------------------------------------------------------ #
    # Planned reconfigurations (Section 5, last paragraph).
    # ------------------------------------------------------------------ #

    def remove_switch(self, name: str) -> None:
        """Planned removal (e.g. firmware upgrade): handled like failover."""
        self.fast_failover(name)

    def reintroduce_switch(self, name: str) -> None:
        """Bring a previously failed/removed switch back as an empty member.

        Its old chains keep their recovered membership; the switch becomes a
        candidate replacement for future recoveries.
        """
        self.failed_switches.discard(name)
        self.topology.switches[name].recover_device()
        program = self.programs.get(name)
        if program is not None:
            program.active = True
        reroute_around_failures(self.topology, self.failed_switches)
