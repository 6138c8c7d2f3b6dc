"""The NetChain data-plane program (Algorithm 1 + routing + failure rules).

This is the Python equivalent of the paper's P4 program.  It is installed on
every NetChain switch and does three things:

1. **Key-value query processing** (Algorithm 1, one function on the store's
   register lists, ``_process_query``, which the failure-rule loop calls
   too): reads are answered from the local store; writes are sequenced by
   the head and applied by replicas only if they carry a newer ``(session,
   seq)`` version, which serializes out-of-order UDP delivery (Section 4.3).
2. **Chain routing** (Section 4.2): after processing, the switch rewrites
   the destination IP to the next chain hop stored in the header (or back to
   the client when it is the last hop) and lets the underlay L3 routing carry
   the packet there.
3. **Failure-handling rules** (Algorithms 2 and 3): destination-IP rewrite
   rules installed by the controller on the failed switch's neighbours.
   Failover rules skip the failed switch; recovery rules first *stop*
   queries of a virtual group and later *redirect* them to the replacement
   switch, with higher priority than the failover rules.

Differences from the paper's encoding, documented for reviewers: the chain
IP list in our header holds only the hops *after* the current destination
(the paper keeps the current destination as the first list element), so the
failover action pops one address where Algorithm 2 pops two.  The semantics
are identical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.kvstore import SwitchKVStore
from repro.core.protocol import (
    HEADER_BYTES,
    KEY_BYTES,
    NETCHAIN_UDP_PORT,
    REPLY_FOR,
    REPLY_OPS,
    REQUEST_OPS,
    NetChainHeader,
    OpCode,
    QueryStatus,
    make_clean,
)
from repro.netsim.node import Port
from repro.netsim.packet import IPv4Header, Packet, UDPHeader
from repro.netsim.switch import PipelineAction, PipelineProgram, Switch

_rule_ids = itertools.count(1)

#: Module-level aliases for the hot pipeline path (enum member access is a
#: metaclass lookup per use).  Ops and statuses are compared by identity:
#: every header's ``op`` / ``status`` is an enum member, whether the agent,
#: this program or ``NetChainHeader.from_bytes`` built it.
_CONTINUE = PipelineAction.CONTINUE
_FORWARD = PipelineAction.FORWARD
_DROP = PipelineAction.DROP
_READ = OpCode.READ
_CAS = OpCode.CAS
_DELETE = OpCode.DELETE
_CLEAN = OpCode.CLEAN
_OK = QueryStatus.OK
_KEY_NOT_FOUND = QueryStatus.KEY_NOT_FOUND
_CAS_FAILED = QueryStatus.CAS_FAILED


@dataclass
class RedirectRule:
    """A controller-installed destination-IP rule on a neighbour switch.

    ``kind`` is one of:

    * ``"failover"`` -- Algorithm 2: skip the failed switch by popping the
      next hop from the chain list (or reply to the client when the failed
      switch was the last hop).
    * ``"drop"``     -- Algorithm 3 phase 1: stop forwarding queries of the
      given virtual groups while state is synchronized.
    * ``"forward"``  -- Algorithm 3 phase 2: send queries to the replacement
      switch ``new_dst_ip`` instead (installed with a higher priority so it
      overrides the failover rule).
    """

    match_dst_ip: str
    kind: str
    priority: int = 0
    new_dst_ip: Optional[str] = None
    vgroups: Optional[Set[int]] = None
    write_only: bool = False
    rule_id: int = field(default_factory=lambda: next(_rule_ids))

    def matches(self, packet: Packet, header: NetChainHeader) -> bool:
        if packet.ip.dst_ip != self.match_dst_ip:
            return False
        if self.vgroups is not None and header.vgroup not in self.vgroups:
            return False
        if self.write_only and header.op is _READ:
            return False
        return True


@dataclass
class ProgramStats:
    """Data-plane counters, useful in tests and experiments."""

    reads: int = 0
    writes_applied: int = 0
    writes_stale_dropped: int = 0
    cas_failures: int = 0
    replies_sent: int = 0
    misses: int = 0
    redirects: int = 0
    dropped_by_rule: int = 0
    #: Queries dropped because their header carried a superseded chain epoch
    #: (stragglers addressed under a pre-reconfiguration layout).
    dropped_stale_epoch: int = 0
    #: Writes dropped during a per-vgroup migration freeze window.
    dropped_frozen: int = 0
    #: Hot-key-tier rotated reads forwarded toward the wide tail because
    #: this replica's copy was not (yet) marked clean.
    reads_forwarded_dirty: int = 0
    #: Hot-key-tier CLEAN notifications sent (as the wide-chain tail).
    clean_notifications: int = 0


class NetChainSwitchProgram(PipelineProgram):
    """Algorithm 1 and friends, installed as a pipeline program on a switch."""

    def __init__(self, switch: Switch, kvstore: Optional[SwitchKVStore] = None,
                 create_store: bool = True) -> None:
        self.switch = switch
        if kvstore is None and create_store:
            kvstore = SwitchKVStore(switch)
        self.kvstore = kvstore
        #: Session number this switch uses when acting as the head of a
        #: virtual group's chain (bumped by the controller when it promotes
        #: a new head, Section 5.2).
        self.head_sessions: Dict[int, int] = {}
        self.rules: List[RedirectRule] = []
        #: Chain-configuration epoch installed per virtual group.  Queries
        #: whose header carries an older epoch are dropped (they were built
        #: against a superseded chain layout); the client's retry re-resolves
        #: the directory and comes back with the current epoch.
        self.vgroup_epochs: Dict[int, int] = {}
        #: Virtual groups whose writes are frozen (phase 1 of a planned
        #: migration: state is being synchronized to the target chain).
        #: Reads keep flowing -- the frozen state cannot change.
        self.frozen_write_vgroups: Set[int] = set()
        #: Hot-key sketch installed by the hot-key tier's manager
        #: (:mod:`repro.core.hotkeys`); ``None`` keeps the read path at its
        #: steady-state cost.
        self.hotkeys = None
        #: Per-key clean version ``(session, seq)`` for hot keys this switch
        #: replicates as a non-tail wide-chain member.  A rotated read is
        #: served only while the stored version equals the clean version;
        #: otherwise it forwards toward the wide tail.
        self._read_gate: Dict[bytes, tuple] = {}
        #: Per-key sibling-replica IPs to CLEAN-notify after committing a
        #: write, installed on the wide-chain tail of each hot key.
        self._clean_notify: Dict[bytes, tuple] = {}
        self.stats = ProgramStats()
        #: Optional telemetry tracer (:class:`repro.core.trace.Tracer`);
        #: ``None`` keeps the query path at its steady-state cost.
        self.telemetry = None
        #: When False the switch ignores NetChain queries entirely (used by
        #: the controller before a replacement switch is activated).
        self.active = True

    # ------------------------------------------------------------------ #
    # Controller-facing API (rule and session management).
    # ------------------------------------------------------------------ #

    def add_rule(self, rule: RedirectRule) -> RedirectRule:
        """Install a redirect/drop rule; higher priority rules win."""
        self.rules.append(rule)
        self.rules.sort(key=lambda r: -r.priority)
        return rule

    def remove_rule(self, rule: RedirectRule) -> None:
        """Remove a previously installed rule (no error if already gone)."""
        if rule in self.rules:
            self.rules.remove(rule)

    def set_head_session(self, vgroup: int, session: int) -> None:
        """Set the session number used when this switch heads ``vgroup``."""
        self.head_sessions[vgroup] = session

    def set_vgroup_epoch(self, vgroup: int, epoch: int) -> None:
        """Install a chain-configuration epoch; older-epoch queries drop."""
        self.vgroup_epochs[vgroup] = epoch

    def freeze_vgroup_writes(self, vgroup: int) -> None:
        """Stop applying writes for one virtual group (migration phase 1)."""
        self.frozen_write_vgroups.add(vgroup)

    def unfreeze_vgroup_writes(self, vgroup: int) -> None:
        """Lift a migration write freeze."""
        self.frozen_write_vgroups.discard(vgroup)

    def set_read_gate(self, key: bytes, version: tuple) -> None:
        """Install the clean version gating rotated reads of a hot key."""
        self._read_gate[key] = version

    def clear_read_gate(self, key: bytes) -> None:
        """Remove a hot key's read gate (the key narrowed)."""
        self._read_gate.pop(key, None)

    def set_clean_notify(self, key: bytes, sibling_ips: tuple) -> None:
        """As the wide-chain tail, CLEAN-notify these siblings on commit."""
        self._clean_notify[key] = tuple(sibling_ips)

    def clear_clean_notify(self, key: bytes) -> None:
        """Stop CLEAN-notifying for a hot key (the key narrowed)."""
        self._clean_notify.pop(key, None)

    # ------------------------------------------------------------------ #
    # Pipeline entry point.
    # ------------------------------------------------------------------ #

    def process(self, switch: Switch, packet: Packet, in_port: Port) -> PipelineAction:
        udp = packet.udp
        if udp is None or udp.dst_port != NETCHAIN_UDP_PORT:
            return _CONTINUE
        header = packet.payload
        if type(header) is not NetChainHeader:
            return _CONTINUE
        # One pipeline pass may combine local chain processing with one or
        # more failure-handling rewrites: a redirect rule can point the
        # packet at *this* switch ("N overlaps with S2": apply the rule
        # before processing), and processing can point it at a failed switch
        # ("N overlaps with S0": apply the rule after processing).  The loop
        # below alternates the two until the packet leaves the switch; it is
        # bounded because every local processing step consumes chain hops
        # and every rule application either changes the destination or ends
        # the query.
        ip = packet.ip
        my_ip = switch.ip
        rules = self.rules
        if ip.dst_ip != my_ip:
            if not rules:
                return _FORWARD  # transit, the steady state
        elif header.op in REPLY_OPS:
            # A reply addressed to a switch is a protocol error; drop it
            # rather than forward it in a loop.
            return _DROP
        elif not rules:
            # Fast path: no failure-handling rules installed (the steady
            # state).  Process locally-addressed queries once and forward;
            # the rule/processing alternation below cannot trigger.
            if header.op not in REQUEST_OPS:
                return _FORWARD
            if not self.active:
                return _DROP
            return self._process_query(switch, packet, header)
        limit = len(rules) + len(header.chain) + 3
        for _ in range(limit):
            if ip.dst_ip == my_ip and header.op in REQUEST_OPS:
                if not self.active:
                    return _DROP
                action = self._process_query(switch, packet, header)
                if action is not _FORWARD:
                    return action
                continue
            if not rules:
                return _FORWARD
            rule = self._first_match(packet, header)
            if rule is None:
                return _FORWARD
            if rule.kind == "drop":
                self.stats.dropped_by_rule += 1
                return _DROP
            self.stats.redirects += 1
            if rule.kind == "forward":
                packet.ip.dst_ip = rule.new_dst_ip
                continue
            if rule.kind == "failover":
                if header.chain:
                    packet.ip.dst_ip = header.chain.pop(0)
                    continue
                # The failed switch was the last hop: reply on its behalf.
                self._make_reply(switch, packet, header, _OK)
                return _FORWARD
            raise ValueError(f"unknown rule kind {rule.kind!r}")
        return _FORWARD

    def _first_match(self, packet: Packet, header: NetChainHeader) -> Optional[RedirectRule]:
        for rule in self.rules:
            if rule.matches(packet, header):
                return rule
        return None

    # ------------------------------------------------------------------ #
    # Algorithm 1: query processing.
    # ------------------------------------------------------------------ #

    def _process_query(self, switch: Switch, packet: Packet,
                       header: NetChainHeader) -> PipelineAction:
        """Algorithm 1, whole, for one query addressed to this switch."""
        if self.telemetry is not None:
            self.telemetry.switch_stage(switch, packet, header)
        op = header.op
        # Reconfiguration guards, checked before the store lookup so a
        # straggler addressed under a superseded chain layout drops even
        # after its keys were garbage-collected here (replying NOT_FOUND
        # would be an inconsistent definite answer).
        installed_epoch = self.vgroup_epochs.get(header.vgroup)
        if installed_epoch is not None and header.epoch < installed_epoch:
            self.stats.dropped_stale_epoch += 1
            return _DROP
        if op is not _READ and header.vgroup in self.frozen_write_vgroups:
            # Migration phase 1: the group's state is being synchronized;
            # writes drop and the client's retry lands after the commit.
            self.stats.dropped_frozen += 1
            return _DROP
        if op is _CLEAN:
            # Hot-key tier: a clean-version notification from the wide
            # tail.  Pure metadata -- no store access, never replied to.
            # Losing one only leaves the replica dirty (it keeps
            # forwarding reads to the tail) until the next commit.
            return self._apply_clean(header)
        # A transit-only switch (no storage role) addressed directly is a miss.
        store = self.kvstore
        loc = store.index.get(header.key) if store is not None else None
        if loc is None:
            self.stats.misses += 1
            self._make_reply(switch, packet, header, _KEY_NOT_FOUND)
            return _FORWARD
        seqs, sessions = store._seq_data, store._session_data  # Fig. 3's register arrays
        stored_seq, stored_session = seqs[loc], sessions[loc]
        if op is _READ:
            self.stats.reads += 1
            hotkeys = self.hotkeys
            if hotkeys is not None:
                # The sketch hashes the 16-byte header field, as a Tofino CMS does.
                hotkeys.record(header.key.ljust(KEY_BYTES, b"\x00"))
            gate = self._read_gate
            clean = gate.get(header.key) if gate and header.chain else None
            if clean is None or (stored_session, stored_seq) == clean:
                if not store._valid_data[loc]:
                    self._make_reply(switch, packet, header, _KEY_NOT_FOUND)
                    return _FORWARD
                header.value, header.seq, header.session = (store._value_data[loc], stored_seq,
                                                            stored_session)
                self._make_reply(switch, packet, header, _OK)
                return _FORWARD
            # Hot-key tier: a non-tail wide-chain replica serves a rotated
            # read only while its copy is clean (== committed); a dirty copy
            # forwards toward the wide tail, which always serves.
            self.stats.reads_forwarded_dirty += 1
        elif header.seq == 0 and header.session == 0:
            # Head: assign a monotonically increasing version.  A new head
            # promoted after a failure uses a larger session number so its
            # versions order after everything the failed head issued.
            head_session = self.head_sessions.get(header.vgroup, 0)
            header.session = head_session if head_session > stored_session else stored_session
            header.seq = stored_seq + 1
            if op is _CAS and store._value_data[loc] != (header.cas_expected or b""):
                self.stats.cas_failures += 1
                header.value = store._value_data[loc]
                self._make_reply(switch, packet, header, _CAS_FAILED)
                return _FORWARD
        elif (header.session, header.seq) <= (stored_session, stored_seq):
            # Stale write: Algorithm 1 line 13, Drop().  The client's
            # retry (writes are idempotent) will carry a newer version.
            self.stats.writes_stale_dropped += 1
            return _DROP
        if op is not _READ:
            # (A value over one pass never gets here: the agent refuses it at submit.)
            if op is _DELETE:
                store._value_data[loc] = b""
                store._valid_data[loc] = False
            else:
                store._value_data[loc] = header.value
                store._valid_data[loc] = True
            seqs[loc] = header.seq
            sessions[loc] = header.session
            self.stats.writes_applied += 1
            if not header.chain:
                notify = self._clean_notify
                if notify:
                    # Hot-key tier: as the wide-chain tail, tell the sibling
                    # replicas the new clean version (they serve reads again).
                    targets = notify.get(header.key)
                    if targets is not None:
                        self._send_clean(switch, header, targets)
                self._make_reply(switch, packet, header, _OK)
                return _FORWARD
        # On down the chain: one hop fewer on the wire (NetChainHeader.wire_size).
        chain = header.chain
        packet.ip.dst_ip = chain.pop(0)
        cas = header.cas_expected
        packet.payload_bytes = (HEADER_BYTES + 4 * len(chain) + len(header.value)
                                + (0 if cas is None else len(cas)))
        return _FORWARD

    def _apply_clean(self, header: NetChainHeader) -> "PipelineAction":
        gate = self._read_gate
        current = gate.get(header.key)
        if current is not None:
            version = (header.session, header.seq)
            if version > current:
                # Monotonic: reordered UDP delivery cannot roll the clean
                # version back to an older write.
                gate[header.key] = version
        return _DROP

    def _send_clean(self, switch: Switch, header: NetChainHeader,
                    targets: tuple) -> None:
        epoch = self.vgroup_epochs.get(header.vgroup, header.epoch)
        for ip in targets:
            clean = make_clean(header.key, header.seq, header.session,
                               vgroup=header.vgroup, epoch=epoch)
            packet = Packet(ip=IPv4Header(src_ip=switch.ip, dst_ip=ip),
                            udp=UDPHeader(src_port=NETCHAIN_UDP_PORT,
                                          dst_port=NETCHAIN_UDP_PORT),
                            payload=clean, payload_bytes=clean.wire_size(),
                            created_at=switch.sim.now)
            switch.forward(packet)
            self.stats.clean_notifications += 1

    # ------------------------------------------------------------------ #
    # Helpers.
    # ------------------------------------------------------------------ #

    def _make_reply(self, switch: Switch, packet: Packet, header: NetChainHeader,
                    status: QueryStatus) -> None:
        """Turn the query packet into a reply addressed back to the client."""
        tel = self.telemetry
        if tel is not None:
            tel.op_complete(header)  # header.op is still the request op here
        header.op = REPLY_FOR.get(header.op, header.op)
        header.status = status
        header.chain = []
        ip, udp = packet.ip, packet.udp
        ip.dst_ip = ip.src_ip
        ip.src_ip = switch.ip
        udp.dst_port = udp.src_port
        udp.src_port = NETCHAIN_UDP_PORT
        ip.ttl = 64
        cas = header.cas_expected  # NetChainHeader.wire_size, with no chain left
        packet.payload_bytes = HEADER_BYTES + len(header.value) + (0 if cas is None else len(cas))
        self.stats.replies_sent += 1
