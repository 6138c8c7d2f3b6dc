"""Unit tests for the NetChain data-plane program (Algorithm 1).

These tests drive the program directly (no network): they construct query
packets and feed them through ``process`` on hand-built switches, which
makes the protocol behaviours easy to pin down:

* head sequencing and replica version filtering (the Figure 5 scenario),
* chain routing rewrites and reply generation,
* CAS and delete semantics,
* the failure-handling redirect rules of Algorithms 2 and 3.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.core.kvstore import SwitchKVStore
from repro.core.protocol import (
    NetChainHeader,
    OpCode,
    QueryStatus,
    build_query_packet,
    make_cas,
    make_delete,
    make_read,
    make_write,
)
from repro.core.switch_program import NetChainSwitchProgram, ProgramStats, RedirectRule
from repro.netsim.engine import Simulator
from repro.netsim.switch import PipelineAction, Switch, SwitchConfig

CLIENT_IP = "10.1.0.1"
CLIENT_PORT = 9001


def make_program(ip="10.0.0.1", slots=64):
    switch = Switch(Simulator(), f"S-{ip}", ip, config=SwitchConfig(capacity_pps=None))
    program = NetChainSwitchProgram(switch, kvstore=SwitchKVStore(switch, slots=slots))
    return switch, program


def make_chain(n=3):
    """n programs with consecutive IPs 10.0.0.1 .. 10.0.0.n."""
    switches, programs = [], []
    for i in range(n):
        switch, program = make_program(ip=f"10.0.0.{i + 1}")
        switches.append(switch)
        programs.append(program)
    return switches, programs


def chain_ips(switches):
    return [s.ip for s in switches]


def send(program, switch, header, dst_ip):
    packet = build_query_packet(CLIENT_IP, CLIENT_PORT, dst_ip, header)
    action = program.process(switch, packet, None)
    return packet, action


def run_write_through_chain(switches, programs, key, value, start_index=0):
    """Push a write query through the chain programs in order, returning the
    final packet and action."""
    ips = chain_ips(switches)
    header = make_write(key, value, ips)
    packet = build_query_packet(CLIENT_IP, CLIENT_PORT, ips[0], header)
    action = None
    for switch, program in zip(switches, programs, strict=True):
        if packet.ip.dst_ip != switch.ip:
            continue
        action = program.process(switch, packet, None)
        if action is not PipelineAction.FORWARD:
            break
    return packet, action


# --------------------------------------------------------------------- #
# Basic read/write processing.
# --------------------------------------------------------------------- #

def test_non_netchain_packet_is_ignored():
    switch, program = make_program()
    packet = build_query_packet(CLIENT_IP, CLIENT_PORT, switch.ip,
                                make_read("k", [switch.ip]))
    packet.udp.dst_port = 1234  # not the reserved port
    assert program.process(switch, packet, None) is PipelineAction.CONTINUE


def test_read_returns_value_and_version_as_reply():
    switch, program = make_program()
    loc = program.kvstore.insert_key("k")
    program.kvstore.write_loc(loc, b"hello", seq=4, session=1)
    header = make_read("k", [switch.ip])
    packet, action = send(program, switch, header, switch.ip)
    assert action is PipelineAction.FORWARD
    assert header.op == OpCode.READ_REPLY
    assert header.status == QueryStatus.OK
    assert header.value == b"hello"
    assert (header.session, header.seq) == (1, 4)
    # The reply is addressed back to the client, from the switch.
    assert packet.ip.dst_ip == CLIENT_IP
    assert packet.ip.src_ip == switch.ip
    assert packet.udp.dst_port == CLIENT_PORT


def test_read_miss_replies_not_found():
    switch, program = make_program()
    header = make_read("missing", [switch.ip])
    _, action = send(program, switch, header, switch.ip)
    assert action is PipelineAction.FORWARD
    assert header.status == QueryStatus.KEY_NOT_FOUND
    assert program.stats.misses == 1


def test_head_assigns_monotonic_sequence_numbers():
    switch, program = make_program()
    program.kvstore.insert_key("k")
    seqs = []
    for value in (b"a", b"b", b"c"):
        header = make_write("k", value, [switch.ip])
        send(program, switch, header, switch.ip)
        seqs.append(header.seq)
    assert seqs == [1, 2, 3]
    assert program.kvstore.read("k").value == b"c"


def test_write_traverses_chain_and_replies_from_tail():
    switches, programs = make_chain(3)
    for program in programs:
        program.kvstore.insert_key("k")
    packet, action = run_write_through_chain(switches, programs, "k", b"v1")
    header = packet.payload
    assert action is PipelineAction.FORWARD
    assert header.op == OpCode.WRITE_REPLY
    assert packet.ip.dst_ip == CLIENT_IP
    # All three replicas applied the write with the same version.
    versions = {p.kvstore.read("k").version() for p in programs}
    assert len(versions) == 1
    values = {p.kvstore.read("k").value for p in programs}
    assert values == {b"v1"}


def test_replica_drops_stale_write():
    """The Figure 5 scenario: an old write arriving after a newer one is
    dropped by the sequence check."""
    switch, program = make_program()
    program.kvstore.insert_key("foo")
    # The replica has already applied seq 2 (value C).
    newer = NetChainHeader(op=OpCode.WRITE, key=b"foo", value=b"C", seq=2)
    send(program, switch, newer, switch.ip)
    # The delayed older write (seq 1, value B) must be dropped.
    older = NetChainHeader(op=OpCode.WRITE, key=b"foo", value=b"B", seq=1)
    _, action = send(program, switch, older, switch.ip)
    assert action is PipelineAction.DROP
    assert program.kvstore.read("foo").value == b"C"
    assert program.stats.writes_stale_dropped == 1


def test_replica_accepts_newer_write():
    switch, program = make_program()
    program.kvstore.insert_key("foo")
    first = NetChainHeader(op=OpCode.WRITE, key=b"foo", value=b"B", seq=1)
    send(program, switch, first, switch.ip)
    second = NetChainHeader(op=OpCode.WRITE, key=b"foo", value=b"C", seq=2)
    _, action = send(program, switch, second, switch.ip)
    assert action is PipelineAction.FORWARD
    assert program.kvstore.read("foo").value == b"C"


def test_session_number_orders_across_head_changes():
    """A new head with a higher session number wins even with a lower seq
    (Section 5.2: lexicographic (session, seq) ordering)."""
    switch, program = make_program()
    program.kvstore.insert_key("k")
    old_head_write = NetChainHeader(op=OpCode.WRITE, key=b"k", value=b"old",
                                    seq=100, session=0)
    send(program, switch, old_head_write, switch.ip)
    new_head_write = NetChainHeader(op=OpCode.WRITE, key=b"k", value=b"new",
                                    seq=1, session=1)
    _, action = send(program, switch, new_head_write, switch.ip)
    assert action is PipelineAction.FORWARD
    assert program.kvstore.read("k").value == b"new"
    # And a late write from the old head is now stale.
    late = NetChainHeader(op=OpCode.WRITE, key=b"k", value=b"late",
                          seq=101, session=0)
    _, action = send(program, switch, late, switch.ip)
    assert action is PipelineAction.DROP


def test_promoted_head_uses_configured_session():
    switch, program = make_program()
    program.kvstore.insert_key("k")
    program.set_head_session(0, 3)
    header = make_write("k", b"v", [switch.ip], vgroup=0)
    send(program, switch, header, switch.ip)
    assert header.session == 3
    assert program.kvstore.read("k").session == 3


def test_head_session_never_goes_below_stored_session():
    switch, program = make_program()
    loc = program.kvstore.insert_key("k")
    program.kvstore.write_loc(loc, b"x", seq=5, session=7)
    header = make_write("k", b"v", [switch.ip], vgroup=0)
    send(program, switch, header, switch.ip)
    assert header.session == 7
    assert header.seq == 6


# --------------------------------------------------------------------- #
# CAS and delete.
# --------------------------------------------------------------------- #

def test_cas_succeeds_when_expected_matches():
    switch, program = make_program()
    program.kvstore.insert_key("lock")
    header = make_cas("lock", b"", b"owner-1", [switch.ip])
    _, action = send(program, switch, header, switch.ip)
    assert action is PipelineAction.FORWARD
    assert header.op == OpCode.CAS_REPLY
    assert header.status == QueryStatus.OK
    assert program.kvstore.read("lock").value == b"owner-1"


def test_cas_fails_and_returns_current_value():
    switch, program = make_program()
    loc = program.kvstore.insert_key("lock")
    program.kvstore.write_loc(loc, b"owner-1", seq=1)
    header = make_cas("lock", b"", b"owner-2", [switch.ip])
    _, action = send(program, switch, header, switch.ip)
    assert action is PipelineAction.FORWARD
    assert header.status == QueryStatus.CAS_FAILED
    assert header.value == b"owner-1"
    assert program.kvstore.read("lock").value == b"owner-1"
    assert program.stats.cas_failures == 1


def test_cas_failure_does_not_propagate_down_chain():
    switches, programs = make_chain(2)
    for program in programs:
        loc = program.kvstore.insert_key("lock")
        program.kvstore.write_loc(loc, b"owner-1", seq=1)
    ips = chain_ips(switches)
    header = make_cas("lock", b"", b"owner-2", ips)
    packet = build_query_packet(CLIENT_IP, CLIENT_PORT, ips[0], header)
    action = programs[0].process(switches[0], packet, None)
    assert action is PipelineAction.FORWARD
    # The reply goes straight back to the client; the tail never sees it.
    assert packet.ip.dst_ip == CLIENT_IP
    assert programs[1].kvstore.read("lock").value == b"owner-1"


def test_owner_only_release_semantics():
    """Lock release is a CAS comparing the client id (Section 8.5)."""
    switch, program = make_program()
    program.kvstore.insert_key("lock")
    send(program, switch, make_cas("lock", b"", b"client-A", [switch.ip]), switch.ip)
    # Client B cannot release A's lock.
    release_b = make_cas("lock", b"client-B", b"", [switch.ip])
    send(program, switch, release_b, switch.ip)
    assert release_b.status == QueryStatus.CAS_FAILED
    assert program.kvstore.read("lock").value == b"client-A"
    # Client A can.
    release_a = make_cas("lock", b"client-A", b"", [switch.ip])
    send(program, switch, release_a, switch.ip)
    assert release_a.status == QueryStatus.OK
    assert program.kvstore.read("lock").value == b""


def test_delete_invalidates_item():
    switch, program = make_program()
    loc = program.kvstore.insert_key("k")
    program.kvstore.write_loc(loc, b"v", seq=1)
    header = make_delete("k", [switch.ip])
    _, action = send(program, switch, header, switch.ip)
    assert action is PipelineAction.FORWARD
    assert not program.kvstore.read("k").valid
    # A subsequent read reports the key as missing.
    read = make_read("k", [switch.ip])
    send(program, switch, read, switch.ip)
    assert read.status == QueryStatus.KEY_NOT_FOUND


# --------------------------------------------------------------------- #
# Chain routing rewrites.
# --------------------------------------------------------------------- #

def test_write_rewrites_destination_to_next_hop():
    switches, programs = make_chain(3)
    for program in programs:
        program.kvstore.insert_key("k")
    ips = chain_ips(switches)
    header = make_write("k", b"v", ips)
    packet = build_query_packet(CLIENT_IP, CLIENT_PORT, ips[0], header)
    programs[0].process(switches[0], packet, None)
    assert packet.ip.dst_ip == ips[1]
    assert header.chain == [ips[2]]
    programs[1].process(switches[1], packet, None)
    assert packet.ip.dst_ip == ips[2]
    assert header.chain == []


def test_reply_addressed_to_switch_is_dropped():
    switch, program = make_program()
    header = make_read("k", [switch.ip])
    header.op = OpCode.READ_REPLY
    packet = build_query_packet(CLIENT_IP, CLIENT_PORT, switch.ip, header)
    assert program.process(switch, packet, None) is PipelineAction.DROP


def test_inactive_program_drops_queries():
    switch, program = make_program()
    program.kvstore.insert_key("k")
    program.active = False
    header = make_read("k", [switch.ip])
    _, action = send(program, switch, header, switch.ip)
    assert action is PipelineAction.DROP


def test_transit_switch_without_store_misses_politely():
    switch = Switch(Simulator(), "transit", "10.0.0.9", config=SwitchConfig())
    program = NetChainSwitchProgram(switch, kvstore=None, create_store=False)
    header = make_read("k", [switch.ip])
    packet = build_query_packet(CLIENT_IP, CLIENT_PORT, switch.ip, header)
    action = program.process(switch, packet, None)
    assert action is PipelineAction.FORWARD
    assert header.status == QueryStatus.KEY_NOT_FOUND




# --------------------------------------------------------------------- #
# Failure-handling rules (Algorithms 2 and 3).
# --------------------------------------------------------------------- #

def test_failover_rule_skips_failed_middle_switch():
    switch, program = make_program(ip="10.0.0.1")
    failed_ip, tail_ip = "10.0.0.2", "10.0.0.3"
    program.add_rule(RedirectRule(match_dst_ip=failed_ip, kind="failover", priority=10))
    header = NetChainHeader(op=OpCode.WRITE, key=b"k", value=b"v", seq=3,
                            chain=[tail_ip])
    packet = build_query_packet(CLIENT_IP, CLIENT_PORT, failed_ip, header)
    action = program.process(switch, packet, None)
    assert action is PipelineAction.FORWARD
    assert packet.ip.dst_ip == tail_ip
    assert header.chain == []
    assert program.stats.redirects == 1


def test_failover_rule_replies_when_failed_switch_was_last_hop():
    switch, program = make_program(ip="10.0.0.1")
    failed_ip = "10.0.0.2"
    program.add_rule(RedirectRule(match_dst_ip=failed_ip, kind="failover", priority=10))
    header = NetChainHeader(op=OpCode.WRITE, key=b"k", value=b"v", seq=3,
                            chain=[])
    packet = build_query_packet(CLIENT_IP, CLIENT_PORT, failed_ip, header)
    action = program.process(switch, packet, None)
    assert action is PipelineAction.FORWARD
    assert header.op == OpCode.WRITE_REPLY
    assert packet.ip.dst_ip == CLIENT_IP


def test_failover_redirect_to_self_processes_locally():
    """The paper's 'N overlaps with S2' case: the rule points the packet at
    the intercepting switch itself, which must then process it."""
    switch, program = make_program(ip="10.0.0.1")
    program.kvstore.insert_key("k")
    failed_ip = "10.0.0.9"
    program.add_rule(RedirectRule(match_dst_ip=failed_ip, kind="failover", priority=10))
    header = NetChainHeader(op=OpCode.WRITE, key=b"k", value=b"v", seq=0,
                            chain=[switch.ip, "10.0.0.3"])
    packet = build_query_packet(CLIENT_IP, CLIENT_PORT, failed_ip, header)
    action = program.process(switch, packet, None)
    assert action is PipelineAction.FORWARD
    # The switch acted as (new) head and forwarded to the next hop.
    assert program.kvstore.read("k").value == b"v"
    assert packet.ip.dst_ip == "10.0.0.3"


def test_forward_rule_overrides_failover_by_priority():
    switch, program = make_program(ip="10.0.0.1")
    failed_ip, new_ip = "10.0.0.2", "10.0.0.4"
    program.add_rule(RedirectRule(match_dst_ip=failed_ip, kind="failover", priority=10))
    program.add_rule(RedirectRule(match_dst_ip=failed_ip, kind="forward", priority=20,
                                  new_dst_ip=new_ip))
    header = NetChainHeader(op=OpCode.WRITE, key=b"k", value=b"v", seq=1,
                            chain=["10.0.0.3"])
    packet = build_query_packet(CLIENT_IP, CLIENT_PORT, failed_ip, header)
    program.process(switch, packet, None)
    assert packet.ip.dst_ip == new_ip
    assert header.chain == ["10.0.0.3"]  # forward rules do not consume chain hops


def test_drop_rule_scoped_to_virtual_group_and_writes():
    switch, program = make_program(ip="10.0.0.1")
    failed_ip = "10.0.0.2"
    program.add_rule(RedirectRule(match_dst_ip=failed_ip, kind="failover", priority=10))
    program.add_rule(RedirectRule(match_dst_ip=failed_ip, kind="drop", priority=30,
                                  vgroups={7}, write_only=True))
    # A write in vgroup 7 is dropped.
    write = NetChainHeader(op=OpCode.WRITE, key=b"k", value=b"v", seq=1,
                           chain=["10.0.0.3"], vgroup=7)
    packet = build_query_packet(CLIENT_IP, CLIENT_PORT, failed_ip, write)
    assert program.process(switch, packet, None) is PipelineAction.DROP
    # A read in vgroup 7 falls through to the failover rule.
    read = NetChainHeader(op=OpCode.READ, key=b"k", chain=["10.0.0.3"],
                          vgroup=7)
    packet = build_query_packet(CLIENT_IP, CLIENT_PORT, failed_ip, read)
    assert program.process(switch, packet, None) is PipelineAction.FORWARD
    # A write in another vgroup is unaffected by the drop rule.
    other = NetChainHeader(op=OpCode.WRITE, key=b"k", value=b"v", seq=1,
                           chain=["10.0.0.3"], vgroup=8)
    packet = build_query_packet(CLIENT_IP, CLIENT_PORT, failed_ip, other)
    assert program.process(switch, packet, None) is PipelineAction.FORWARD


def test_rule_removal():
    switch, program = make_program()
    rule_a = program.add_rule(RedirectRule(match_dst_ip="10.0.0.2", kind="failover"))
    program.add_rule(RedirectRule(match_dst_ip="10.0.0.2", kind="drop", priority=5))
    program.add_rule(RedirectRule(match_dst_ip="10.0.0.3", kind="drop", priority=5))
    program.remove_rule(rule_a)
    assert len(program.rules) == 2
    program.remove_rule(rule_a)  # already gone; no error
    assert len(program.rules) == 2


def test_multiple_failures_chained_redirects():
    """Two consecutive failed switches are skipped in one pass."""
    switch, program = make_program(ip="10.0.0.1")
    failed_1, failed_2, tail = "10.0.0.2", "10.0.0.3", "10.0.0.4"
    program.add_rule(RedirectRule(match_dst_ip=failed_1, kind="failover", priority=10))
    program.add_rule(RedirectRule(match_dst_ip=failed_2, kind="failover", priority=10))
    header = NetChainHeader(op=OpCode.WRITE, key=b"k", value=b"v", seq=2,
                            chain=[failed_2, tail])
    packet = build_query_packet(CLIENT_IP, CLIENT_PORT, failed_1, header)
    action = program.process(switch, packet, None)
    assert action is PipelineAction.FORWARD
    assert packet.ip.dst_ip == tail
    assert header.chain == []


# --------------------------------------------------------------------- #
# Algorithm 1 as a table: one pass of one query on one switch.
# --------------------------------------------------------------------- #

#: The switch under test, the chain hops after it and the client.
ME, NEXT, LAST, CLIENT = "10.0.0.2", "10.0.0.3", "10.0.0.4", CLIENT_IP
TABLE_VGROUP = 7
#: Role -> the chain hops the header still carries (a read's run back
#: toward the head): a head forwards down two, a replica one, a tail none.
ROLE_CHAIN = {"head": [NEXT, LAST], "replica": [LAST], "tail": []}
#: Stored row of key ``k`` -> ``(value, seq, session, valid)``.
ROWS = {"valid": (b"old", 5, 1, True), "deleted": (b"", 5, 1, False), "absent": None}
#: Header version -> ``(session, seq)``; the stored row's is (1, 5).
VERSIONS = {"unsequenced": (0, 0), "newer": (1, 6), "equal": (1, 5), "older": (1, 4)}
#: Op -> (opcode, header value, CAS expected value).
OPS = {"read": (OpCode.READ, b"", None), "write": (OpCode.WRITE, b"new", None),
       "cas-hit": (OpCode.CAS, b"new", b"old"), "cas-miss": (OpCode.CAS, b"new", b"other"),
       "delete": (OpCode.DELETE, b"", None), "clean": (OpCode.CLEAN, b"", None)}
FORWARD, DROP = PipelineAction.FORWARD, PipelineAction.DROP


def one_pass(op, role, row, version, guard):
    """Run one query through ``process`` on a fresh switch that heads its
    virtual group under session 2 at epoch 3, with ``guard`` installed."""
    switch, program = make_program(ip=ME, slots=8)
    program.set_head_session(TABLE_VGROUP, 2)
    store = program.kvstore
    if ROWS[row] is not None:
        store.write_loc(store.insert_key("k"), *ROWS[row])
    code, value, expected = OPS[op]
    session, seq = VERSIONS[version]
    header = NetChainHeader(code, b"k", value, seq, session, list(ROLE_CHAIN[role]),
                            TABLE_VGROUP, 3, cas_expected=expected)
    if guard == "stale-epoch":
        program.set_vgroup_epoch(TABLE_VGROUP, 4)
    elif guard == "frozen":
        program.freeze_vgroup_writes(TABLE_VGROUP)
    elif guard == "inactive":
        program.active = False
    elif guard in ("dirty-gate", "clean-gate"):
        program.set_read_gate(b"k", (1, 4) if guard == "dirty-gate" else (1, 5))
    packet = build_query_packet(CLIENT, CLIENT_PORT, ME, header)
    action = program.process(switch, packet, None)
    return switch, program, packet, action


#: ``(op, role, stored row, header version, guard)`` -> ``(action, reply
#: (op, status) or None, header (session, seq, value, chain), payload_bytes,
#: destination)`` and ``(stored row after, nonzero ProgramStats, read gate
#: after)``, as the program answered when the table was written.
ALGORITHM_1 = [
    (("read", "head", "valid", "unsequenced", "none"),
     (FORWARD, ("READ_REPLY", "OK"), (1, 5, b"old", []), 44, CLIENT),
     ((b"old", 5, 1, True), {"reads": 1, "replies_sent": 1}, None)),
    (("read", "head", "deleted", "unsequenced", "none"),
     (FORWARD, ("READ_REPLY", "KEY_NOT_FOUND"), (0, 0, b"", []), 41, CLIENT),
     ((b"", 5, 1, False), {"reads": 1, "replies_sent": 1}, None)),
    (("read", "head", "absent", "unsequenced", "none"),
     (FORWARD, ("READ_REPLY", "KEY_NOT_FOUND"), (0, 0, b"", []), 41, CLIENT),
     (None, {"replies_sent": 1, "misses": 1}, None)),
    (("read", "replica", "valid", "unsequenced", "none"),
     (FORWARD, ("READ_REPLY", "OK"), (1, 5, b"old", []), 44, CLIENT),
     ((b"old", 5, 1, True), {"reads": 1, "replies_sent": 1}, None)),
    (("read", "replica", "deleted", "unsequenced", "none"),
     (FORWARD, ("READ_REPLY", "KEY_NOT_FOUND"), (0, 0, b"", []), 41, CLIENT),
     ((b"", 5, 1, False), {"reads": 1, "replies_sent": 1}, None)),
    (("read", "replica", "absent", "unsequenced", "none"),
     (FORWARD, ("READ_REPLY", "KEY_NOT_FOUND"), (0, 0, b"", []), 41, CLIENT),
     (None, {"replies_sent": 1, "misses": 1}, None)),
    (("read", "tail", "valid", "unsequenced", "none"),
     (FORWARD, ("READ_REPLY", "OK"), (1, 5, b"old", []), 44, CLIENT),
     ((b"old", 5, 1, True), {"reads": 1, "replies_sent": 1}, None)),
    (("read", "tail", "deleted", "unsequenced", "none"),
     (FORWARD, ("READ_REPLY", "KEY_NOT_FOUND"), (0, 0, b"", []), 41, CLIENT),
     ((b"", 5, 1, False), {"reads": 1, "replies_sent": 1}, None)),
    (("read", "tail", "absent", "unsequenced", "none"),
     (FORWARD, ("READ_REPLY", "KEY_NOT_FOUND"), (0, 0, b"", []), 41, CLIENT),
     (None, {"replies_sent": 1, "misses": 1}, None)),
    (("write", "replica", "valid", "unsequenced", "none"),
     (FORWARD, None, (2, 6, b"new", []), 44, LAST),
     ((b"new", 6, 2, True), {"writes_applied": 1}, None)),
    (("write", "replica", "valid", "newer", "none"),
     (FORWARD, None, (1, 6, b"new", []), 44, LAST),
     ((b"new", 6, 1, True), {"writes_applied": 1}, None)),
    (("write", "replica", "valid", "equal", "none"),
     (DROP, None, (1, 5, b"new", [LAST]), 48, ME),
     ((b"old", 5, 1, True), {"writes_stale_dropped": 1}, None)),
    (("write", "replica", "valid", "older", "none"),
     (DROP, None, (1, 4, b"new", [LAST]), 48, ME),
     ((b"old", 5, 1, True), {"writes_stale_dropped": 1}, None)),
    (("write", "replica", "deleted", "unsequenced", "none"),
     (FORWARD, None, (2, 6, b"new", []), 44, LAST),
     ((b"new", 6, 2, True), {"writes_applied": 1}, None)),
    (("write", "replica", "deleted", "newer", "none"),
     (FORWARD, None, (1, 6, b"new", []), 44, LAST),
     ((b"new", 6, 1, True), {"writes_applied": 1}, None)),
    (("write", "replica", "deleted", "equal", "none"),
     (DROP, None, (1, 5, b"new", [LAST]), 48, ME),
     ((b"", 5, 1, False), {"writes_stale_dropped": 1}, None)),
    (("write", "replica", "deleted", "older", "none"),
     (DROP, None, (1, 4, b"new", [LAST]), 48, ME),
     ((b"", 5, 1, False), {"writes_stale_dropped": 1}, None)),
    (("write", "replica", "absent", "unsequenced", "none"),
     (FORWARD, ("WRITE_REPLY", "KEY_NOT_FOUND"), (0, 0, b"new", []), 44, CLIENT),
     (None, {"replies_sent": 1, "misses": 1}, None)),
    (("write", "replica", "absent", "newer", "none"),
     (FORWARD, ("WRITE_REPLY", "KEY_NOT_FOUND"), (1, 6, b"new", []), 44, CLIENT),
     (None, {"replies_sent": 1, "misses": 1}, None)),
    (("write", "replica", "absent", "equal", "none"),
     (FORWARD, ("WRITE_REPLY", "KEY_NOT_FOUND"), (1, 5, b"new", []), 44, CLIENT),
     (None, {"replies_sent": 1, "misses": 1}, None)),
    (("write", "replica", "absent", "older", "none"),
     (FORWARD, ("WRITE_REPLY", "KEY_NOT_FOUND"), (1, 4, b"new", []), 44, CLIENT),
     (None, {"replies_sent": 1, "misses": 1}, None)),
    (("write", "head", "valid", "unsequenced", "none"),
     (FORWARD, None, (2, 6, b"new", [LAST]), 48, NEXT),
     ((b"new", 6, 2, True), {"writes_applied": 1}, None)),
    (("write", "head", "valid", "newer", "none"),
     (FORWARD, None, (1, 6, b"new", [LAST]), 48, NEXT),
     ((b"new", 6, 1, True), {"writes_applied": 1}, None)),
    (("write", "tail", "valid", "unsequenced", "none"),
     (FORWARD, ("WRITE_REPLY", "OK"), (2, 6, b"new", []), 44, CLIENT),
     ((b"new", 6, 2, True), {"writes_applied": 1, "replies_sent": 1}, None)),
    (("write", "tail", "valid", "newer", "none"),
     (FORWARD, ("WRITE_REPLY", "OK"), (1, 6, b"new", []), 44, CLIENT),
     ((b"new", 6, 1, True), {"writes_applied": 1, "replies_sent": 1}, None)),
    (("cas-hit", "head", "valid", "unsequenced", "none"),
     (FORWARD, None, (2, 6, b"new", [LAST]), 51, NEXT),
     ((b"new", 6, 2, True), {"writes_applied": 1}, None)),
    (("cas-hit", "replica", "valid", "newer", "none"),
     (FORWARD, None, (1, 6, b"new", []), 47, LAST),
     ((b"new", 6, 1, True), {"writes_applied": 1}, None)),
    (("cas-hit", "tail", "valid", "newer", "none"),
     (FORWARD, ("CAS_REPLY", "OK"), (1, 6, b"new", []), 47, CLIENT),
     ((b"new", 6, 1, True), {"writes_applied": 1, "replies_sent": 1}, None)),
    (("cas-miss", "head", "valid", "unsequenced", "none"),
     (FORWARD, ("CAS_REPLY", "CAS_FAILED"), (2, 6, b"old", []), 49, CLIENT),
     ((b"old", 5, 1, True), {"cas_failures": 1, "replies_sent": 1}, None)),
    (("cas-miss", "head", "deleted", "unsequenced", "none"),
     (FORWARD, ("CAS_REPLY", "CAS_FAILED"), (2, 6, b"", []), 46, CLIENT),
     ((b"", 5, 1, False), {"cas_failures": 1, "replies_sent": 1}, None)),
    (("cas-miss", "head", "absent", "unsequenced", "none"),
     (FORWARD, ("CAS_REPLY", "KEY_NOT_FOUND"), (0, 0, b"new", []), 49, CLIENT),
     (None, {"replies_sent": 1, "misses": 1}, None)),
    (("delete", "head", "valid", "unsequenced", "none"),
     (FORWARD, None, (2, 6, b"", [LAST]), 45, NEXT),
     ((b"", 6, 2, False), {"writes_applied": 1}, None)),
    (("delete", "replica", "valid", "newer", "none"),
     (FORWARD, None, (1, 6, b"", []), 41, LAST),
     ((b"", 6, 1, False), {"writes_applied": 1}, None)),
    (("delete", "tail", "valid", "newer", "none"),
     (FORWARD, ("DELETE_REPLY", "OK"), (1, 6, b"", []), 41, CLIENT),
     ((b"", 6, 1, False), {"writes_applied": 1, "replies_sent": 1}, None)),
    (("delete", "tail", "deleted", "older", "none"),
     (DROP, None, (1, 4, b"", []), 41, ME),
     ((b"", 5, 1, False), {"writes_stale_dropped": 1}, None)),
    (("delete", "head", "absent", "unsequenced", "none"),
     (FORWARD, ("DELETE_REPLY", "KEY_NOT_FOUND"), (0, 0, b"", []), 41, CLIENT),
     (None, {"replies_sent": 1, "misses": 1}, None)),
    (("clean", "tail", "valid", "newer", "clean-gate"),
     (DROP, None, (1, 6, b"", []), 41, ME),
     ((b"old", 5, 1, True), {}, (1, 6))),
    (("clean", "tail", "valid", "equal", "clean-gate"),
     (DROP, None, (1, 5, b"", []), 41, ME),
     ((b"old", 5, 1, True), {}, (1, 5))),
    (("clean", "tail", "valid", "older", "clean-gate"),
     (DROP, None, (1, 4, b"", []), 41, ME),
     ((b"old", 5, 1, True), {}, (1, 5))),
    (("clean", "tail", "valid", "newer", "none"),
     (DROP, None, (1, 6, b"", []), 41, ME),
     ((b"old", 5, 1, True), {}, None)),
    (("read", "head", "valid", "unsequenced", "stale-epoch"),
     (DROP, None, (0, 0, b"", [NEXT, LAST]), 49, ME),
     ((b"old", 5, 1, True), {"dropped_stale_epoch": 1}, None)),
    (("write", "head", "valid", "unsequenced", "stale-epoch"),
     (DROP, None, (0, 0, b"new", [NEXT, LAST]), 52, ME),
     ((b"old", 5, 1, True), {"dropped_stale_epoch": 1}, None)),
    (("read", "head", "valid", "unsequenced", "frozen"),
     (FORWARD, ("READ_REPLY", "OK"), (1, 5, b"old", []), 44, CLIENT),
     ((b"old", 5, 1, True), {"reads": 1, "replies_sent": 1}, None)),
    (("write", "head", "valid", "unsequenced", "frozen"),
     (DROP, None, (0, 0, b"new", [NEXT, LAST]), 52, ME),
     ((b"old", 5, 1, True), {"dropped_frozen": 1}, None)),
    (("read", "head", "valid", "unsequenced", "inactive"),
     (DROP, None, (0, 0, b"", [NEXT, LAST]), 49, ME),
     ((b"old", 5, 1, True), {}, None)),
    (("write", "head", "valid", "unsequenced", "inactive"),
     (DROP, None, (0, 0, b"new", [NEXT, LAST]), 52, ME),
     ((b"old", 5, 1, True), {}, None)),
    (("read", "replica", "valid", "unsequenced", "dirty-gate"),
     (FORWARD, None, (0, 0, b"", []), 41, LAST),
     ((b"old", 5, 1, True), {"reads": 1, "reads_forwarded_dirty": 1}, (1, 4))),
    (("read", "replica", "valid", "unsequenced", "clean-gate"),
     (FORWARD, ("READ_REPLY", "OK"), (1, 5, b"old", []), 44, CLIENT),
     ((b"old", 5, 1, True), {"reads": 1, "replies_sent": 1}, (1, 5))),
    (("read", "tail", "valid", "unsequenced", "dirty-gate"),
     (FORWARD, ("READ_REPLY", "OK"), (1, 5, b"old", []), 44, CLIENT),
     ((b"old", 5, 1, True), {"reads": 1, "replies_sent": 1}, (1, 4))),
    (("read", "tail", "valid", "unsequenced", "clean-gate"),
     (FORWARD, ("READ_REPLY", "OK"), (1, 5, b"old", []), 44, CLIENT),
     ((b"old", 5, 1, True), {"reads": 1, "replies_sent": 1}, (1, 5))),
]


@pytest.mark.parametrize("case, packet_after, state_after", ALGORITHM_1,
                         ids=["-".join(case) for case, _packet, _state in ALGORITHM_1])
def test_algorithm_1_table(case, packet_after, state_after):
    """Each query kind, chain role, stored row, header version and guard:
    what the pass decides, the packet it leaves and the state it keeps."""
    _switch, program, packet, action = one_pass(*case)
    header = packet.payload
    reply = (header.op.name, header.status.name) if header.is_reply() else None
    assert (action, reply, (header.session, header.seq, header.value, header.chain),
            packet.payload_bytes, packet.ip.dst_ip) == packet_after
    item = program.kvstore.read("k")
    row, stats, gate = state_after
    assert (None if item is None else (item.value, item.seq, item.session, item.valid)) == row
    assert asdict(program.stats) == asdict(ProgramStats(**stats))
    assert program._read_gate.get(b"k") == gate
