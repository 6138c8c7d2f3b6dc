"""Unit tests for the fault-injection layer: link faults, partitions,
gray failures, schedules, and their determinism guarantees.

``PYTHONPATH=src:. python tests/test_faults_models.py`` runs the fused-hop
grid with each planted give-back bug and prints ``fused-hop grid: planted
give-back bugs killed K of N``."""

from __future__ import annotations

import functools
import random

import pytest

from repro.core.detector import DetectorConfig, FailureDetector
from repro.netsim import link as link_module
from repro.netsim import routing as routing_module
from repro.netsim.faults import FaultInjector, FaultSchedule, LinkFaultModel, derive_rng
from repro.netsim.host import HostConfig
from repro.netsim.link import Link, LinkConfig
from repro.netsim.packet import Packet
from repro.netsim.routing import install_shortest_path_routes
from repro.netsim.switch import PipelineAction, PipelineProgram, SwitchConfig
from repro.netsim.tcp import TcpConnection
from repro.netsim.topology import build_line, build_testbed
from tests.conftest import make_cluster


def make_topology():
    topo = build_testbed(host_config=HostConfig(stack_delay=0.0, nic_pps=None),
                         link_config=LinkConfig(bandwidth_bps=None))
    install_shortest_path_routes(topo)
    return topo


# --------------------------------------------------------------------- #
# Link down/up (satellite: downed links count drops instead of raising
# or silently delivering).
# --------------------------------------------------------------------- #

def test_downed_link_counts_drops_instead_of_delivering():
    topo = make_topology()
    host = topo.hosts["H0"]
    injector = FaultInjector(topo)
    injector.link_down("H0", "S0")
    host.send_udp(topo.switches["S0"].ip, 9999, payload="x", payload_bytes=10)
    topo.run(until=0.01)
    link = injector.link("H0", "S0")
    assert link.stats.dropped_down == 1
    assert link.stats.delivered == 0
    assert link.dropped == 1
    # Bringing it back up restores delivery.
    injector.link_up("H0", "S0")
    host.send_udp(topo.switches["S0"].ip, 9999, payload="x", payload_bytes=10)
    topo.run(until=0.02)
    assert link.stats.delivered == 1
    assert link.stats.dropped_down == 1


def test_link_fault_model_counts_loss_and_corruption_separately():
    topo = make_topology()
    host = topo.hosts["H0"]
    injector = FaultInjector(topo, seed=3)
    injector.set_link_faults("H0", "S0", loss_rate=0.5)
    for _ in range(60):
        host.send_udp(topo.switches["S0"].ip, 9999, payload="x", payload_bytes=10)
    topo.run(until=0.01)
    link = injector.link("H0", "S0")
    assert link.stats.dropped_loss > 0
    assert link.stats.delivered > 0
    assert link.stats.dropped_corrupt == 0
    injector.set_link_faults("H0", "S0", corrupt_rate=0.5)
    for _ in range(60):
        host.send_udp(topo.switches["S0"].ip, 9999, payload="x", payload_bytes=10)
    topo.run(until=0.02)
    assert link.stats.dropped_corrupt > 0
    injector.clear_link_faults("H0", "S0")
    assert link.faults is None


# --------------------------------------------------------------------- #
# Races: a fault that lands while a packet is between two of its hops.
# --------------------------------------------------------------------- #

def race_topology():
    """H0_0 -> S0 -> H0_1, queue-free hosts with a 10 us stack: sent at 0,
    TX at 10 us, S0 forwards at 10.7 us, arrival at 10.9 us, dispatch at
    20.9 us."""
    topo = build_line(1, hosts_at={0: 2},
                      host_config=HostConfig(stack_delay=10e-6, nic_pps=None),
                      link_config=LinkConfig(bandwidth_bps=None))
    install_shortest_path_routes(topo)
    return topo


#: The receiver's arrival instant, summed in the simulator's own order.
ARRIVAL = 10e-6 + 200e-9 + 0.5e-6 + 200e-9


def _down(inj):
    inj.link_down("H0_0", "S0")


def _up(inj):
    inj.link_up("H0_0", "S0")


def _lossy(inj):
    inj.set_link_faults("H0_0", "S0", loss_rate=1.0)


def _clean(inj):
    inj.clear_link_faults("H0_0", "S0")


def _fail(inj):
    inj.fail_host("H0_1")


def _recover(inj):
    inj.recover_host("H0_1")


def _fail_s0(inj):
    inj.fail_switch("S0")


def _recover_s0(inj):
    inj.recover_switch("S0")


@pytest.mark.parametrize("actions, delivered, sender_link", [
    ([(5e-6, _down)], 0, {"dropped_down": 1, "delivered": 0}),
    ([(5e-6, _down), (7e-6, _up)], 1, {"dropped_down": 0, "delivered": 1}),
    ([(10.1e-6, _down)], 1, {"dropped_down": 0, "delivered": 1}),
    ([(10e-6, _down)], 0, {"dropped_down": 1, "delivered": 0}),
    ([(5e-6, _lossy)], 0, {"dropped_loss": 1, "delivered": 0}),
    ([(5e-6, _lossy), (7e-6, _clean)], 1, {"dropped_loss": 0, "delivered": 1}),
    ([(10.8e-6, _fail)], 0, {}),
    ([(ARRIVAL, _fail)], 0, {}),
    ([(15e-6, _fail)], 0, {}),
    ([(10.8e-6, _fail), (10.85e-6, _recover)], 1, {}),
    ([(15e-6, _fail), (18e-6, _recover)], 1, {}),
    ([(5e-6, _fail), (10.8e-6, _recover)], 1, {}),
    ([(5e-6, _fail), (ARRIVAL, _recover)], 1, {}),
    ([(5e-6, _fail), (15e-6, _recover)], 0, {}),
    ([(5e-6, _fail_s0), (7e-6, _down)], 0, {"dropped_down": 1, "delivered": 0}),
    ([(5e-6, _fail_s0), (6e-6, _recover_s0), (7e-6, _down)], 0,
     {"dropped_down": 1, "delivered": 0}),
    ([(5e-6, _fail_s0), (6e-6, _recover_s0)], 1, {"dropped_down": 0, "delivered": 1}),
], ids=["down-before-tx", "down-up-before-tx", "down-after-tx", "down-at-tx",
        "loss-before-tx", "loss-cleared-before-tx", "fail-before-arrival",
        "fail-at-arrival", "fail-after-arrival", "fail-recover-before-arrival",
        "fail-recover-after-arrival", "recover-before-arrival",
        "recover-at-arrival", "recover-after-arrival", "switch-fail-then-down-before-tx",
        "switch-fail-recover-then-down-before-tx", "switch-fail-recover-before-tx"])
def test_fault_between_two_hops_of_a_packet_gives_the_hop_by_hop_verdict(
        actions, delivered, sender_link):
    """Each fault is scheduled before the packet is sent, so at an equal
    instant it runs first.  A link fault decides at the sender's TX time,
    a switch fault at S0's arrival, a host fault at the receiver's arrival
    and again at its dispatch -- whether or not the simulator spends an
    event on those hops, and whatever fault gave a skipped hop back first."""
    topo = race_topology()
    injector = FaultInjector(topo, seed=5)
    for at, action in actions:
        topo.sim.schedule(at, action, injector)
    received = []
    topo.hosts["H0_1"].bind(7000, received.append)
    topo.hosts["H0_0"].send_udp(topo.hosts["H0_1"].ip, 7000, "x", 10)
    topo.run(until=1e-3)
    assert len(received) == delivered
    counters = injector.drop_report()["H0_0-S0"]
    assert {name: counters[name] for name in sender_link} == sender_link


#: H0_0 -> S0 -> S1 -> H1_0 on queue-free switches: S0's pass follows a
#: host TX, S1's a switch-to-switch hop.  Each instant is summed in the
#: simulator's own order (TX at 10 us, 200 ns links, 0.5 us passes).
S0_ARRIVAL = 10e-6 + 200e-9
S0_PASS = S0_ARRIVAL + 0.5e-6
S1_ARRIVAL = S0_PASS + 200e-9
ARRIVAL_AT = {"S0": S0_ARRIVAL, "S1": S1_ARRIVAL}


class Recorder(PipelineProgram):
    """Records the label of every packet its switch's pipeline runs on."""

    def __init__(self):
        self.seen = []

    def process(self, switch, packet, in_port):
        self.seen.append(packet.payload)
        return PipelineAction.CONTINUE


#: Kind -> (switch config, whether each switch runs a :class:`Recorder`).
#: ``queue-free`` and ``queued`` (a 0.25 us service time, half a pass, which
#: admits a packet at its pass, as of its arrival) record every pass; a
#: ``transparent`` switch has no rate limit and no program, so a TCP segment
#: between two of its hosts is carried past it (``link.carry``), with no
#: event and no packet; a UDP packet's pass is an event there too.
SWITCH_KINDS = {"queue-free": (None, True),
                "queued": (SwitchConfig(capacity_pps=4e6), True),
                "transparent": (None, False)}

#: Both kinds of switch that spend an event on their pass.
QUEUES = pytest.mark.parametrize("switch_kind", ["queue-free", "queued"])


def line_topology(switch_kind):
    """H0_0, H0_1 -> S0 -> S1 <- H1_0 on ``switch_kind`` switches, queue-free
    hosts with a 10 us stack, and each switch's recorder (installed only
    where the kind runs one)."""
    switch_config, recorded = SWITCH_KINDS[switch_kind]
    topo = build_line(2, hosts_at={0: 2, 1: 1},
                      host_config=HostConfig(stack_delay=10e-6, nic_pps=None),
                      link_config=LinkConfig(bandwidth_bps=None),
                      switch_config=switch_config)
    install_shortest_path_routes(topo)
    recorders = {}
    for name, switch in topo.switches.items():
        recorders[name] = Recorder()
        if recorded:
            switch.install_program(recorders[name])
    return topo, recorders


def switch_race(actions, labels=("x",), senders=("H0_0",), switch_kind="queue-free",
                receiver="H1_0", detail=False, setup=(), sent=0.0):
    """Send one packet per ``(sender, label)`` to ``receiver`` at ``sent``,
    after each ``setup(topology)`` has run and with ``actions`` -- ``(at,
    action(topology))`` pairs -- scheduled first; a later ``sent`` follows a
    ``warm-up`` packet from the first sender at time 0, which leaves each
    switch on the path its next hop resolved.  Returns the topology, what
    the receiver got -- each packet's label, or with ``detail`` its label,
    dispatch time, TTL and pipeline passes -- and each switch's recorder."""
    topo, recorders = line_topology(switch_kind)
    for prepare in setup:
        prepare(topo)
    for at, action in actions:
        topo.sim.schedule(at, action, topo)
    received = []
    topo.hosts[receiver].bind(7000, lambda packet: received.append(
        (packet.payload, topo.sim.now, packet.ip.ttl, packet.pipeline_passes) if detail
        else packet.payload))

    def send():
        for sender, label in zip(senders, labels, strict=True):
            topo.hosts[sender].send_udp(topo.hosts[receiver].ip, 7000, label, 10)

    if sent:
        topo.hosts[senders[0]].send_udp(topo.hosts[receiver].ip, 7000, "warm-up", 10)
        topo.sim.schedule(sent, send)
    else:
        send()
    topo.run(until=1e-3)
    return topo, received, recorders


def _fail(name):
    return lambda topo: topo.switches[name].fail()


def _recover(name):
    return lambda topo: topo.switches[name].recover_device()


@QUEUES
@pytest.mark.parametrize("target", ["S0", "S1"], ids=["host-tx-fused", "switch-to-switch"])
@pytest.mark.parametrize("offsets, delivered, passes", [
    ([(-0.1e-6, "fail")], 0, 0),
    ([(0.0, "fail")], 0, 0),
    ([(0.1e-6, "fail")], 0, 0),
    ([(0.6e-6, "fail")], 1, 1),
    ([(-0.2e-6, "fail"), (-0.1e-6, "recover")], 1, 1),
    ([(-0.2e-6, "fail"), (0.0, "recover")], 1, 1),
    ([(-0.2e-6, "fail"), (0.1e-6, "recover")], 0, 0),
    ([(0.1e-6, "fail"), (0.2e-6, "recover")], 1, 1),
], ids=["fail-before-arrival", "fail-at-arrival", "fail-before-pass", "fail-after-pass",
        "fail-recover-before-arrival", "recover-at-arrival", "recover-after-arrival",
        "fail-recover-before-pass"])
def test_a_switch_fault_around_a_pass_gives_the_hop_by_hop_verdict(
        target, offsets, delivered, passes, switch_kind):
    """A switch decides at arrival whether it takes a packet, and again at
    its pipeline pass whether it is still up -- whether or not the
    simulator spends an event on the arrival."""
    arrival = ARRIVAL_AT[target]
    actions = [(arrival + offset, _fail(target) if kind == "fail" else _recover(target))
               for offset, kind in offsets]
    topo, received, recorders = switch_race(actions, switch_kind=switch_kind)
    switch = topo.switches[target]
    assert len(received) == delivered
    assert switch.pipeline_passes == passes
    assert len(recorders[target].seen) == passes
    assert switch.packets_received == 1
    assert switch.packets_dropped == 1 - passes


@QUEUES
@pytest.mark.parametrize("target", ["S0", "S1"], ids=["host-tx-fused", "switch-to-switch"])
@pytest.mark.parametrize("how", ["set_loss_rate", "assignment"])
@pytest.mark.parametrize("offsets, delivered", [
    ([(-0.1e-6, 1.0)], 0),
    ([(0.0, 1.0)], 0),
    ([(0.1e-6, 1.0)], 1),
    ([(-0.2e-6, 1.0), (-0.1e-6, 0.0)], 1),
], ids=["raised-before-arrival", "raised-at-arrival", "raised-after-arrival",
        "raised-and-cleared-before-arrival"])
def test_injected_loss_is_drawn_at_arrival(target, how, offsets, delivered,
                                           switch_kind):
    """Figure 9(d)'s per-switch loss applies to packets that arrive while
    it is set, however it was set."""
    def set_rate(rate):
        if how == "set_loss_rate":
            return lambda topo: topo.set_loss_rate(rate, [target])
        return lambda topo: setattr(topo.switches[target], "injected_loss_rate", rate)

    actions = [(ARRIVAL_AT[target] + offset, set_rate(rate)) for offset, rate in offsets]
    topo, received, _recorders = switch_race(actions, switch_kind=switch_kind)
    assert len(received) == delivered
    assert topo.switches[target].dropped_injected == 1 - delivered
    assert topo.switches[target].injected_loss_rate == offsets[-1][1]


def test_loss_raised_at_the_instant_a_packet_was_kept_is_not_drawn_again():
    """S0's loss is drawn at arrival (an event, since the rate is set) and
    keeps the packet; the rate raised to 1.0 later at that same instant
    finds its pass queued with its arrival already run, so nothing is drawn
    again and the packet is delivered."""
    topo = race_topology()
    switch = topo.switches["S0"]
    switch.injected_loss_rate = VANISHING
    received = []
    topo.hosts["H0_1"].bind(7000, received.append)
    topo.hosts["H0_0"].send_udp(topo.hosts["H0_1"].ip, 7000, "x", 10)
    topo.sim.schedule_at(S0_ARRIVAL, setattr, switch, "injected_loss_rate", 1.0)
    topo.run(until=1e-3)
    assert (len(received), switch.dropped_injected, switch.pipeline_passes) == (1, 0, 1)


@QUEUES
@pytest.mark.parametrize("target", ["S0", "S1"], ids=["host-tx-fused", "switch-to-switch"])
@pytest.mark.parametrize("offset, programs_ran", [
    (-0.1e-6, False), (0.1e-6, False), (0.6e-6, True),
], ids=["gray-before-arrival", "gray-between-arrival-and-pass", "gray-after-pass"])
def test_a_gray_failure_is_seen_at_the_pass(target, offset, programs_ran, switch_kind):
    """A gray-failed switch still forwards transit traffic but runs no
    program on it: what counts is its state at the pass, not at arrival."""
    actions = [(ARRIVAL_AT[target] + offset,
                lambda topo: topo.switches[target].fail_gray())]
    topo, received, recorders = switch_race(actions, switch_kind=switch_kind)
    assert received == ["x"]
    assert recorders[target].seen == (["x"] if programs_ran else [])
    assert topo.switches[target].pipeline_passes == 1


@QUEUES
def test_packets_landing_at_one_instant_keep_their_order_at_every_switch(switch_kind):
    """Two hosts send at the same instant: both packets reach S0 together
    (the second behind the first's service time on a queued switch), and
    every pipeline sees them in send order."""
    topo, received, recorders = switch_race([], labels=("first", "second"),
                                            senders=("H0_0", "H0_1"),
                                            switch_kind=switch_kind)
    assert received == ["first", "second"]
    assert recorders["S0"].seen == recorders["S1"].seen == ["first", "second"]


def _delaying():
    return LinkFaultModel(random.Random(0), extra_delay=1e-6)


#: A loss rate that is drawn but never drops (``random()`` < it only at 0.0).
VANISHING = 1e-300


def take_every_event(topo):
    """Make ``topo`` a twin that spends an event on every hop and drops,
    delays or counts nothing differently: a link or switch with a loss rate
    (drawn at its hop) fuses no TX, arrival or pass, and a host with a NIC
    rate (too high to queue anything) fuses no arrival."""
    for link in topo.links:
        link.set_faults(LinkFaultModel(link.rng, loss_rate=VANISHING))
    for switch in topo.switches.values():
        switch.injected_loss_rate = VANISHING
    for host in topo.hosts.values():
        host.config.nic_pps = 1e30


def _link(topo, name):
    a, b = name.split("-")
    return topo.link_between(topo.node(a), topo.node(b))


#: Each fault API a fused hop can race: kind -> action(topology, target).
FAULT_APIS = {
    "fail": lambda topo, target: topo.node(target).fail(),
    "recover": lambda topo, target: topo.node(target).recover_device(),
    "loss": lambda topo, target: setattr(topo.node(target), "injected_loss_rate", 1.0),
    "lossy": lambda topo, target: setattr(topo.node(target), "injected_loss_rate", VANISHING),
    "gray": lambda topo, target: topo.node(target).fail_gray(),
    "program": lambda topo, target: topo.node(target).install_program(Recorder()),
    "down": lambda topo, target: _link(topo, target).set_down(),
    "faulted": lambda topo, target: _link(topo, target).set_faults(_delaying()),
    "routes": lambda topo, target: install_shortest_path_routes(topo),
}


def _apply(fault):
    """The action of a fault named ``kind:target`` (or ``routes``)."""
    kind, _, target = fault.partition(":")
    return lambda topo: FAULT_APIS[kind](topo, target)


#: Receiver -> the nodes H0_0's packet crosses.  H0_1's is fused at S0
#: behind H0_0's fused TX, then into H0_1's RX; H1_0's also at S1 behind
#: S0's pass, whose TX is an event.
PATHS = {"H0_1": ("H0_0", "S0", "H0_1"), "H1_0": ("H0_0", "S0", "S1", "H1_0")}


def path_faults(path):
    """Every fault API that one of ``path``'s hops reads."""
    _sender, *switches, receiver = path
    return ([f"{kind}:{switch}" for switch in switches
             for kind in ("fail", "loss", "gray", "program")]
            + [f"{kind}:{a}-{b}" for a, b in zip(path, path[1:]) for kind in ("down", "faulted")]
            + [f"fail:{receiver}", "routes"])


def path_instants(path, sent=0.0):
    """Each hop of ``path``'s packet sent at ``sent`` and the instant between
    it and the next, from before the TX to after the dispatch, summed in the
    simulator's own order (TX 10 us after the send, 200 ns links, 0.5 us
    passes)."""
    hops = [("tx", sent + 10e-6)]
    for switch in path[1:-1]:
        arrival = hops[-1][1] + 200e-9
        hops += [(f"{switch}-arrival", arrival), (f"{switch}-pass", arrival + 0.5e-6)]
    far_arrival = hops[-1][1] + 200e-9
    hops += [("far-arrival", far_arrival), ("dispatch", far_arrival + 10e-6)]
    instants = {"before-tx": sent + 5e-6}
    for (hop, at), (_next_hop, next_at) in zip(hops, hops[1:] + [("end", hops[-1][1] + 2e-6)]):
        instants[f"at-{hop}"] = at
        instants[f"after-{hop}"] = (at + next_at) / 2
    return instants


#: A fault before the TX, then the sender's link going down before the TX:
#: the first fault must give back the earliest skipped hop, not the first
#: one it reads, or the TX it kept fused misses the second.
THEN_DOWN = (7.5e-6, "down:H0_0-S0")

#: When a UDP grid case sends its packet: a warm-up packet sent at 0 has
#: crossed the path by then, so each switch meets the case's faults with its
#: next hop already resolved (``link._hop``) and must resolve it again.
WARMED = 100e-6

#: Fused shape -> what happens before the send.  ``deliver-*`` sends into
#: an S0 that is already failed or lossy, so H0_0's fused TX pushes
#: ``Link._deliver`` and not S0's pass.
SETUPS = {"pass": (), "deliver-failed": ("fail:S0",), "deliver-lossy": ("lossy:S0",)}

#: ``(switch kind, receiver, setup, faults, instant)``: each fault API of
#: the path at each instant, and each before the TX followed by
#: :data:`THEN_DOWN`; a ``deliver-*`` case only on H0_1's path, with S0's
#: recovery added.
FUSED_GRID = [
    (kind, receiver, setup, faults, point)
    for kind in SWITCH_KINDS for receiver, path in PATHS.items() for setup in SETUPS
    if setup == "pass" or receiver == "H0_1"
    for fault in path_faults(path) + (["recover:S0"] if setup == "deliver-failed" else [])
    for faults, points in (((fault,), path_instants(path)), ((fault, THEN_DOWN[1]), ["before-tx"]))
    for point in points]

#: A TCP message from H0_0 to H0_1 over transparent switches (``tcp``
#: setup): its data segment and the ACK H0_1 sends back at the data's
#: dispatch are each carried as a payload (``link.carry``).  Each fault API
#: the round trip reads -- the sender's failure too, the ACK's far end -- at
#: each instant of both segments' hops, and each before the TX followed by
#: :data:`THEN_DOWN`.
SEGMENT_INSTANTS = {**path_instants(PATHS["H0_1"]), **{
    f"ack-{point}": at for point, at in path_instants(
        PATHS["H0_1"][::-1], sent=path_instants(PATHS["H0_1"])["at-dispatch"]).items()}}
FUSED_GRID += [
    ("transparent", "H0_1", "tcp", faults, point)
    for fault in path_faults(PATHS["H0_1"]) + ["fail:H0_0"]
    for faults, points in (((fault,), SEGMENT_INSTANTS), ((fault, THEN_DOWN[1]), ["before-tx"]))
    for point in points]


def counters(topo):
    """Every public numeric field of every node, port and link."""
    values = {}
    for node in topo.all_nodes():
        values[node.name] = {name: value for name, value in vars(node).items()
                             if isinstance(value, (int, float)) and not name.startswith("_")}
        for port in node.ports.values():
            values[port.name] = (port.tx_packets, port.rx_packets)
    for link in topo.links:
        values[link.name] = vars(link.stats)
    return values


def segment_race(faults, point, twin=False):
    """What a TCP message from H0_0 to H0_1 did with ``faults`` landing at
    ``point`` of :data:`SEGMENT_INSTANTS`: each delivery (message, time),
    each side's retransmissions, the sender's smoothed RTT (its ACK's time)
    and every counter; with ``twin``, on a topology that takes every hop's
    event."""
    topo, _recorders = line_topology("transparent")
    if twin:
        take_every_event(topo)
    topo.sim.schedule(SEGMENT_INSTANTS[point], _apply(faults[0]), topo)
    for fault in faults[1:]:
        topo.sim.schedule(THEN_DOWN[0], _apply(fault), topo)
    conn = TcpConnection(topo.hosts["H0_0"], topo.hosts["H0_1"])
    sender, receiver = conn.endpoint(topo.hosts["H0_0"]), conn.endpoint(topo.hosts["H0_1"])
    received = []
    receiver.on_message = lambda message: received.append((message, topo.sim.now))
    sender.send("x")
    topo.run(until=0.1)  # two backed-off RTOs (at 20 ms, then 40 ms later)
    return (received, sender.retransmissions, receiver.retransmissions, sender._srtt,
            counters(topo))


def fused_race(case, twin=False):
    """What one packet from H0_0 did in ``case`` (see :data:`FUSED_GRID`):
    each delivery (label, time, TTL, passes), what each switch's programs
    saw and every counter; with ``twin``, on a topology that takes every
    hop's event.  A ``tcp`` case is a :func:`segment_race`."""
    kind, receiver, setup, faults, point = case
    if setup == "tcp":
        return segment_race(faults, point, twin)
    at = path_instants(PATHS[receiver], sent=WARMED)[point]
    actions = [(at, _apply(faults[0]))] + [
        (WARMED + THEN_DOWN[0], _apply(fault)) for fault in faults[1:]]
    prepare = [take_every_event] if twin else []
    topo, received, recorders = switch_race(
        actions, switch_kind=kind, receiver=receiver, detail=True,
        setup=prepare + [_apply(fault) for fault in SETUPS[setup]], sent=WARMED)
    return received, {name: r.seen for name, r in recorders.items()}, counters(topo)


@pytest.mark.parametrize("case", FUSED_GRID, ids=["-".join(
    [kind, receiver, setup, "+".join(faults), point])
    for kind, receiver, setup, faults, point in FUSED_GRID])
def test_a_fault_around_a_fused_hop_matches_a_twin_that_takes_every_event(case):
    """A hop nothing can observe costs no event -- a host's TX, a switch's
    arrival, a host's arrival, and a TCP segment's TX, transparent pass and
    arrival -- so whatever fault lands on one of them first gives the
    earliest one back: delivery, its time and TTL, every pass, every
    retransmission and every counter are those of a twin that spends an
    event on every hop."""
    assert fused_race(case) == fused_race(case, twin=True)


def packets_built(monkeypatch):
    """The list each :class:`Packet` built from now on is appended to."""
    built = []
    init = Packet.__init__

    def counted(packet, *args, **kwargs):
        built.append(packet)
        init(packet, *args, **kwargs)

    monkeypatch.setattr(Packet, "__init__", counted)
    return built


def test_a_clean_segment_costs_one_event_and_builds_no_packet(monkeypatch):
    """A TCP message over a transparent switch: its data segment and its
    ACK are carried, one event each (the far host's dispatch), and no
    packet is built; the twin that takes every hop builds both packets and
    spends five events on each, to the same end."""
    built = packets_built(monkeypatch)
    runs = {}
    for twin in (False, True):
        built.clear()
        topo, _recorders = line_topology("transparent")
        if twin:
            take_every_event(topo)
        conn = TcpConnection(topo.hosts["H0_0"], topo.hosts["H0_1"])
        received = []
        conn.endpoint(topo.hosts["H0_1"]).on_message = lambda message: received.append(
            (message, topo.sim.now))
        conn.endpoint(topo.hosts["H0_0"]).send("x")
        topo.run(until=1e-3)  # before the RTO
        runs[twin] = (received, topo.sim.processed_events, len(built),
                      conn.endpoint(topo.hosts["H0_0"])._srtt)
    assert runs[False][1:3] == (2, 0) and runs[True][1:3] == (10, 2)
    assert (runs[False][0], runs[False][3]) == (runs[True][0], runs[True][3])


def test_a_nic_paced_sender_sends_every_segment_as_a_packet(monkeypatch):
    """H0_0 paces its NIC at 10 us a packet with a two-packet TX queue and
    sends three messages at once: a paced host is never carried from, so
    each data segment is a packet -- the third tail-dropped, then sent
    again at its RTO -- and so is each ACK to H0_0 (an RX queue), on the
    fused topology as on the twin that takes every event."""
    built = packets_built(monkeypatch)

    def run(twin):
        built.clear()
        topo, _recorders = line_topology("transparent")
        if twin:
            take_every_event(topo)
        sender_host, receiver_host = topo.hosts["H0_0"], topo.hosts["H0_1"]
        sender_host.config = HostConfig(stack_delay=10e-6, nic_pps=1e5, tx_queue_packets=2)
        conn = TcpConnection(sender_host, receiver_host)
        received = []
        conn.endpoint(receiver_host).on_message = lambda message: received.append(
            (message, topo.sim.now))
        for message in ("a", "b", "c"):
            conn.endpoint(sender_host).send(message)
        topo.run(until=0.1)
        return (received, conn.endpoint(sender_host).retransmissions, counters(topo)), len(built)

    (fused, packets), (twin, twin_packets) = run(False), run(True)
    assert fused == twin
    assert fused[2]["H0_0"]["tx_dropped"] == fused[1] == 1
    assert packets == twin_packets == 7


@functools.cache
def grid_twins():
    """Each :data:`FUSED_GRID` case's verdict, run on its twin."""
    return {case: fused_race(case, twin=True) for case in FUSED_GRID}


def killed_by_the_grid(monkeypatch, plant):
    """The :data:`FUSED_GRID` cases whose verdict moves once ``plant``
    (monkeypatch) has planted a give-back bug."""
    twins = grid_twins()
    plant(monkeypatch)
    return [case for case in FUSED_GRID if fused_race(case) != twins[case]]


def first_read_hop_given_back(monkeypatch):
    """Mutant: a change gives back the first skipped hop that reads it, not
    the earliest one that has not run."""
    changed = []

    def give_back(sim, *things):
        changed[:] = things
        real_give_back(sim, *things)

    def skipped(callback, args):
        hops, events = real_skipped(callback, args)
        reads = [any(read is thing for read in hop[1] for thing in changed) for hop in hops]
        if True not in reads:
            return hops, events
        first = reads.index(True)
        return hops[first:], lambda: events()[first:]

    real_give_back, real_skipped = link_module.give_back, link_module._skipped
    for module in (link_module, routing_module):
        monkeypatch.setattr(module, "give_back", give_back)
    monkeypatch.setattr(link_module, "_skipped", skipped)


def tx_kept_counted(monkeypatch):
    """Mutant: a given-back TX hop takes back nothing it counted."""
    def skipped(callback, args):
        hops, events = real_skipped(callback, args)
        return hops, lambda: [(*event[:2], None) if event[0].__name__ == "transmit" else event
                              for event in events()]

    real_skipped = link_module._skipped
    monkeypatch.setattr(link_module, "_skipped", skipped)


def later_hops_kept_counted(monkeypatch):
    """Mutant: a given-back hop leaves the hops from it onward counted."""
    monkeypatch.setattr(Link, "_untransmit", lambda self, packet, dst_port, tx_at: None)


def carried_far_link_kept_counted(monkeypatch):
    """Mutant: a given-back carried segment leaves its far link counted."""
    def skipped(callback, args):
        hops, events = real_skipped(callback, args)
        if callback is not link_module._land:
            return hops, events
        far_link = hops[-2][1][2]  # what the pass reads: switch, table, far link

        def kept():
            *before, (process, process_args, unpass), far_arrival = events()

            def take_back():
                delivered = far_link.stats.delivered
                unpass()
                far_link.stats.delivered = delivered

            return [*before, (process, process_args, take_back), far_arrival]

        return hops, kept

    real_skipped = link_module._skipped
    monkeypatch.setattr(link_module, "_skipped", skipped)


def stale_route_kept(monkeypatch):
    """Mutant: a give-back leaves the simulator's route stamp where it was,
    so a path ``link.carry`` resolved before a fault is reused after it."""
    def give_back(sim, *things):
        stamp = sim._stamp
        real_give_back(sim, *things)
        sim._stamp = stamp

    real_give_back = link_module.give_back
    for module in (link_module, routing_module):
        monkeypatch.setattr(module, "give_back", give_back)


class _Current(int):
    """A stamp that never differs from the simulator's."""

    def __ne__(self, other):
        return False


def stale_hop_kept(monkeypatch):
    """Mutant: a switch reuses the next hop it resolved after a give-back,
    so a pass after a fault pushes its packet past it."""
    def hop(switch, dst_ip):
        record = real_hop(switch, dst_ip)
        return None if record is None else (_Current(record[0]), *record[1:])

    real_hop = link_module._hop
    monkeypatch.setattr(link_module, "_hop", hop)


#: Each planted give-back bug -> the fewest grid cases that must kill it.
PLANTED = {first_read_hop_given_back: 10, tx_kept_counted: 100, later_hops_kept_counted: 100,
           carried_far_link_kept_counted: 100, stale_route_kept: 50, stale_hop_kept: 150}


@pytest.mark.parametrize("plant, at_least", PLANTED.items())
def test_the_grid_kills_each_planted_give_back_bug(monkeypatch, plant, at_least):
    """The differential grid above catches each planted bug on its own."""
    killed = killed_by_the_grid(monkeypatch, plant)
    assert len(killed) >= at_least, killed


def test_a_path_is_carried_again_once_it_heals(monkeypatch):
    """A message from H0_0 to H0_1 is carried; S0 then fails, a message on a
    second connection meets it as a packet, and S0 recovers.  A message sent
    after that is carried again -- one event for its data segment and one
    for its ACK, no packet built -- as no unclean path is kept."""
    built = packets_built(monkeypatch)
    topo, _recorders = line_topology("transparent")
    sender_host, receiver_host = topo.hosts["H0_0"], topo.hosts["H0_1"]
    conn = TcpConnection(sender_host, receiver_host)
    lost = TcpConnection(sender_host, receiver_host)
    received = []
    conn.endpoint(receiver_host).on_message = received.append
    conn.endpoint(sender_host).send("a")
    topo.run(until=1e-3)
    assert received == ["a"] and topo.sim.processed_events == 2 and not built
    topo.switches["S0"].fail()
    lost.endpoint(sender_host).send("lost")
    topo.run(until=2e-3)
    assert len(built) == 1 and topo.switches["S0"].packets_dropped == 1
    topo.switches["S0"].recover_device()
    events = topo.sim.processed_events
    conn.endpoint(sender_host).send("b")
    topo.run(until=3e-3)  # before either RTO
    assert received == ["a", "b"]
    assert topo.sim.processed_events - events == 2 and len(built) == 1


def test_a_switch_hop_is_resolved_again_once_it_heals():
    """H0_0's packet to H1_0 costs three events, S0's pass, S1's and H1_0's
    dispatch: each switch pushes the next from the hop it resolved.  S1
    then fails, and a second packet meets it at its arrival, an event; once
    S1 recovers, a third packet is pushed past S0 to S1's pass again, as no
    unclean hop is kept."""
    topo, recorders = line_topology("queue-free")
    sender, receiver = topo.hosts["H0_0"], topo.hosts["H1_0"]
    s0, s1 = topo.switches["S0"], topo.switches["S1"]
    received = []
    receiver.bind(7000, lambda packet: received.append(packet.payload))

    def send(label, until):
        events = topo.sim.processed_events
        sender.send_udp(receiver.ip, 7000, label, 10)
        topo.run(until=until)
        return topo.sim.processed_events - events

    assert send("a", 1e-3) == 3 and received == ["a"]
    s1.fail()
    assert send("lost", 2e-3) == 2 and s1.packets_dropped == 1
    assert s0._hops[receiver.ip][0] != topo.sim._stamp  # unclean: not recorded
    s1.recover_device()
    assert send("b", 3e-3) == 3 and received == ["a", "b"]
    assert s0._hops[receiver.ip][0] == topo.sim._stamp
    assert recorders["S1"].seen == ["a", "b"]


def test_link_fault_model_is_seed_deterministic():
    verdicts = []
    for _ in range(2):
        model = LinkFaultModel(random.Random(42), loss_rate=0.3,
                               corrupt_rate=0.1, reorder_jitter=1e-6)
        verdicts.append([(v.drop, v.reason, round(v.extra_delay, 12))
                        for v in (model.on_transmit(None) for _ in range(200))])
    assert verdicts[0] == verdicts[1]


def test_derive_rng_children_are_independent_streams():
    parent_a, parent_b = random.Random(7), random.Random(7)
    child_a1, child_a2 = derive_rng(parent_a), derive_rng(parent_a)
    child_b1, child_b2 = derive_rng(parent_b), derive_rng(parent_b)
    # Same derivation order, same streams.
    assert [child_a1.random() for _ in range(5)] == [child_b1.random() for _ in range(5)]
    assert [child_a2.random() for _ in range(5)] == [child_b2.random() for _ in range(5)]
    # Different children differ.
    assert child_a1.random() != child_a2.random()


# --------------------------------------------------------------------- #
# Partitions.
# --------------------------------------------------------------------- #

def test_partition_cuts_only_cross_group_links_and_heals():
    topo = make_topology()
    injector = FaultInjector(topo)
    cut = injector.partition({"S3"})
    cut_names = sorted(link.name for link in cut)
    assert cut_names == ["S0-S3", "S2-S3"]
    assert all(not link.up for link in cut)
    # Links inside the implicit rest-group stay up.
    assert injector.link("S0", "S1").up
    assert injector.link("H0", "S0").up
    with pytest.raises(RuntimeError):
        injector.partition({"S1"})
    injector.heal_partition()
    assert all(link.up for link in cut)
    kinds = [event.kind for event in injector.trace]
    assert kinds == ["partition", "partition_heal"]


def test_partition_preserves_pre_existing_down_links():
    topo = make_topology()
    injector = FaultInjector(topo)
    injector.link_down("S2", "S3")
    injector.partition({"S3"})
    injector.heal_partition()
    # The heal only restores what the partition cut.
    assert not injector.link("S2", "S3").up
    assert injector.link("S0", "S3").up


# --------------------------------------------------------------------- #
# Gray failure.
# --------------------------------------------------------------------- #

def test_gray_failed_switch_forwards_transit_but_drops_addressed_packets():
    topo = build_line(3, hosts_at={0: 1, 2: 1},
                      host_config=HostConfig(stack_delay=0.0, nic_pps=None))
    install_shortest_path_routes(topo)
    injector = FaultInjector(topo)
    injector.gray_fail_switch("S1")
    h0, h2 = topo.hosts["H0_0"], topo.hosts["H2_0"]
    received = []
    h2.bind(7000, received.append)
    # Transit through the gray switch still works...
    h0.send_udp(h2.ip, 7000, payload="through", payload_bytes=10)
    # ...but packets addressed to the gray switch itself are discarded.
    h0.send_udp(topo.switches["S1"].ip, 7000, payload="at", payload_bytes=10)
    topo.run(until=0.01)
    assert len(received) == 1
    assert topo.switches["S1"].dropped_not_serving == 1
    injector.recover_switch("S1")
    assert topo.switches["S1"].serving


def test_detector_sees_gray_failure_and_cut_off_switch():
    cluster = make_cluster()
    detector = FailureDetector(cluster.controller)
    assert detector.probe("S1")
    cluster.topology.switches["S1"].fail_gray()
    assert not detector.probe("S1")
    cluster.topology.switches["S1"].recover_device()
    assert detector.probe("S1")
    FaultInjector(cluster.topology).partition({"S3"})
    assert not detector.probe("S3")
    assert detector.probe("S2")


# --------------------------------------------------------------------- #
# Schedules.
# --------------------------------------------------------------------- #

def test_schedule_arms_timed_and_trigger_events():
    topo = make_topology()
    injector = FaultInjector(topo, seed=1)
    fired = []
    schedule = (FaultSchedule(injector, poll_interval=1e-3)
                .at(0.010, "link_down", "S0", "S1")
                .after(0.020, "link_up", "S0", "S1")
                .when(lambda: not injector.link("S0", "S1").up,
                      lambda: fired.append(topo.sim.now), label="noticed"))
    schedule.arm()
    with pytest.raises(RuntimeError):
        schedule.arm()
    topo.run(until=0.05)
    kinds = [(event.kind, round(event.time, 6)) for event in injector.trace]
    assert ("link_down", 0.010) in kinds
    assert ("link_up", 0.020) in kinds  # after() counts from arm time
    # The trigger fired exactly once, while the link was down.
    assert len(fired) == 1
    assert 0.010 <= fired[0] <= 0.020


def test_same_seed_schedules_replay_identical_traces():
    def run_once(seed):
        topo = make_topology()
        injector = FaultInjector(topo, seed=seed)
        (FaultSchedule(injector)
         .at(0.005, "set_link_faults", "S0", "S1", loss_rate=0.4)
         .at(0.010, "partition", {"S3"})
         .at(0.015, "heal_partition")
         .at(0.020, "fail_switch", "S2")
         .arm())
        host = topo.hosts["H0"]
        for i in range(50):
            topo.sim.schedule(i * 1e-3, lambda: host.send_udp(
                topo.switches["S1"].ip, 9000, payload="p", payload_bytes=10))
        topo.run(until=0.06)
        return injector.trace_signature(), injector.drop_report()

    trace_a, drops_a = run_once(9)
    trace_b, drops_b = run_once(9)
    assert trace_a == trace_b
    assert drops_a == drops_b


def test_detector_drives_failover_without_direct_controller_calls():
    cluster = make_cluster()
    keys = cluster.populate(20)
    FaultSchedule(FaultInjector(cluster.topology)).at(0.05, "fail_switch", "S1").arm()
    detector = cluster.start_failure_detector(DetectorConfig(
        probe_interval=20e-3, suspicion_threshold=1))
    cluster.run(until=0.2)
    assert "S1" in cluster.controller.failed_switches
    assert detector.detections and detector.detections[0][1] == "S1"
    # Detection happened within one probe interval of the injection.
    assert 0.05 <= detector.detections[0][0] <= 0.05 + 20e-3 + 1e-9
    # The cluster still serves after the detector-driven failover.
    agent = cluster.agent("H0")
    assert agent.write(keys[0], b"post").result(5.0).ok


def test_detector_reintroduces_healed_partition():
    cluster = make_cluster()
    cluster.populate(20)
    FaultSchedule(FaultInjector(cluster.topology)).at(0.05, "partition", {"S3"}).at(
        0.5, "heal_partition").arm()
    detector = cluster.start_failure_detector(DetectorConfig(
        probe_interval=20e-3, suspicion_threshold=2,
        recovery_start_delay=0.0))
    cluster.run(until=3.0)
    assert ("S3" not in cluster.controller.failed_switches)
    assert any(name == "S3" for _, name in detector.detections)
    assert any(name == "S3" for _, name in detector.reintroductions)


if __name__ == "__main__":
    killed = []
    for plant, at_least in PLANTED.items():
        with pytest.MonkeyPatch.context() as patch:
            if len(killed_by_the_grid(patch, plant)) >= at_least:
                killed.append(plant.__name__)
    print(f"fused-hop grid: planted give-back bugs killed {len(killed)} of {len(PLANTED)} "
          f"({', '.join(killed)})")
