"""Unit tests for the programmable switch model and its register file."""

from __future__ import annotations

import pytest

from repro.core.protocol import MAX_PROTOTYPE_VALUE_BYTES, STAGE_VALUE_BYTES, VALUE_STAGES
from repro.netsim.engine import Simulator
from repro.netsim.link import LinkConfig, connect
from repro.netsim.node import Node
from repro.netsim.packet import Packet
from repro.netsim.registers import RegisterAllocationError, RegisterFile
from repro.netsim.switch import PipelineAction, PipelineProgram, Switch, SwitchConfig


class Sink(Node):
    def __init__(self, sim, name, ip="10.9.9.9"):
        super().__init__(sim, name, ip)
        self.received = []

    def receive(self, packet, port):
        self.received.append(packet)


def make_switch(config=None):
    sim = Simulator()
    switch = Switch(sim, "S0", "10.0.0.1", config=config)
    sink = Sink(sim, "H", "10.1.0.1")
    connect(sim, switch, sink)
    switch.forwarding_table[sink.ip] = switch.port_to(sink)
    return sim, switch, sink


def packet_to(ip):
    packet = Packet()
    packet.ip.dst_ip = ip
    packet.ip.src_ip = "10.1.0.1"
    return packet


# --------------------------------------------------------------------- #
# Forwarding.
# --------------------------------------------------------------------- #

def test_forwards_on_destination_ip():
    sim, switch, sink = make_switch()
    switch.deliver(packet_to(sink.ip), list(switch.ports.values())[0])
    sim.run()
    assert len(sink.received) == 1


def test_drops_without_route():
    sim, switch, sink = make_switch()
    switch.deliver(packet_to("10.5.5.5"), list(switch.ports.values())[0])
    sim.run()
    assert sink.received == []
    assert switch.dropped_no_route == 1


def test_ttl_decrement_and_expiry():
    sim, switch, sink = make_switch()
    packet = packet_to(sink.ip)
    packet.ip.ttl = 1
    switch.deliver(packet, list(switch.ports.values())[0])
    sim.run()
    assert sink.received == []


def test_packet_to_switch_itself_counts_as_no_route():
    # No program answers it and the underlay has no route to the switch's
    # own IP.
    sim, switch, sink = make_switch()
    switch.deliver(packet_to(switch.ip), list(switch.ports.values())[0])
    sim.run()
    assert sink.received == []
    assert switch.dropped_no_route == 1


def test_pipeline_delay_applied():
    sim, switch, sink = make_switch(SwitchConfig(capacity_pps=None, pipeline_delay=2e-6))
    switch.deliver(packet_to(sink.ip), list(switch.ports.values())[0])
    sim.run()
    assert sim.now >= 2e-6


def test_failed_switch_drops_everything():
    sim, switch, sink = make_switch()
    switch.fail()
    switch.deliver(packet_to(sink.ip), list(switch.ports.values())[0])
    sim.run()
    assert sink.received == []
    switch.recover_device()
    switch.deliver(packet_to(sink.ip), list(switch.ports.values())[0])
    sim.run()
    assert len(sink.received) == 1


def test_packets_queued_when_the_switch_fails_are_counted_as_dropped():
    """Conservation across a fail-stop: every packet the switch received is
    either sent or in a drop counter -- including the ones admitted to the
    ingress queue before ``fail()`` and due out of the pipeline after it."""
    config = SwitchConfig(capacity_pps=1000.0)  # 1 ms apart behind the queue
    sim, switch, sink = make_switch(config)
    port = list(switch.ports.values())[0]
    for _ in range(5):
        switch.deliver(packet_to(sink.ip), port)
    sim.run(until=2.5e-3)
    switch.fail()
    switch.deliver(packet_to(sink.ip), port)  # arrives at a failed switch
    sim.run()
    assert len(sink.received) == switch.packets_sent == 3
    assert switch.packets_received == 6
    assert switch.packets_dropped == 3  # two in the pipeline, one at ingress
    assert switch.pipeline_passes == 3
    assert switch.packets_received == switch.packets_sent + switch.packets_dropped


def test_injected_loss_drops_fraction():
    sim, switch, sink = make_switch()
    switch.injected_loss_rate = 1.0
    switch.deliver(packet_to(sink.ip), list(switch.ports.values())[0])
    sim.run()
    assert sink.received == []
    assert switch.dropped_injected == 1


# --------------------------------------------------------------------- #
# Capacity model.
# --------------------------------------------------------------------- #

def test_capacity_queue_drops_when_full():
    config = SwitchConfig(capacity_pps=1000.0, ingress_queue_packets=5)
    sim, switch, sink = make_switch(config)
    port = list(switch.ports.values())[0]
    for _ in range(20):
        switch.deliver(packet_to(sink.ip), port)
    sim.run()
    assert switch.dropped_capacity > 0
    assert len(sink.received) < 20


def test_capacity_limits_throughput():
    config = SwitchConfig(capacity_pps=1000.0, ingress_queue_packets=100000)
    sim, switch, sink = make_switch(config)
    port = list(switch.ports.values())[0]

    def offer():
        switch.deliver(packet_to(sink.ip), port)

    # Offer 5000 pps for one second against a 1000 pps switch.
    for i in range(5000):
        sim.schedule(i * 0.0002, offer)
    sim.run(until=1.0)
    assert len(sink.received) <= 1100


def test_pipeline_pass_counting():
    sim, switch, sink = make_switch()
    port = list(switch.ports.values())[0]
    switch.deliver(packet_to(sink.ip), port)
    sim.run()
    assert switch.pipeline_passes == 1


# --------------------------------------------------------------------- #
# A packet on the wire to a switch, queue-free or queued: faults before, at
# and after its arrival (1 us of propagation, a 0.5 us pass).
# --------------------------------------------------------------------- #

ARRIVAL = 1e-6
#: The queued switch's service time: 0.25 us, half a pass.
SERVICE = 0.25e-6
QUEUED = SwitchConfig(capacity_pps=1 / SERVICE)
#: The pass of a packet landing with another, summed in the simulator's
#: own order: its backlog is the first one's service time, as the busy clock
#: reads it.
SECOND_PASS = ARRIVAL + (((ARRIVAL + SERVICE) - ARRIVAL) + 0.5e-6)
SWITCHES = pytest.mark.parametrize("config", [None, QUEUED], ids=["queue-free", "queued"])


class Timing(PipelineProgram):
    """Records ``(packet, now)`` at every pipeline pass it runs in."""

    def __init__(self):
        self.passes = []

    def process(self, switch, packet, in_port):
        self.passes.append((packet, switch.sim.now))
        return PipelineAction.CONTINUE


def wired_switch(actions, count=1, config=None, late=()):
    """``source -> S0 -> sink``; ``actions`` (``(at, action(switch))``) are
    scheduled before ``count`` packets leave ``source`` at time 0, and one
    more at each instant of ``late``."""
    sim, switch, sink = make_switch(config)
    source = Sink(sim, "src", "10.1.0.9")
    connect(sim, source, switch, config=LinkConfig(delay=ARRIVAL, bandwidth_bps=None))
    for at, action in actions:
        sim.schedule(at, action, switch)
    packets = [packet_to(sink.ip) for _ in range(count + len(late))]
    for packet in packets[:count]:
        source.transmit(packet, source.ports[0])
    for at, packet in zip(late, packets[count:]):
        sim.schedule(at, source.transmit, packet, source.ports[0])
    sim.run()
    return switch, sink, packets


@SWITCHES
@pytest.mark.parametrize("at, delivered", [
    (0.5e-6, 0), (ARRIVAL, 0), (ARRIVAL + 0.2e-6, 0), (ARRIVAL + 0.6e-6, 1),
], ids=["before-arrival", "at-arrival", "before-pass", "after-pass"])
def test_a_switch_failing_around_a_wired_packet_drops_it_until_its_pass(at, delivered, config):
    switch, sink, _packets = wired_switch([(at, Switch.fail)], config=config)
    assert len(sink.received) == delivered
    assert switch.packets_received == 1
    assert switch.packets_dropped == 1 - delivered
    assert switch.pipeline_passes == delivered


@SWITCHES
def test_a_switch_failing_and_recovering_before_arrival_passes_the_packet(config):
    switch, sink, _packets = wired_switch([(0.3e-6, Switch.fail),
                                           (0.6e-6, Switch.recover_device)], config=config)
    assert len(sink.received) == switch.pipeline_passes == 1


@SWITCHES
@pytest.mark.parametrize("fail_at, recover_at", [
    (0.3e-6, ARRIVAL), (ARRIVAL + 0.1e-6, ARRIVAL + 0.2e-6),
], ids=["recover-at-arrival", "fail-recover-before-pass"])
def test_a_switch_recovering_by_a_wired_packets_pass_passes_it(fail_at, recover_at, config):
    switch, sink, _packets = wired_switch([(fail_at, Switch.fail),
                                           (recover_at, Switch.recover_device)], config=config)
    assert len(sink.received) == switch.pipeline_passes == 1


@SWITCHES
@pytest.mark.parametrize("at, delivered", [(0.5e-6, 0), (ARRIVAL, 0), (ARRIVAL + 0.2e-6, 1)],
                         ids=["before-arrival", "at-arrival", "before-pass"])
def test_injected_loss_assigned_while_a_packet_is_on_the_wire(at, delivered, config):
    def lossy(switch):
        switch.injected_loss_rate = 1.0

    switch, sink, _packets = wired_switch([(at, lossy)], config=config)
    assert len(sink.received) == delivered
    assert switch.dropped_injected == 1 - delivered


@SWITCHES
def test_a_gray_failure_between_arrival_and_pass_skips_the_programs(config):
    timing = Timing()
    switch, sink, packets = wired_switch([(0.5e-6, lambda s: s.install_program(timing)),
                                          (ARRIVAL + 0.2e-6, Switch.fail_gray)], config=config)
    assert sink.received == packets and switch.pipeline_passes == 1
    assert timing.passes == []


@SWITCHES
def test_packets_on_one_wire_pass_in_the_order_they_landed(config):
    switch, sink, packets = wired_switch([], count=3, config=config)
    assert sink.received == packets
    assert switch.pipeline_passes == 3


# A queue's backlog: packets landing within one service time of each other.

@pytest.mark.parametrize("loss_rate", [0.0, 1e-12], ids=["fused", "via-receive"])
def test_a_packet_landing_behind_another_passes_after_its_backlog(loss_rate):
    """Whether the link pushes the pass or ``receive`` does (any injected
    loss rate takes the arrival event), the queue works the same."""
    def install(switch):
        switch.install_program(timing)
        switch.injected_loss_rate = loss_rate

    timing = Timing()
    switch, sink, packets = wired_switch([(0.5e-6, install)], count=2, config=QUEUED)
    assert sink.received == packets
    assert timing.passes == [(packets[0], ARRIVAL + 0.5e-6),
                             (packets[1], SECOND_PASS)]
    # Both were admitted as of their arrival, not of their pass.
    assert switch._busy_until == (ARRIVAL + SERVICE) + SERVICE


def test_a_switch_failing_between_two_queued_passes_drops_the_second():
    switch, sink, packets = wired_switch([(ARRIVAL + 0.6e-6, Switch.fail)],
                                         count=2, config=QUEUED)
    assert sink.received == packets[:1]
    assert switch.pipeline_passes == switch.packets_dropped == 1
    assert switch.dropped_capacity == 0


def test_the_ingress_limit_tail_drops_at_arrival():
    """One packet may wait: the second lands half a service time after the
    first and waits half of one, the third lands with it and would wait one
    and a half."""
    config = SwitchConfig(capacity_pps=1 / SERVICE, ingress_queue_packets=1)
    switch, sink, packets = wired_switch([], count=1, config=config,
                                         late=(SERVICE / 2, SERVICE / 2))
    assert sink.received == packets[:2]
    assert switch.dropped_capacity == 1
    assert switch.pipeline_passes == 2
    assert switch.packets_received == 3


def test_recovering_a_gray_failed_switch_keeps_the_backlog_of_packets_already_in():
    """Two packets land together on a gray-failed switch; it recovers before
    their passes, and a third lands after that.  The two were queued at
    arrival, so they keep their places; the third finds the queue the
    recovery reset empty and passes ahead of the second."""
    timing = Timing()
    switch, sink, packets = wired_switch(
        [(0.5e-6, lambda s: s.install_program(timing)), (0.5e-6, Switch.fail_gray),
         (ARRIVAL + 0.1e-6, Switch.recover_device)],
        count=2, config=QUEUED, late=(0.2e-6,))
    first, second, third = packets
    assert sink.received == [first, third, second]
    assert timing.passes == [(first, ARRIVAL + 0.5e-6),
                             (third, (0.2e-6 + ARRIVAL) + 0.5e-6),
                             (second, SECOND_PASS)]


# --------------------------------------------------------------------- #
# Pipeline programs.
# --------------------------------------------------------------------- #

class DropAll(PipelineProgram):
    def process(self, switch, packet, in_port):
        return PipelineAction.DROP


class Rewrite(PipelineProgram):
    def __init__(self, new_dst):
        self.new_dst = new_dst

    def process(self, switch, packet, in_port):
        packet.ip.dst_ip = self.new_dst
        return PipelineAction.FORWARD


def test_program_can_drop():
    sim, switch, sink = make_switch()
    switch.install_program(DropAll())
    switch.deliver(packet_to(sink.ip), list(switch.ports.values())[0])
    sim.run()
    assert sink.received == []
    assert switch.dropped_by_program == 1


def test_program_can_rewrite_and_forward():
    sim, switch, sink = make_switch()
    switch.install_program(Rewrite(sink.ip))
    switch.deliver(packet_to("10.77.0.1"), list(switch.ports.values())[0])
    sim.run()
    assert len(sink.received) == 1


def test_max_value_bytes_per_pass():
    # Section 6: k = 8 stages of n = 16 bytes; one pass carries k*n.
    assert (VALUE_STAGES, STAGE_VALUE_BYTES) == (8, 16)
    assert MAX_PROTOTYPE_VALUE_BYTES == 128


# --------------------------------------------------------------------- #
# Register arrays.
# --------------------------------------------------------------------- #

def test_register_allocation_and_budget():
    registers = RegisterFile(sram_bytes=1000)
    registers.allocate("a", slots=10, bytes_per_slot=16)
    assert registers.allocated_bytes() == 160
    with pytest.raises(RegisterAllocationError):
        registers.allocate("b", slots=100, bytes_per_slot=16)
    registers.free("a")
    assert registers.allocated_bytes() == 0


def test_register_duplicate_name_rejected():
    registers = RegisterFile()
    registers.allocate("a", 4, 4)
    with pytest.raises(ValueError):
        registers.allocate("a", 4, 4)


def test_register_allocation_is_a_plain_list_of_its_slots():
    registers = RegisterFile()
    assert registers.allocate("vals", slots=4, bytes_per_slot=8, initial=0) == [0] * 4
    # A reservation charges the same bytes and holds no slots.
    registers.reserve("stripes", slots=4, bytes_per_slot=16)
    assert registers.allocated_bytes() == 4 * 8 + 4 * 16
    with pytest.raises(ValueError):
        registers.reserve("vals", 1, 1)
