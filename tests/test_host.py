"""Unit tests for the host model (stack delay, NIC pacing, sockets)."""

from __future__ import annotations

import pytest

from repro.netsim.engine import Simulator
from repro.netsim.host import Host, HostConfig, dpdk_host_config, kernel_host_config
from repro.netsim.link import connect
from repro.netsim.node import Node
from repro.netsim.packet import Packet, UDPHeader


class Sink(Node):
    def __init__(self, sim, name, ip):
        super().__init__(sim, name, ip)
        self.received = []

    def receive(self, packet, port):
        self.received.append((self.sim.now, packet))


def make_host(config=None):
    sim = Simulator()
    host = Host(sim, "H0", "10.1.0.1", config=config)
    sink = Sink(sim, "S", "10.0.0.1")
    connect(sim, host, sink)
    return sim, host, sink


def test_send_udp_builds_packet_and_transmits():
    sim, host, sink = make_host(HostConfig(stack_delay=0.0, nic_pps=None))
    host.send_udp(sink.ip, 8123, payload="hello", payload_bytes=10)
    sim.run()
    assert len(sink.received) == 1
    packet = sink.received[0][1]
    assert packet.udp.dst_port == 8123
    assert packet.ip.src_ip == host.ip


def test_stack_delay_applied_on_send():
    sim, host, sink = make_host(HostConfig(stack_delay=10e-6, nic_pps=None))
    host.send_udp(sink.ip, 1, None, 0)
    sim.run()
    assert sink.received[0][0] >= 10e-6


def test_nic_pacing_limits_send_rate():
    sim, host, sink = make_host(HostConfig(stack_delay=0.0, nic_pps=1000.0))
    for _ in range(2000):
        host.send_udp(sink.ip, 1, None, 0)
    sim.run(until=1.0)
    assert len(sink.received) <= 1100


def test_tx_queue_overflow_drops():
    sim, host, sink = make_host(HostConfig(stack_delay=0.0, nic_pps=10.0,
                                           tx_queue_packets=5))
    for _ in range(50):
        host.send_udp(sink.ip, 1, None, 0)
    sim.run(until=0.1)
    assert host.tx_dropped > 0


def test_bind_dispatches_by_udp_port():
    sim, host, sink = make_host(HostConfig(stack_delay=0.0, nic_pps=None))
    got = []
    host.bind(5000, got.append)
    packet = Packet(udp=UDPHeader(src_port=1, dst_port=5000))
    packet.ip.dst_ip = host.ip
    host.deliver(packet, list(host.ports.values())[0])
    sim.run()
    assert len(got) == 1


def test_unbound_port_uses_default_handler_or_drops():
    sim, host, sink = make_host(HostConfig(stack_delay=0.0, nic_pps=None))
    packet = Packet(udp=UDPHeader(dst_port=7777))
    host.deliver(packet, list(host.ports.values())[0])
    sim.run()
    assert host.packets_dropped == 1
    got = []
    host.default_handler = got.append
    host.deliver(Packet(udp=UDPHeader(dst_port=7777)), list(host.ports.values())[0])
    sim.run()
    assert len(got) == 1


def test_unbind_removes_handler():
    sim, host, sink = make_host(HostConfig(stack_delay=0.0, nic_pps=None))
    got = []
    host.bind(5000, got.append)
    host.unbind(5000)
    host.deliver(Packet(udp=UDPHeader(dst_port=5000)), list(host.ports.values())[0])
    sim.run()
    assert got == []


def test_failed_host_neither_sends_nor_receives():
    sim, host, sink = make_host(HostConfig(stack_delay=0.0, nic_pps=None))
    got = []
    host.bind(5000, got.append)
    host.fail()
    host.send_udp(sink.ip, 1, None, 0)
    host.deliver(Packet(udp=UDPHeader(dst_port=5000)), list(host.ports.values())[0])
    sim.run()
    assert sink.received == []
    assert got == []
    host.recover_device()
    host.send_udp(sink.ip, 1, None, 0)
    sim.run()
    assert len(sink.received) == 1


@pytest.mark.parametrize("down_first, delivered", [(True, 0), (False, 1)])
def test_link_downed_at_the_tx_instant_follows_the_event_order(down_first, delivered):
    """A link downed at exactly a packet's TX time drops it only if the
    down was scheduled first: equal instants run in scheduling order."""
    sim, host, sink = make_host(HostConfig(stack_delay=10e-6, nic_pps=None))
    link = host.ports[0].link
    if down_first:
        sim.schedule(10e-6, link.set_down)
    host.send_udp(sink.ip, 1, None, 0)
    if not down_first:
        sim.schedule(10e-6, link.set_down)
    sim.run()
    assert len(sink.received) == delivered
    assert link.stats.dropped_down == 1 - delivered


@pytest.mark.parametrize("pending", [None, 1e-3, 5e-3])
def test_link_downed_right_after_a_zero_delay_send_drops_it(pending):
    """Outside ``run`` a zero-delay send has not left yet: a link downed
    next, at the same instant, still drops it -- before any run, after a
    run that drained the queue, and after one stopped by ``until``."""
    sim, host, sink = make_host(HostConfig(stack_delay=0.0, nic_pps=None))
    link = host.ports[0].link
    if pending is not None:
        sim.schedule(pending, lambda: None)
        sim.run(until=2e-3)
    host.send_udp(sink.ip, 1, None, 0)
    link.set_down()
    sim.run()
    assert sink.received == []
    assert link.stats.dropped_down == 1


def test_dpdk_and_kernel_profiles_differ():
    dpdk = dpdk_host_config()
    kernel = kernel_host_config()
    assert dpdk.stack_delay < kernel.stack_delay
    assert dpdk.nic_pps == pytest.approx(20.5e6)


def test_host_without_uplink_drops_sends():
    sim = Simulator()
    host = Host(sim, "lonely", "10.1.0.9", config=HostConfig(stack_delay=0.0, nic_pps=None))
    host.send_udp("10.0.0.1", 1, None, 0)
    sim.run()
    assert host.packets_dropped == 1
