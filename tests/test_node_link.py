"""Unit tests for nodes, ports and links (delay, loss, reordering)."""

from __future__ import annotations

import random

import pytest

from repro.deploy import DeploymentSpec, WorkloadSpec, build_deployment, run_scenario
from repro.netsim.engine import Simulator
from repro.netsim.faults import LinkFaultModel
from repro.netsim.host import HostConfig
from repro.netsim.link import LinkConfig, connect
from repro.netsim.node import Node
from repro.netsim.packet import IPv4Header, Packet
from repro.netsim.routing import install_shortest_path_routes
from repro.netsim.switch import Switch
from repro.netsim.topology import build_line


class RecordingNode(Node):
    """A node that records arrivals with timestamps."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, packet, port):
        self.received.append((self.sim.now, packet))


def make_pair(config=None, seed=0):
    sim = Simulator()
    a = RecordingNode(sim, "a")
    b = RecordingNode(sim, "b")
    link = connect(sim, a, b, config=config, rng=random.Random(seed))
    return sim, a, b, link


def test_connect_creates_ports_and_peers():
    sim, a, b, link = make_pair()
    assert len(a.ports) == 1 and len(b.ports) == 1
    assert a.ports[0].peer() is b.ports[0]
    assert b.neighbors() == [a]
    assert a.port_to(b) is a.ports[0]
    assert link.connects(a, b) and link.connects(b, a)
    # The label does not depend on which end connects, and is computed once.
    assert link.name == connect(sim, b, a).name == "a-b"
    assert "name" in vars(link)


def test_transmit_delivers_after_propagation_delay():
    sim, a, b, _ = make_pair(LinkConfig(delay=1e-6, bandwidth_bps=None))
    a.transmit(Packet(), a.ports[0])
    sim.run()
    assert len(b.received) == 1
    assert b.received[0][0] == pytest.approx(1e-6)


def test_serialization_delay_depends_on_size():
    config = LinkConfig(delay=0.0, bandwidth_bps=8e6)  # 1 byte per microsecond
    sim, a, b, _ = make_pair(config)
    packet = Packet(payload_bytes=66)  # 66 + 34 header bytes = 100 bytes
    a.transmit(packet, a.ports[0])
    sim.run()
    assert b.received[0][0] == pytest.approx(100e-6)


def test_loss_rate_drops_packets():
    sim, a, b, link = make_pair()
    link.set_faults(LinkFaultModel(link.rng, loss_rate=1.0))
    for _ in range(10):
        a.transmit(Packet(), a.ports[0])
    sim.run()
    assert b.received == []
    assert link.dropped == 10


def test_partial_loss_rate_is_statistical():
    sim, a, b, link = make_pair(seed=7)
    link.set_faults(LinkFaultModel(link.rng, loss_rate=0.5))
    for _ in range(500):
        a.transmit(Packet(), a.ports[0])
    sim.run()
    assert 150 < len(b.received) < 350
    assert link.dropped + len(b.received) == 500


def test_reorder_jitter_can_reorder_packets():
    sim, a, b, link = make_pair(LinkConfig(delay=1e-6, bandwidth_bps=None), seed=3)
    link.set_faults(LinkFaultModel(link.rng, reorder_jitter=50e-6))
    packets = [Packet() for _ in range(50)]
    for packet in packets:
        a.transmit(packet, a.ports[0])
    sim.run()
    received_ids = [p.packet_id for _, p in b.received]
    sent_ids = [p.packet_id for p in packets]
    assert sorted(received_ids) == sorted(sent_ids)
    assert received_ids != sent_ids  # at least one reordering happened


def test_counters_track_tx_rx():
    sim, a, b, link = make_pair()
    a.transmit(Packet(), a.ports[0])
    sim.run()
    assert a.packets_sent == 1
    assert b.packets_received == 1
    assert a.ports[0].tx_packets == 1
    assert b.ports[0].rx_packets == 1
    assert link.delivered == 1


def test_delivered_and_dropped_read_the_per_cause_stats():
    """``Link.delivered`` / ``Link.dropped`` are views of ``Link.stats`` (one
    store per packet), so they agree with it after every kind of traffic:
    lossy, downed, corrupted and delayed."""
    sim, a, b, link = make_pair(seed=5)
    link.set_faults(LinkFaultModel(link.rng, loss_rate=0.3))
    sent = 0

    def burst(count=200):
        nonlocal sent
        for _ in range(count):
            a.transmit(Packet(), a.ports[0])
        sent += count
        sim.run()

    burst()
    link.set_down()
    burst(10)
    link.set_up()
    link.faults = LinkFaultModel(random.Random(2), loss_rate=0.1, corrupt_rate=0.2,
                                 extra_delay=5e-6)
    burst()
    stats = link.stats
    assert min(stats.dropped_loss, stats.dropped_corrupt, stats.delayed) > 0
    assert stats.dropped_down == 10
    assert link.delivered == stats.delivered == len(b.received)
    assert link.dropped == stats.total_dropped() == sent - len(b.received)
    for name in ("delivered", "dropped"):
        with pytest.raises(AttributeError):
            setattr(link, name, 0)


def switch_bound_packet_in_flight():
    """A packet from ``a`` on its way to switch ``s``; the run stopped
    before it lands (1 us of propagation, no serialization)."""
    sim = Simulator()
    a = RecordingNode(sim, "a")
    switch = Switch(sim, "s", "10.0.0.1")
    link = connect(sim, a, switch, config=LinkConfig(delay=1e-6, bandwidth_bps=None))
    a.transmit(Packet(ip=IPv4Header("10.0.1.1", "10.0.9.9")), a.ports[0])
    sim.run(until=0.5e-6)
    return sim, a, switch, link


def test_a_delivery_is_counted_when_it_is_scheduled():
    """Link, far node and far port count the packet still in flight."""
    sim, a, switch, link = switch_bound_packet_in_flight()
    assert sim.pending_live() == 1 and switch.pipeline_passes == 0
    assert link.delivered == 1
    assert switch.packets_received == 1
    assert switch.ports[0].rx_packets == 1
    sim.run()
    assert (link.delivered, switch.packets_received, switch.ports[0].rx_packets) == (1, 1, 1)
    assert switch.dropped_no_route == 1  # it did land, on a switch with no routes


def test_a_switch_failing_before_arrival_counts_the_packet_received_and_dropped():
    sim, a, switch, link = switch_bound_packet_in_flight()
    switch.fail()
    sim.run()
    assert switch.packets_received == 1
    assert switch.packets_dropped == 1
    assert switch.pipeline_passes == 0


def tx(link):
    """Packets the two ports of ``link`` sent onto it."""
    return link.port_a.tx_packets + link.port_b.tx_packets


def test_every_transmitted_packet_is_delivered_or_dropped_per_link(cluster, agent):
    """ROADMAP item 1(e)'s link identity: per link, the packets its two
    ports sent equal ``delivered + dropped`` -- mid-flight for a
    switch-bound packet, and for every link once a run has drained."""
    _sim, _a, _switch, link = switch_bound_packet_in_flight()
    assert tx(link) == link.delivered + link.dropped == 1
    cluster.controller.populate(["k"])
    for index in range(20):
        assert agent.write("k", f"v{index}").result().ok
        assert agent.read("k").result().ok
    s0_s1 = next(link for link in cluster.topology.links if link.name == "S0-S1")
    s0_s1.set_faults(LinkFaultModel(s0_s1.rng, loss_rate=0.3))
    for index in range(20):
        agent.write("k", f"w{index}").result()
    cluster.run(until=cluster.sim.now + 0.01)
    assert s0_s1.dropped > 0
    for link in cluster.topology.links:
        assert tx(link) == link.delivered + link.dropped, link.name
    assert sum(link.delivered for link in cluster.topology.links) > 0


@pytest.mark.parametrize("stop_at", [5e-6, 10.1e-6, 10.3e-6, 10.8e-6, None],
                         ids=["before-tx", "before-arrival", "before-pass",
                              "before-the-next-arrival", "drained"])
def test_the_link_identity_holds_while_a_host_tx_is_on_its_way_to_a_switch(stop_at):
    """H0_0 -> S0 -> H0_1 with a 10 us stack: the host's TX hop and S0's
    pass may cost no event of their own, and the two links still count
    every packet their ports sent as delivered or dropped at each instant."""
    topo = build_line(1, hosts_at={0: 2},
                      host_config=HostConfig(stack_delay=10e-6, nic_pps=None),
                      link_config=LinkConfig(bandwidth_bps=None))
    install_shortest_path_routes(topo)
    topo.hosts["H0_1"].bind(7000, lambda packet: None)
    topo.hosts["H0_0"].send_udp(topo.hosts["H0_1"].ip, 7000, "x", 10)
    topo.sim.run(until=stop_at)
    for link in topo.links:
        assert tx(link) == link.delivered + link.dropped, link.name
    assert topo.links[0].delivered == 1


@pytest.mark.parametrize("backend, loss_rate", [("server-chain", 0.0), ("primary-backup", 0.01)])
def test_the_link_identity_holds_after_a_drained_server_backed_run(backend, loss_rate):
    """The server-hosted baselines ride TCP over queue-free switches: once
    the run has drained (retransmissions included), every link has
    delivered or dropped every packet its ports sent."""
    spec = DeploymentSpec(backend=backend, store_size=16, value_size=16, seed=3,
                          loss_rate=loss_rate)
    deployment = build_deployment(spec)
    result = run_scenario(spec, WorkloadSpec(duration=0.02, drain=0.02),
                          deployment=deployment)
    assert result.completed_ops > 0
    deployment.sim.run(until=deployment.sim.now + 5.0)
    links = deployment.topology.links
    for link in links:
        assert tx(link) == link.delivered + link.dropped, link.name
    dropped = sum(switch.dropped_injected for switch in deployment.topology.switches.values())
    assert (dropped > 0) == (loss_rate > 0)


def test_transmit_without_link_drops():
    sim = Simulator()
    node = RecordingNode(sim, "lonely")
    port = node.add_port()
    node.transmit(Packet(), port)
    sim.run()
    assert node.packets_dropped == 1


def test_duplicate_port_index_rejected():
    sim = Simulator()
    node = RecordingNode(sim, "n")
    node.add_port(0)
    with pytest.raises(ValueError):
        node.add_port(0)


def test_other_end_rejects_foreign_port():
    sim, a, b, link = make_pair()
    foreign = RecordingNode(sim, "c").add_port()
    with pytest.raises(ValueError):
        link.other_end(foreign)


def test_base_node_receive_is_abstract():
    sim = Simulator()
    node = Node(sim, "base")
    with pytest.raises(NotImplementedError):
        node.receive(Packet(), None)
