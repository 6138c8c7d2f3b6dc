"""Unit tests for the simplified reliable transport (TCP model)."""

from __future__ import annotations

from repro.netsim.host import HostConfig
from repro.netsim.link import LinkConfig
from repro.netsim.packet import Packet
from repro.netsim.routing import install_shortest_path_routes
from repro.netsim.tcp import Segment, TcpConfig, TcpConnection
from repro.netsim.topology import build_line


def make_pair(loss_rate=0.0, tcp_config=None):
    topo = build_line(1, hosts_at={0: 2},
                      host_config=HostConfig(stack_delay=1e-6, nic_pps=None),
                      link_config=LinkConfig(loss_rate=0.0))
    install_shortest_path_routes(topo)
    if loss_rate:
        topo.switches["S0"].injected_loss_rate = loss_rate
    hosts = list(topo.hosts.values())
    conn = TcpConnection(hosts[0], hosts[1], config=tcp_config or TcpConfig())
    return topo, hosts[0], hosts[1], conn


def test_messages_delivered_in_order():
    topo, a, b, conn = make_pair()
    got = []
    conn.endpoint(b).on_message = got.append
    for i in range(20):
        conn.endpoint(a).send(f"msg{i}")
    topo.run(until=1.0)
    assert got == [f"msg{i}" for i in range(20)]


def test_bidirectional_delivery():
    topo, a, b, conn = make_pair()
    got_a, got_b = [], []
    conn.endpoint(a).on_message = got_a.append
    conn.endpoint(b).on_message = got_b.append
    conn.endpoint(a).send("to-b")
    conn.endpoint(b).send("to-a")
    topo.run(until=1.0)
    assert got_b == ["to-b"]
    assert got_a == ["to-a"]


def test_reliable_delivery_under_loss():
    topo, a, b, conn = make_pair(loss_rate=0.3)
    got = []
    conn.endpoint(b).on_message = got.append
    for i in range(30):
        conn.endpoint(a).send(i)
    topo.run(until=20.0)
    assert got == list(range(30))
    assert conn.endpoint(a).retransmissions > 0


def test_loss_reduces_goodput():
    """Heavy loss makes delivery dramatically slower (Figure 9(d) mechanism)."""
    def delivered_by(loss, deadline):
        topo, a, b, conn = make_pair(loss_rate=loss)
        got = []
        conn.endpoint(b).on_message = got.append
        for i in range(200):
            conn.endpoint(a).send(i)
        topo.run(until=deadline)
        return len(got)

    clean = delivered_by(0.0, 0.02)
    lossy = delivered_by(0.4, 0.02)
    assert lossy < clean


def test_no_duplicate_deliveries_despite_retransmission():
    topo, a, b, conn = make_pair(loss_rate=0.3)
    got = []
    conn.endpoint(b).on_message = got.append
    for i in range(15):
        conn.endpoint(a).send(i)
    topo.run(until=20.0)
    assert got == sorted(set(got))
    assert len(got) == 15


def test_congestion_window_halves_on_timeout():
    config = TcpConfig(initial_cwnd=16)
    topo, a, b, conn = make_pair(loss_rate=1.0, tcp_config=config)
    endpoint = conn.endpoint(a)
    endpoint.send("doomed")
    topo.run(until=0.5)
    assert endpoint._cwnd < 16


def test_closed_endpoint_stops_sending():
    topo, a, b, conn = make_pair()
    got = []
    conn.endpoint(b).on_message = got.append
    conn.endpoint(a).close()
    conn.endpoint(a).send("nope")
    topo.run(until=0.5)
    assert got == []


def test_close_cancels_retransmission_timers():
    topo, a, b, conn = make_pair(loss_rate=1.0)
    endpoint = conn.endpoint(a)
    endpoint.send("lost")
    conn.close()
    before = endpoint.retransmissions
    topo.run(until=2.0)
    assert endpoint.retransmissions == before


def test_stats_counters():
    topo, a, b, conn = make_pair()
    conn.endpoint(b).on_message = lambda m: None
    for i in range(5):
        conn.endpoint(a).send(i)
    topo.run(until=1.0)
    assert conn.endpoint(a).messages_sent == 5
    assert conn.endpoint(b).messages_delivered == 5


def test_in_order_exactly_once_under_reordering_and_loss():
    """Jitter lets later segments overtake earlier ones and loss opens
    gaps, so arrivals park in the reorder buffer; delivery is still the
    send order, each message once, and nothing is left parked."""
    topo = build_line(1, hosts_at={0: 2},
                      host_config=HostConfig(stack_delay=1e-6, nic_pps=None),
                      link_config=LinkConfig(loss_rate=0.05, reorder_jitter=20e-6))
    install_shortest_path_routes(topo)
    a, b = topo.hosts.values()
    conn = TcpConnection(a, b, config=TcpConfig(initial_cwnd=16))
    sender, receiver = conn.endpoint(a), conn.endpoint(b)
    got, parked = [], []

    def on_message(message):
        got.append(message)
        parked.append(len(receiver._reorder_buffer))

    receiver.on_message = on_message
    for i in range(200):
        sender.send(i)
    topo.run(until=60.0)
    assert got == list(range(200))
    assert receiver.messages_delivered == sender.messages_sent == 200
    assert max(parked) > 0 and sender.retransmissions > 0
    assert not receiver._reorder_buffer
    assert not sender._outstanding and not sender._send_queue


def test_retransmission_of_a_delivered_segment_is_acked_not_redelivered():
    """The first ACK is lost, so the sender retransmits a segment the
    receiver already delivered: the duplicate is acknowledged again (or the
    sender would retransmit forever) and not handed to the application."""
    topo, a, b, conn = make_pair()
    sender, receiver = conn.endpoint(a), conn.endpoint(b)
    got, lost_acks = [], []
    receiver.on_message = got.append
    on_packet = a._sockets[sender.local_port]

    def drop_first_ack(packet):
        if lost_acks:
            on_packet(packet)
        else:
            lost_acks.append(packet.payload.kind)

    a.bind(sender.local_port, drop_first_ack)
    sender.send("once")
    topo.run(until=1.0)
    assert lost_acks == ["ack"]
    assert sender.retransmissions == 1 and not sender._outstanding
    assert got == ["once"] and receiver.messages_delivered == 1


def test_packet_copy_gives_a_duplicate_its_own_segment():
    """Every transmission shares the message's one segment; an injected
    duplicate (``Packet.copy``) gets its own, around the same message."""
    segment = Segment(7, "data", 3, {"op": "read"}, 150)
    twin = Packet(payload=segment).copy().payload
    assert twin is not segment and twin.message is segment.message
    assert (twin.conn_id, twin.kind, twin.seq, twin.size_bytes) == (7, "data", 3, 150)
