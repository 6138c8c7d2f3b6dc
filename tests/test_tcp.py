"""Unit tests for the simplified reliable transport (TCP model)."""

from __future__ import annotations

from repro.netsim.faults import LinkFaultModel
from repro.netsim.host import HostConfig
from repro.netsim.packet import Packet
from repro.netsim.routing import install_shortest_path_routes
from repro.netsim.tcp import INITIAL_CWND, INITIAL_RTO, MAX_RTO, MIN_RTO, Segment, TcpConnection
from repro.netsim.topology import build_line


def make_pair(loss_rate=0.0, stack_delay=1e-6):
    topo = build_line(1, hosts_at={0: 2},
                      host_config=HostConfig(stack_delay=stack_delay, nic_pps=None))
    install_shortest_path_routes(topo)
    if loss_rate:
        topo.switches["S0"].injected_loss_rate = loss_rate
    hosts = list(topo.hosts.values())
    conn = TcpConnection(hosts[0], hosts[1])
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
    topo, a, b, conn = make_pair(loss_rate=1.0)
    endpoint = conn.endpoint(a)
    endpoint.send("doomed")
    topo.run(until=1.5 * INITIAL_RTO)
    assert endpoint.retransmissions == 1
    assert endpoint._cwnd == INITIAL_CWND / 2


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
                      host_config=HostConfig(stack_delay=1e-6, nic_pps=None))
    for link in topo.links:
        link.set_faults(LinkFaultModel(link.rng, loss_rate=0.05, reorder_jitter=20e-6))
    install_shortest_path_routes(topo)
    a, b = topo.hosts.values()
    conn = TcpConnection(a, b)
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


# --------------------------------------------------------------------- #
# Retransmission timers: when each (re)transmission happens.
# --------------------------------------------------------------------- #

def record_data_transmissions(endpoint):
    """``seq -> [(time, RTO in force), ...]``, one entry per transmission of
    each data segment ``endpoint`` sends; ``sent["order"]`` lists every
    transmission as ``(time, seq)`` in the order they happened."""
    sent = {"order": []}
    sim = endpoint.host.sim
    transmit = endpoint._transmit

    def recording(segment, retries):
        sent.setdefault(segment.seq, []).append((sim.now, endpoint._rto))
        sent["order"].append((sim.now, segment.seq))
        transmit(segment, retries)

    endpoint._transmit = recording
    return sent


def drop_data(receiver, host, attempts):
    """Drop the data segments ``receiver`` gets while ``attempts[seq]`` (the
    transmissions of ``seq`` still to lose) is positive."""
    on_packet = host._sockets[receiver.local_port]

    def lossy(packet):
        segment = packet.payload
        if segment.kind == "data" and attempts.get(segment.seq, 0) > 0:
            attempts[segment.seq] -= 1
            return
        on_packet(packet)

    host.bind(receiver.local_port, lossy)


def backoff_deadline(sent_at, rto, retries):
    return sent_at + min(MAX_RTO, rto * (2 ** retries))


def test_every_retransmission_is_due_at_its_backed_off_deadline():
    """On a lossy switch each retransmission of a segment happens exactly
    at ``sent_at + rto * 2**retries`` of its previous transmission, with the
    RTO in force then -- and the segment is delivered in the end."""
    topo, a, b, conn = make_pair(loss_rate=0.3)
    sender = conn.endpoint(a)
    sent = record_data_transmissions(sender)
    got = []
    conn.endpoint(b).on_message = got.append
    for i in range(40):
        sender.send(i)
    topo.run(until=20.0)
    assert got == list(range(40))
    order = sent.pop("order")
    assert order == sorted(order, key=lambda sent_at_seq: sent_at_seq[0])
    retried = 0
    for transmissions in sent.values():
        for retries, ((sent_at, rto), (again, _)) in enumerate(
                zip(transmissions, transmissions[1:], strict=False)):
            assert again == backoff_deadline(sent_at, rto, retries)
            retried += 1
    assert retried == sender.retransmissions > 0
    assert any(len(transmissions) > 2 for transmissions in sent.values())


def test_a_younger_segment_times_out_before_a_backed_off_older_one():
    """Deadlines are not in send order: segment 0 is lost twice, so its
    second retransmission waits a doubled RTO, and segment 1, sent after
    segment 0's first retransmission and lost once, must time out first --
    at its own deadline."""
    topo, a, b, conn = make_pair()
    sender, receiver = conn.endpoint(a), conn.endpoint(b)
    sent = record_data_transmissions(sender)
    drop_data(receiver, b, {0: 2, 1: 1})
    sender.send("old")
    topo.sim.schedule(1.25 * INITIAL_RTO, sender.send, "young")
    topo.run(until=1.0)
    (old_at, _), (old_retry_at, _), (old_again, _) = sent[0]
    (young_at, young_rto), (young_again, _) = sent[1]
    assert old_retry_at == backoff_deadline(old_at, INITIAL_RTO, 0)
    assert old_again == backoff_deadline(old_retry_at, INITIAL_RTO, 1)
    assert young_again == backoff_deadline(young_at, young_rto, 0)
    assert young_rto == INITIAL_RTO and old_retry_at < young_at < young_again < old_again
    assert sent["order"] == [(old_at, 0), (old_retry_at, 0), (young_at, 1),
                             (young_again, 1), (old_again, 0)]
    assert sender.retransmissions == 3


def test_rto_follows_twice_the_smoothed_rtt_but_never_under_min_rto():
    """An ACKed segment sent once is an RTT sample; the RTO becomes twice
    the smoothed RTT, floored at MIN_RTO."""
    topo, a, b, conn = make_pair()
    sender = conn.endpoint(a)
    conn.endpoint(b).on_message = lambda message: None
    sender.send("fast")
    topo.run(until=1.0)
    assert sender._srtt < MIN_RTO / 2 and sender._rto == MIN_RTO
    # A 4 ms host stack makes a round trip of four stack crossings
    # (~16 ms): inside the initial RTO, and over half of MIN_RTO.
    topo, a, b, conn = make_pair(stack_delay=4e-3)
    sender = conn.endpoint(a)
    sent = record_data_transmissions(sender)
    conn.endpoint(b).on_message = lambda message: None
    sender.send("slow")
    topo.run(until=1.0)
    assert len(sent[0]) == 1 and sender.retransmissions == 0
    assert MIN_RTO / 2 < sender._srtt < INITIAL_RTO
    assert sender._rto == 2.0 * sender._srtt > MIN_RTO


def test_segments_with_equal_deadlines_retransmit_in_send_order():
    topo, a, b, conn = make_pair()
    sender, receiver = conn.endpoint(a), conn.endpoint(b)
    order = []
    drop_data(receiver, b, {seq: 1 for seq in range(6)})
    transmit = sender._transmit

    def recording(segment, retries):
        order.append((a.sim.now, segment.seq))
        transmit(segment, retries)

    sender._transmit = recording
    for i in range(6):
        sender.send(i)
    topo.run(until=1.0)
    first, again = order[:6], order[6:]
    assert [seq for _, seq in first] == [seq for _, seq in again] == list(range(6))
    assert len({at for at, _ in first}) == len({at for at, _ in again}) == 1


def test_a_closed_endpoint_times_nothing_out():
    """Timers queued before ``close`` still come due; they send nothing."""
    topo, a, b, conn = make_pair(loss_rate=1.0)
    sender = conn.endpoint(a)
    for i in range(3):
        sender.send(i)
    topo.run(until=0.03)  # one round of retransmissions
    before = (sender.retransmissions, a.packets_sent)
    assert before[0] == 3
    sender.close()
    topo.run(until=5.0)
    assert (sender.retransmissions, a.packets_sent) == before
    assert sender._cwnd >= 1.0


def test_an_acked_segment_never_retransmits():
    """Loss-free, the run is many RTOs long: every segment is sent once,
    whatever timers come due after its ACK."""
    topo, a, b, conn = make_pair()
    sender = conn.endpoint(a)
    sent = record_data_transmissions(sender)
    conn.endpoint(b).on_message = lambda message: None
    for i in range(100):
        topo.sim.schedule(i * 7e-3, sender.send, i)
    topo.run(until=2.0)
    del sent["order"]
    assert sorted(sent) == list(range(100))
    assert all(len(transmissions) == 1 for transmissions in sent.values())
    assert sender.retransmissions == 0 and not sender._outstanding
