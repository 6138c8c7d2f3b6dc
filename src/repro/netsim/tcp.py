"""A simplified TCP-like reliable transport for server-based baselines.

The paper attributes ZooKeeper's collapse under packet loss (Figure 9(d)) to
its use of TCP: "ZooKeeper uses TCP for reliable transmission which has a
lot of overhead under high loss rate, whereas NetChain simply uses UDP and
lets the clients retry".  To reproduce that behaviour the ZooKeeper baseline
runs its messages over this transport, which models the relevant TCP
machinery:

* in-order delivery with cumulative acknowledgements,
* a retransmission timeout with exponential backoff,
* an AIMD congestion window that halves on every loss event.

It is message-oriented rather than byte-stream-oriented: the unit of
transmission is an application message, which keeps the model cheap while
preserving the dynamics that matter for throughput under loss.

A segment rides in a UDP packet wherever something could observe it.  On a
clean host -> transparent switch -> host path (the server testbeds') nothing
can, and ``link.carry`` hands it to the peer's segment half instead: no
packet is built, and every counter and time is the packet's.  The host
resolves that path once and reuses it until the next ``link.give_back``.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.netsim.host import Host
from repro.netsim.link import carry
from repro.netsim.packet import Packet

_conn_ids = itertools.count(1)


#: Initial retransmission timeout in seconds.  The 20 ms minimum models a
#: datacenter-tuned TCP stack (Linux ships 200 ms; operators lower it for
#: RPC workloads).  It is the constant that produces ZooKeeper's collapse
#: under packet loss in Figure 9(d): every lost segment stalls its
#: connection for at least one RTO, versus the microsecond-scale retry of
#: NetChain's UDP clients.
INITIAL_RTO = 20e-3
#: Lower bound on the RTO (datacenter-tuned minimum).
MIN_RTO = 20e-3
#: Upper bound on the RTO after backoff.
MAX_RTO = 1.0
#: Initial congestion window, in messages.
INITIAL_CWND = 10
#: Maximum congestion window, in messages.
MAX_CWND = 64
#: Bytes charged for an ACK segment.
ACK_BYTES = 60
#: Fixed per-segment header overhead in bytes.
HEADER_BYTES = 40


class Segment:
    """A data or ACK segment carried inside a UDP packet.

    One object per message: every (re)transmission carries it and the
    receiver reads it, and nothing mutates it once built.  :meth:`copy` is
    what :meth:`Packet.copy` calls for an injected duplicate.
    """

    __slots__ = ("conn_id", "kind", "seq", "message", "size_bytes")

    def __init__(self, conn_id: int, kind: str, seq: int, message: Any = None,
                 size_bytes: int = 0) -> None:
        self.conn_id = conn_id
        self.kind = kind  # "data" or "ack"
        self.seq = seq
        self.message = message
        self.size_bytes = size_bytes

    def copy(self) -> "Segment":
        return Segment(self.conn_id, self.kind, self.seq, self.message,
                       self.size_bytes)


class TcpEndpoint:
    """One side of a connection.

    Each transmission reserves the ``(deadline, seq)`` key a timer of its
    own would have had, but only a key earlier than every queued one is
    queued: an ACK cancels nothing, and a due key times out only the segment
    still owning it, then queues the earliest remaining key.
    """

    def __init__(self, conn: "TcpConnection", host: Host, local_port: int,
                 remote_host: Host, remote_port: int) -> None:
        self.conn = conn
        self.host = host
        self.local_port = local_port
        self.remote_host = remote_host
        self.remote_port = remote_port
        self.on_message: Optional[Callable[[Any], None]] = None
        # Fixed for the life of the connection, read once.
        self._sim = host.sim
        self._conn_id = conn.conn_id
        self._remote_ip = remote_host.ip
        # Sender state.  ``seq -> (segment, sent_at, retries, RTO key)``;
        # ``_armed`` is the heap of keys queued on the engine, not yet due.
        self._next_seq = 0
        self._send_queue: Deque[Segment] = deque()
        self._outstanding: Dict[int, Tuple[Segment, float, int, Tuple[float, int]]] = {}
        self._armed: List[Tuple[float, int]] = []
        self._cwnd = float(INITIAL_CWND)
        self._rto = INITIAL_RTO
        self._srtt: Optional[float] = None
        # Receiver state.
        self._expected_seq = 0
        self._reorder_buffer: Dict[int, Segment] = {}
        # Stats.
        self.messages_sent = 0
        self.messages_delivered = 0
        self.retransmissions = 0
        self.closed = False
        #: The other side, set by :class:`TcpConnection` once both exist.
        self._peer: Optional[TcpEndpoint] = None
        # Bound once: ``link.carry`` hands a segment to ``_deliver`` while
        # ``_handler`` is what this endpoint's port is bound to.
        self._handler = self._on_packet
        self._deliver = self._on_segment
        host.bind(local_port, self._handler)

    # -------------------------------------------------------------- #
    # Sending.
    # -------------------------------------------------------------- #

    def send(self, message: Any, size_bytes: int = 100) -> None:
        """Queue an application message for reliable in-order delivery."""
        if self.closed:
            return
        seq = self._next_seq
        self._next_seq = seq + 1
        self.messages_sent += 1
        segment = Segment(self._conn_id, "data", seq, message, size_bytes)
        # A non-empty queue means a closed window: whatever opens the
        # window (an ACK) pumps the queue before returning.
        if self._send_queue or len(self._outstanding) >= int(self._cwnd):
            self._send_queue.append(segment)
        else:
            self._transmit(segment, 0)

    def _pump(self) -> None:
        queue = self._send_queue
        while queue and len(self._outstanding) < int(self._cwnd):
            self._transmit(queue.popleft(), 0)

    def _transmit(self, segment: Segment, retries: int) -> None:
        if self.closed:
            return
        # Carried to the peer when nothing can observe it, else sent as a packet.
        size = segment.size_bytes + HEADER_BYTES
        peer = self._peer
        if not carry(self.host, self._remote_ip, self.remote_port, segment, size,
                     self.local_port, peer._handler, peer._deliver):
            self.host.send_udp(self._remote_ip, self.remote_port, segment, size, self.local_port)
        # The key ``sim.schedule`` would have given this segment's timer.
        sim = self._sim
        seq = sim._seq
        sim._seq = seq + 1
        backoff = self._rto * (2 ** retries)
        key = (sim._now + (backoff if backoff < MAX_RTO else MAX_RTO), seq)
        self._outstanding[segment.seq] = (segment, sim._now, retries, key)
        armed = self._armed
        if not armed or key < armed[0]:
            self._arm(key)

    def _arm(self, key: Tuple[float, int]) -> None:
        heappush(self._armed, key)
        heappush(self._sim._queue, [key[0], key[1], self._on_timeout, ()])

    def _on_timeout(self) -> None:
        key = heappop(self._armed)  # the one coming due: the earliest queued
        if self.closed:
            return
        for out in self._outstanding.values():
            if out[3] == key:
                # Loss event: retransmit with backoff and halve the window.
                self.retransmissions += 1
                self._cwnd = max(1.0, self._cwnd / 2.0)
                self._transmit(out[0], out[2] + 1)
                break
        if self._outstanding:
            earliest = min(out[3] for out in self._outstanding.values())
            if not self._armed or earliest < self._armed[0]:
                self._arm(earliest)

    # -------------------------------------------------------------- #
    # Receiving.
    # -------------------------------------------------------------- #

    def _on_packet(self, packet: Packet) -> None:
        segment = packet.payload
        if isinstance(segment, Segment) and segment.conn_id == self._conn_id:
            self._on_segment(segment)

    def _on_segment(self, segment: Segment) -> None:
        seq = segment.seq
        if segment.kind == "ack":
            self._on_ack(seq)
            return
        # Data segment: always acknowledge, duplicates included (the ACK
        # carries the segment seq).
        ack = Segment(self._conn_id, "ack", seq)
        peer = self._peer
        if not carry(self.host, self._remote_ip, self.remote_port, ack, ACK_BYTES,
                     self.local_port, peer._handler, peer._deliver):
            self.host.send_udp(self._remote_ip, self.remote_port, ack, ACK_BYTES, self.local_port)
        if seq != self._expected_seq:
            if seq > self._expected_seq:
                self._reorder_buffer[seq] = segment
            return  # out of order: parked; or a duplicate
        # In order: deliver it, then whatever it releases from the buffer.
        buffer = self._reorder_buffer
        while segment is not None:
            self._expected_seq += 1
            self.messages_delivered += 1
            if self.on_message is not None:
                self.on_message(segment.message)
            segment = buffer.pop(self._expected_seq, None) if buffer else None

    def _on_ack(self, seq: int) -> None:
        out = self._outstanding.pop(seq, None)
        if out is None:
            return
        _segment, sent_at, retries, _key = out
        if retries == 0:
            # Karn's rule: only a segment sent once gives an RTT sample.
            sample = self._sim._now - sent_at
            srtt = self._srtt
            self._srtt = srtt = sample if srtt is None else 0.875 * srtt + 0.125 * sample
            rto = 2.0 * srtt  # clamped as min(MAX_RTO, max(MIN_RTO, rto)), with no C call
            self._rto = MIN_RTO if rto <= MIN_RTO else rto if rto < MAX_RTO else MAX_RTO
        # Additive increase: one message per window's worth of ACKs.
        cwnd = self._cwnd
        cwnd += 1.0 / (cwnd if cwnd > 1.0 else 1.0)
        self._cwnd = cwnd if cwnd < MAX_CWND else float(MAX_CWND)
        if self._send_queue:
            self._pump()

    def close(self) -> None:
        """Tear down this side of the connection."""
        self.closed = True
        self._outstanding.clear()
        self._send_queue.clear()
        self.host.unbind(self.local_port)


class TcpConnection:
    """A bidirectional reliable connection between two hosts."""

    def __init__(self, host_a: Host, host_b: Host) -> None:
        self.conn_id = next(_conn_ids)
        port_a = host_a.ephemeral_port()
        port_b = host_b.ephemeral_port()
        end_a = TcpEndpoint(self, host_a, port_a, host_b, port_b)
        end_b = TcpEndpoint(self, host_b, port_b, host_a, port_a)
        end_a._peer, end_b._peer = end_b, end_a
        self._endpoints: Dict[str, TcpEndpoint] = {host_a.name: end_a, host_b.name: end_b}

    def endpoint(self, host: Host) -> TcpEndpoint:
        """The endpoint living on ``host``."""
        return self._endpoints[host.name]

    def close(self) -> None:
        """Close both endpoints."""
        for endpoint in self._endpoints.values():
            endpoint.close()
