"""Link model: propagation delay and serialization.

The paper's chain protocol explicitly copes with the network's best-effort
delivery (Section 4.3): packets between chain switches can be *lost* or
*reordered*.  A link impairs traffic only through a fault model
(:class:`repro.netsim.faults.LinkFaultModel`: seeded loss, corruption,
jitter and delay), so the sequence-number ordering protocol and the client
retry logic are actually exercised.  Figure 9(d)'s loss is not a link's:
``DeploymentSpec.loss_rate`` goes through :meth:`Topology.set_loss_rate` to
each switch's injected loss, drawn as a packet arrives there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.netsim.host import Host
from repro.netsim.node import Port
from repro.netsim.packet import IP_WIRE_OVERHEAD, UDP_WIRE_OVERHEAD, IPv4Header, Packet, UDPHeader
from repro.netsim.stats import LinkStats
from repro.netsim.switch import _DISPATCH, _PASS, _RECEIVE, Switch

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.engine import Simulator


@dataclass
class LinkConfig:
    """Per-link parameters.

    Attributes:
        delay: one-way propagation delay in seconds.  Datacenter cable runs
            are a few hundred nanoseconds.
        bandwidth_bps: link speed in bits/sec; ``None`` disables
            serialization delay (useful for analytic experiments where the
            capacity model lives in the switch service rate instead).
    """

    delay: float = 200e-9
    bandwidth_bps: Optional[float] = 40e9


class Link:
    """A full-duplex point-to-point link between two ports; :meth:`transmit`
    schedules a packet's next event."""

    def __init__(self, sim: "Simulator", port_a: Port, port_b: Port,
                 config: Optional[LinkConfig] = None,
                 rng: Optional[random.Random] = None) -> None:
        self.sim = sim
        self.port_a = port_a
        self.port_b = port_b
        self.config = config or LinkConfig()
        self.rng = rng or random.Random(0)
        #: Per-cause delivery/drop accounting (see :class:`LinkStats`), the
        #: one store per packet; ``delivered`` / ``dropped`` read it.
        self.stats = LinkStats()
        #: Administrative/fault state: a downed link drops every packet
        #: (counted in ``stats.dropped_down``) instead of delivering.
        self.up = True
        #: Optional fault model installed by :mod:`repro.netsim.faults`;
        #: anything with an ``on_transmit(packet) -> FaultVerdict`` method.
        self.faults = None
        #: Optional telemetry tracer (:class:`repro.core.trace.Tracer`),
        #: told of every hop as it is scheduled.
        self.telemetry = None
        #: Bits of the hops scheduled since the last metrics tick (tracer-kept).
        self.tel_bits = 0.0
        #: Stable ``a-b`` label used in fault traces and stats reports (a
        #: node is named once, at construction).
        self.name = "-".join(sorted((port_a.node.name, port_b.node.name)))
        port_a.link = self
        port_b.link = self

    @property
    def delivered(self) -> int:
        """Packets handed to the far end so far (see :attr:`LinkStats.delivered`)."""
        return self.stats.delivered

    @property
    def dropped(self) -> int:
        """Packets lost on this link for any reason."""
        return self.stats.total_dropped()

    def set_down(self) -> None:
        """Take the link down; subsequent packets are dropped and counted."""
        self.up = False
        give_back(self.sim, self)

    def set_up(self) -> None:
        """Bring the link back up (only an up link without a fault model
        fuses a hop, so none can have skipped this change)."""
        self.up = True

    def set_faults(self, model) -> None:
        """Install (or, with ``None``, clear) the link's fault model."""
        self.faults = model
        give_back(self.sim, self)

    def _untransmit(self, packet: Packet, dst_port: Port, tx_at: float) -> None:
        """Take back what :meth:`transmit` counted for a hop to ``dst_port``
        due to leave at ``tx_at``, its tracer ``link_tx`` included."""
        src_port = self.other_end(dst_port)
        self.stats.delivered -= 1
        dst_port.node.packets_received -= 1
        dst_port.rx_packets -= 1
        src_port.node.packets_sent -= 1
        src_port.tx_packets -= 1
        if self.telemetry is not None:
            self.telemetry.link_untx(self, packet, tx_at)

    def other_end(self, port: Port) -> Port:
        """The port at the opposite end from ``port``."""
        if port is self.port_a:
            return self.port_b
        if port is self.port_b:
            return self.port_a
        raise ValueError("port is not attached to this link")

    def connects(self, node_a, node_b) -> bool:
        """Whether this link joins the two given nodes (in either order)."""
        ends = {self.port_a.node, self.port_b.node}
        return ends == {node_a, node_b}

    def transmit(self, packet: Packet, from_port: Port, tx_at: Optional[float] = None) -> None:
        """Carry ``packet`` from ``from_port`` to the opposite port.

        A delivery is counted (``delivered``, the far node's
        ``packets_received``, the far port's ``rx_packets``) when its arrival
        is pushed onto the event heap, here, and so is the tracer's
        ``link_tx``, as of the hop's TX time.  A hop nothing can observe
        costs no event, traced or not: :meth:`Host.send` transmits at once,
        as of its TX time ``tx_at``; a live :class:`Host` with no RX queue
        gets its dispatch pushed, and a live, loss-free :class:`Switch` its
        pass (which queues the packet as of its arrival), under the seq the
        arrival would have taken (a switch pass with a clean next hop,
        :func:`_hop`, pushes that entry itself).  The entry carries the
        skipped hops' times (``arrival``, ``tx_at``), so a fault that lands
        first can give them back (:func:`give_back`).  A TCP segment that
        nothing can observe never gets here: :func:`carry` hands it over.
        """
        if from_port is self.port_a:
            dst_port = self.port_b
        elif from_port is self.port_b:
            dst_port = self.port_a
        else:
            raise ValueError("port is not attached to this link")
        if not self.up:
            self.stats.dropped_down += 1
            return
        cfg = self.config
        latency = cfg.delay
        size = packet.payload_bytes + (
            UDP_WIRE_OVERHEAD if packet.udp is not None else IP_WIRE_OVERHEAD)
        if cfg.bandwidth_bps:
            latency += size * 8.0 / cfg.bandwidth_bps
        if self.faults is not None:
            verdict = self.faults.on_transmit(packet)
            if verdict.drop:
                if verdict.reason == "corrupt":
                    self.stats.dropped_corrupt += 1
                else:
                    self.stats.dropped_loss += 1
                return
            if verdict.extra_delay > 0:
                latency += verdict.extra_delay
                self.stats.delayed += 1
            if verdict.reordered:
                self.stats.reordered += 1
        sim = self.sim
        sent = sim._now if tx_at is None else tx_at
        tel = self.telemetry
        if tel is not None:
            tel.link_tx(self, packet, latency, size, sent)
        # Inlined Node.deliver, counted now (one call per hop on the hot path).
        self.stats.delivered += 1
        node = dst_port.node
        node.packets_received += 1
        dst_port.rx_packets += 1
        seq = sim._seq
        sim._seq = seq + 1
        arrival = sent + latency
        if type(node) is Switch:
            if node._injected_loss_rate <= 0 and not node.failed:
                heappush(sim._queue, [arrival + node.config.pipeline_delay, seq, node._process,
                                      (packet, dst_port, arrival, tx_at)])
                return
        elif (type(node) is Host and tx_at is None and not node.failed
                and node.config.nic_pps is None):
            heappush(sim._queue, [arrival + node.config.stack_delay, seq,
                                  node._dispatch, (packet, arrival)])
            return
        heappush(sim._queue, [arrival, seq, node.receive, (packet, dst_port)] if tx_at is None
                 else [arrival, seq, self._deliver, (packet, dst_port, tx_at)])

    def _deliver(self, packet: Packet, dst_port: Port, tx_at: float) -> None:
        """Arrival of a fused host TX; ``tx_at`` rides on it for :func:`give_back`."""
        dst_port.node.receive(packet, dst_port)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.port_a.name} <-> {self.port_b.name})"


def _route(host: Host, dst_ip: str) -> Optional[tuple]:
    """:func:`carry`'s path from ``host`` to ``dst_ip``, stamped, with its
    delays and link speeds read now; ``None`` unless it is clean (see there)."""
    port = host.uplink_port()
    if host.failed or host.config.nic_pps is not None or port is None:
        return None
    link = port.link
    # The clean-link test of Host.send, here for both links.
    if not link.up or link.faults is not None:
        return None
    in_port = link.port_b if port is link.port_a else link.port_a
    switch = in_port.node
    if (type(switch) is not Switch or switch.programs or switch.failed
            or switch._injected_loss_rate > 0 or switch.config.capacity_pps is not None):
        return None
    out_port = switch.forwarding_table.get(dst_ip)
    out_link = None if out_port is None else out_port.link
    if out_link is None or not out_link.up or out_link.faults is not None:
        return None
    far_port = out_link.port_b if out_port is out_link.port_a else out_link.port_a
    far = far_port.node
    if type(far) is not Host or far.failed or far.config.nic_pps is not None:
        return None
    return (host.sim._stamp, host.config.stack_delay, port, link, link.stats, link.config.delay,
            link.config.bandwidth_bps, in_port, switch, switch.config.pipeline_delay, out_port,
            out_link, out_link.stats, out_link.config.delay, out_link.config.bandwidth_bps,
            far_port, far, far.config.stack_delay)


def _hop(switch: Switch, dst_ip: str) -> Optional[tuple]:
    """``Switch._process``'s next hop to ``dst_ip``, stamped as :func:`carry`'s path; ``None``
    unless onto a clean link to a live, loss-free switch, live RX-queue-free host or other node."""
    out_port = switch.forwarding_table.get(dst_ip)
    link = None if out_port is None else out_port.link
    if link is None or not link.up or link.faults is not None:
        return None
    far_port = link.port_b if out_port is link.port_a else link.port_a
    far = far_port.node
    if type(far) is Switch:
        if far.failed or far._injected_loss_rate > 0:
            return None
        kind, callback, far_delay = _PASS, far._process, far.config.pipeline_delay
    elif type(far) is Host and far.config.nic_pps is None:
        if far.failed:
            return None
        kind, callback, far_delay = _DISPATCH, far._dispatch, far.config.stack_delay
    else:
        kind, callback, far_delay = _RECEIVE, far.receive, 0.0
    return (switch.sim._stamp, out_port, link, link.stats, far_port, far, link.config.delay,
            link.config.bandwidth_bps, kind, callback, far_delay)


def carry(host: Host, dst_ip: str, dst_port: int, payload: Any, payload_bytes: int,
          src_port: int, handler: Callable[[Packet], None],
          deliver: Callable[[Any], None]) -> bool:
    """Carry what ``host.send_udp(dst_ip, dst_port, payload, payload_bytes,
    src_port)`` would send, without a packet, when nothing can observe it;
    ``False`` (nothing done) if the packet must be sent.

    It is carried when the live, unpaced ``host`` has a clean uplink (up, no
    fault model) to a transparent switch (live, loss-free, no rate limit, no
    program) with a route to ``dst_ip`` onto a clean link, whose far end is a
    live host with no RX queue.  Everything the packet's walk would count is
    counted, as of the same times and under the one seq its switch arrival
    would have taken, and the far host's dispatch is pushed as :func:`_land`.

    ``host`` reuses a clean path (:func:`_route`) while its stamp is the
    simulator's, as a switch reuses its hop (:func:`_hop`).  What can make
    either unclean calls :func:`give_back`, which advances the stamp:
    ``fail``, ``set_down``, ``set_faults``, a first ``install_program``,
    loss above 0, ``install_shortest_path_routes``.  A recovery, ``set_up``
    or loss back to 0 need not: no unclean path is kept.  No config changes
    once traffic flows."""
    sim = host.sim
    route = host._routes.get(dst_ip)
    if route is None or route[0] != sim._stamp:
        route = _route(host, dst_ip)
        if route is None:
            return False
        host._routes[dst_ip] = route
    (_stamp, stack_delay, port, link, stats, delay, bandwidth, in_port, switch, pipeline_delay,
     out_port, out_link, out_stats, out_delay, out_bandwidth, far_port, far,
     far_stack_delay) = route
    now = sim._now
    tx_at = now + stack_delay
    bits = (payload_bytes + UDP_WIRE_OVERHEAD) * 8.0
    # The TX and switch arrival, as Host.send and transmit count them.
    host.packets_sent += 1
    port.tx_packets += 1
    latency = delay
    if bandwidth:
        latency += bits / bandwidth
    if link.telemetry is not None:
        link.tel_bits += bits  # Tracer.link_tx of an untraced packet
    stats.delivered += 1
    switch.packets_received += 1
    in_port.rx_packets += 1
    seq = sim._seq
    sim._seq = seq + 1
    arrival = tx_at + latency
    # The pass and the far arrival.
    switch.pipeline_passes += 1
    switch.packets_sent += 1
    out_port.tx_packets += 1
    pass_at = arrival + pipeline_delay
    latency = out_delay
    if out_bandwidth:
        latency += bits / out_bandwidth
    if out_link.telemetry is not None:
        out_link.tel_bits += bits  # Tracer.link_tx of an untraced packet
    out_stats.delivered += 1
    far.packets_received += 1
    far_port.rx_packets += 1
    far_arrival = pass_at + latency
    heappush(sim._queue, [far_arrival + far_stack_delay, seq, _land,
                          (far, dst_port, handler, deliver, payload, payload_bytes, src_port,
                           dst_ip, port, now, tx_at, arrival, far_arrival)])
    return True


def _land(far: Host, dst_port: int, handler: Callable[[Packet], None],
          deliver: Callable[[Any], None], payload: Any, payload_bytes: int, src_port: int,
          dst_ip: str, port: Port, created_at: float, tx_at: float, arrival: float,
          far_arrival: float) -> None:
    """The far host's dispatch of a segment :func:`carry` carried from
    ``port`` at ``created_at``: ``deliver(payload)`` while ``handler`` is bound
    to ``dst_port``, else ``Host._dispatch`` of the packet, built now.  The
    skipped hops' times are for :func:`give_back`."""
    if not far.failed and far._sockets.get(dst_port) is handler:
        deliver(payload)
    else:
        far._dispatch(_carried_packet(payload, payload_bytes, src_port, dst_port, dst_ip, port,
                                      created_at))


def _carried_packet(payload: Any, payload_bytes: int, src_port: int, dst_port: int,
                    dst_ip: str, port: Port, created_at: float) -> Packet:
    """The packet a carried segment is, as its switch's pass leaves it (TTL
    64 less one, one pipeline pass)."""
    return Packet(None, IPv4Header(port.node.ip, dst_ip, 63), UDPHeader(src_port, dst_port),
                  payload, payload_bytes, None, 1, created_at)


def _tx(dst_port: Port, tx_at: Optional[float]) -> list:
    """The host TX onto ``dst_port``'s link fused into an entry, if ``tx_at``
    is set, as a hop of :func:`_skipped`."""
    return [] if tx_at is None else [(tx_at, (dst_port.link,))]


def _tx_event(packet: Packet, dst_port: Port, tx_at: Optional[float]) -> list:
    """The event of :func:`_tx`'s hop, with its take-back."""
    if tx_at is None:
        return []
    link = dst_port.link
    src_port = link.other_end(dst_port)
    return [(src_port.node.transmit, (packet, src_port),
             lambda: link._untransmit(packet, dst_port, tx_at))]


def _skipped(callback: Callable[..., None], args: tuple) -> tuple:
    """The events the heap entry ``callback(*args)`` skipped, in order, as
    ``(hops, events)``: each hop ``(time, what it reads)``, and ``events()``
    each hop's ``(event callback, args, take-back)``, built only for an entry
    :func:`give_back` rewrites.  A fused pass (4-arg ``Switch._process``)
    skipped its arrival, behind its host's TX if ``tx_at`` is set; a fused
    TX's arrival (``Link._deliver``) the TX; a fused RX (``Host._dispatch``
    with 2 args) the arrival; a carried segment (:func:`_land`) the TX, the
    switch's arrival, its pass and the far arrival, its packet built as the
    pass leaves it.  What a hop reads decides its outcome; its take-back
    undoes what was counted for it."""
    if callback is _land:
        (far, dst_port, _handler, _deliver, payload, payload_bytes, src_port, dst_ip, port,
         created_at, tx_at, arrival, far_arrival) = args
        in_port = port.link.other_end(port)
        switch = in_port.node
        far_port = far.uplink_port()
        pass_at = arrival + switch.config.pipeline_delay

        def events() -> list:
            packet = _carried_packet(payload, payload_bytes, src_port, dst_port, dst_ip, port,
                                     created_at)

            def unpass() -> None:
                switch.pipeline_passes -= 1
                packet.pipeline_passes -= 1
                packet.ip.ttl += 1
                far_port.link._untransmit(packet, far_port, pass_at)

            return _tx_event(packet, in_port, tx_at) + [
                (switch.receive, (packet, in_port), None),
                (switch._process, (packet, in_port), unpass),
                (far.receive, (packet, far_port), None)]

        return _tx(in_port, tx_at) + [
            (arrival, (switch,)), (pass_at, (switch, switch.forwarding_table, far_port.link)),
            (far_arrival, (far,))], events
    func = getattr(callback, "__func__", None)
    if func is Switch._process and len(args) == 4:
        packet, port, arrival, tx_at = args
        return _tx(port, tx_at) + [(arrival, (port.node,))], lambda: _tx_event(
            packet, port, tx_at) + [(port.node.receive, (packet, port), None)]
    if func is Link._deliver:
        return _tx(*args[1:]), lambda: _tx_event(*args)
    if func is Host._dispatch and len(args) == 2:
        host = callback.__self__
        return [(args[1], (host,))], lambda: [
            (host.receive, (args[0], host.uplink_port()), None)]
    return [], list


def give_back(sim: "Simulator", *changed) -> None:
    """Give each fused entry with a skipped hop that has not run and reads
    something in ``changed`` (a link, a node, a switch's forwarding table) its
    earliest skipped event that has not run, under its own seq, and take back
    what the skipped hops from that one onward counted: whatever fault lands
    first meets the packet where a hop-by-hop run would have had it."""
    sim._stamp += 1  # every path carry keeps is resolved again

    def rewrite(entry: list) -> None:
        hops, events = _skipped(entry[2], entry[3])
        left = [at for at, (time, _reads) in enumerate(hops)
                if not sim.has_run(time, entry[1])]
        if any(read is thing for at in left for read in hops[at][1] for thing in changed):
            events = events()
            for at in left:
                if events[at][2] is not None:
                    events[at][2]()
            entry[0] = hops[left[0]][0]
            entry[2], entry[3] = events[left[0]][:2]

    sim.refile(rewrite)


def connect(sim: "Simulator", node_a, node_b, config: Optional[LinkConfig] = None,
            rng: Optional[random.Random] = None) -> Link:
    """Create a new port on each node and wire them with a link."""
    port_a = node_a.add_port()
    port_b = node_b.add_port()
    return Link(sim, port_a, port_b, config=config, rng=rng)
