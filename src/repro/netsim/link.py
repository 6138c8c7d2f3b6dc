"""Link model: propagation delay, serialization, loss and reordering.

The paper's chain protocol explicitly copes with the network's best-effort
delivery (Section 4.3): packets between chain switches can be *lost* or
*reordered*.  Both behaviours are modelled here so that the sequence-number
ordering protocol and the client retry logic are actually exercised.

Loss injection matches the evaluation setup of Figure 9(d): a loss
probability applied independently per traversal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappush
from typing import TYPE_CHECKING, Callable, Optional

from repro.netsim.host import Host
from repro.netsim.node import Port
from repro.netsim.packet import IP_WIRE_OVERHEAD, UDP_WIRE_OVERHEAD, Packet
from repro.netsim.stats import LinkStats
from repro.netsim.switch import Switch

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
        loss_rate: probability that a packet traversing the link is dropped.
        reorder_jitter: if non-zero, each delivery is additionally delayed by
            a uniform random amount in ``[0, reorder_jitter]`` seconds, which
            lets later packets overtake earlier ones.
    """

    delay: float = 200e-9
    bandwidth_bps: Optional[float] = 40e9
    loss_rate: float = 0.0
    reorder_jitter: float = 0.0


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
        arrival would have taken.  A transparent switch's pass runs here
        too (:meth:`_pass_through`), and the far host's dispatch takes that
        seq.  The entry carries the skipped hops' times (``arrival``,
        ``tx_at``), so a fault that lands first can give them back
        (:func:`give_back`).
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
        if cfg.loss_rate > 0 and self.rng.random() < cfg.loss_rate:
            self.stats.dropped_loss += 1
            return
        latency = cfg.delay
        size = packet.payload_bytes + (
            UDP_WIRE_OVERHEAD if packet.udp is not None else IP_WIRE_OVERHEAD)
        if cfg.bandwidth_bps:
            latency += size * 8.0 / cfg.bandwidth_bps
        if cfg.reorder_jitter > 0:
            latency += self.rng.uniform(0.0, cfg.reorder_jitter)
            self.stats.reordered += 1
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
            if not node.programs and self._pass_through(packet, dst_port, arrival, seq, tx_at, size):
                return
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

    def _pass_through(self, packet: Packet, in_port: Port, arrival: float, seq: int,
                      tx_at: Optional[float], size: int) -> bool:
        """Run the pass of a transparent switch -- live, loss-free, with no
        rate limit or program, forwarding a packet no tracer follows onto a
        clean link to a live host with no RX queue -- now, as of
        ``arrival``, and push that host's dispatch under ``seq``; ``False``
        if the pass needs its event."""
        switch = in_port.node
        ip = packet.ip
        out_port = switch.forwarding_table.get(ip.dst_ip)
        if (out_port is None or ip.ttl <= 1 or packet.trace_id or switch.failed
                or switch._injected_loss_rate > 0 or switch.config.capacity_pps is not None):
            return False
        link = out_port.link
        if link is None or not link.up or link.faults is not None:
            return False
        cfg = link.config
        if cfg.loss_rate > 0 or cfg.reorder_jitter > 0:
            return False
        far_port = link.port_b if out_port is link.port_a else link.port_a
        far = far_port.node
        if type(far) is not Host or far.failed or far.config.nic_pps is not None:
            return False
        switch.pipeline_passes += 1
        packet.pipeline_passes += 1
        ip.ttl -= 1
        switch.packets_sent += 1
        out_port.tx_packets += 1
        pass_at = arrival + switch.config.pipeline_delay
        latency = cfg.delay
        if cfg.bandwidth_bps:
            latency += size * 8.0 / cfg.bandwidth_bps
        if link.telemetry is not None:
            link.telemetry.link_tx(link, packet, latency, size, pass_at)
        link.stats.delivered += 1
        far.packets_received += 1
        far_port.rx_packets += 1
        far_arrival = pass_at + latency
        heappush(self.sim._queue, [far_arrival + far.config.stack_delay, seq, Host._dispatch,
                                   (far, packet, far_arrival, in_port, arrival, tx_at)])
        return True

    def _deliver(self, packet: Packet, dst_port: Port, tx_at: float) -> None:
        """Arrival of a fused host TX; ``tx_at`` rides on it for :func:`give_back`."""
        dst_port.node.receive(packet, dst_port)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.port_a.name} <-> {self.port_b.name})"


def _tx(packet: Packet, dst_port: Port, tx_at: Optional[float]) -> list:
    """The host TX onto ``dst_port``'s link fused into an entry, if ``tx_at`` is set."""
    if tx_at is None:
        return []
    link = dst_port.link
    src_port = link.other_end(dst_port)
    return [(tx_at, (link,), src_port.node.transmit, (packet, src_port),
             lambda: link._untransmit(packet, dst_port, tx_at))]


def _skipped(callback: Callable[..., None], args: tuple) -> list:
    """The events the heap entry ``callback(*args)`` skipped, in order, each
    as ``(time, what it reads, event callback, args, take-back)``: a fused
    pass (4-arg ``Switch._process``) skipped its arrival, behind its host's
    TX if ``tx_at`` is set; a fused TX's arrival (``Link._deliver``) the TX; a
    fused RX (bound ``Host._dispatch`` with 2 args) the arrival; a transparent
    pass (unbound ``Host._dispatch``) the TX, the switch's arrival, its pass
    and the far arrival.  What a hop reads decides its outcome; its take-back
    undoes what ``Link.transmit`` counted for it."""
    if callback is Host._dispatch:
        far, packet, far_arrival, in_port, arrival, tx_at = args
        switch = in_port.node
        far_port = far.uplink_port()
        pass_at = arrival + switch.config.pipeline_delay

        def unpass() -> None:
            switch.pipeline_passes -= 1
            packet.pipeline_passes -= 1
            packet.ip.ttl += 1
            far_port.link._untransmit(packet, far_port, pass_at)

        return _tx(packet, in_port, tx_at) + [
            (arrival, (switch,), switch.receive, (packet, in_port), None),
            (pass_at, (switch, switch.forwarding_table, far_port.link), switch._process,
             (packet, in_port), unpass),
            (far_arrival, (far,), far.receive, (packet, far_port), None)]
    func = getattr(callback, "__func__", None)
    if func is Switch._process and len(args) == 4:
        packet, port, arrival, tx_at = args
        return _tx(packet, port, tx_at) + [
            (arrival, (port.node,), port.node.receive, (packet, port), None)]
    if func is Link._deliver:
        return _tx(*args)
    if func is Host._dispatch and len(args) == 2:
        host = callback.__self__
        return [(args[1], (host,), host.receive, (args[0], host.uplink_port()), None)]
    return []


def give_back(sim: "Simulator", *changed) -> None:
    """Give each fused entry with a skipped hop that has not run and reads
    something in ``changed`` (a link, a node, a switch's forwarding table) its
    earliest skipped event that has not run, under its own seq, and take back
    what the skipped hops from that one onward counted: whatever fault lands
    first meets the packet where a hop-by-hop run would have had it."""

    def rewrite(entry: list) -> None:
        hops = [hop for hop in _skipped(entry[2], entry[3]) if not sim.has_run(hop[0], entry[1])]
        if any(read is thing for hop in hops for read in hop[1] for thing in changed):
            for hop in hops:
                if hop[4] is not None:
                    hop[4]()
            entry[0], entry[2], entry[3] = hops[0][0], hops[0][2], hops[0][3]

    sim.refile(rewrite)


def connect(sim: "Simulator", node_a, node_b, config: Optional[LinkConfig] = None,
            rng: Optional[random.Random] = None) -> Link:
    """Create a new port on each node and wire them with a link."""
    port_a = node_a.add_port()
    port_b = node_b.add_port()
    return Link(sim, port_a, port_b, config=config, rng=rng)
