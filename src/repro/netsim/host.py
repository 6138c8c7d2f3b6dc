"""End-host model: NIC, software stack delay, and application sockets.

Hosts are where the latency of server-based coordination comes from
(Section 2.1): every message that crosses a server pays the host's software
stack.  The model exposes the two knobs the paper varies:

* ``stack_delay``: one-way processing delay of the host's network stack.
  A DPDK/kernel-bypass client pays a few microseconds; a kernel TCP stack
  pays tens of microseconds.
* ``nic_pps``: how many packets per second the host can send/receive.  The
  paper's DPDK clients achieve 20.5 MQPS on a 40G NIC.

Applications (the NetChain agent, the ZooKeeper server/client, ...) bind to
UDP ports on the host with :meth:`Host.bind`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.netsim.node import Node, Port, stable_name_seed
from repro.netsim.packet import IPv4Header, Packet, UDPHeader

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.engine import Simulator

PacketHandler = Callable[[Packet], None]


@dataclass
class HostConfig:
    """Host timing/capacity parameters.

    The defaults model a DPDK client as in Section 7 of the paper; use
    :func:`kernel_host_config` for a kernel-TCP host (ZooKeeper servers and
    clients).
    """

    #: One-way software stack delay in seconds.
    stack_delay: float = 4.3e-6
    #: Packets per second the host can emit and absorb, each way (NIC +
    #: stack limit).  ``None`` = unlimited.
    nic_pps: Optional[float] = 20.5e6
    #: Transmit queue limit in packets (tail drop beyond this).
    tx_queue_packets: int = 100000


def dpdk_host_config(nic_pps: Optional[float] = 20.5e6) -> HostConfig:
    """A kernel-bypass client host (Section 7: DPDK agent, 20.5 MQPS)."""
    return HostConfig(stack_delay=4.3e-6, nic_pps=nic_pps)


def kernel_host_config(nic_pps: Optional[float] = None) -> HostConfig:
    """A conventional kernel-TCP host (ZooKeeper servers/clients).

    The 40 us one-way stack delay reproduces the paper's observation that
    ZooKeeper reads take ~170 us end to end at low load (Section 8.2).
    """
    return HostConfig(stack_delay=40e-6, nic_pps=nic_pps)


class Host(Node):
    """A server machine with one uplink to its top-of-rack switch."""

    def __init__(self, sim: "Simulator", name: str, ip: str,
                 config: Optional[HostConfig] = None,
                 rng: Optional[random.Random] = None) -> None:
        super().__init__(sim, name, ip)
        self.config = config or HostConfig()
        self.rng = rng or random.Random(stable_name_seed(name))
        self._sockets: Dict[int, PacketHandler] = {}
        self._next_ephemeral_port = 40000
        self.default_handler: Optional[PacketHandler] = None
        self._tx_busy_until = 0.0
        self._rx_busy_until = 0.0
        self.tx_dropped = 0
        self.failed = False
        #: The uplink, remembered by the first :meth:`send` that finds one
        #: (hosts are single-homed and a link, once plugged, stays).
        self._uplink: Optional[Port] = None
        #: dst IP -> the clean path ``link.carry`` resolved to it, stamped.
        self._routes: Dict[str, tuple] = {}
        #: Optional telemetry tracer (:class:`repro.core.trace.Tracer`),
        #: told of every packet's stack and NIC-queue time.
        self.telemetry = None

    # ------------------------------------------------------------------ #
    # Socket API.
    # ------------------------------------------------------------------ #

    def bind(self, udp_port: int, handler: PacketHandler) -> None:
        """Register ``handler`` for packets whose UDP destination port matches."""
        self._sockets[udp_port] = handler

    def unbind(self, udp_port: int) -> None:
        """Remove a previously bound handler."""
        self._sockets.pop(udp_port, None)

    def ephemeral_port(self) -> int:
        """The next unused ephemeral UDP port of this host (40000 upwards)."""
        port = self._next_ephemeral_port
        self._next_ephemeral_port = port + 1
        return port

    def uplink_port(self) -> Optional[Port]:
        """The host's single uplink port (hosts are single-homed here)."""
        for port in self.ports.values():
            if port.link is not None:
                return port
        return None

    # ------------------------------------------------------------------ #
    # Send path.
    # ------------------------------------------------------------------ #

    def send(self, packet: Packet) -> None:
        """Send a packet out of the uplink after stack delay and NIC pacing."""
        if self.failed:
            return
        port = self._uplink
        if port is None:
            port = self._uplink = self.uplink_port()
            if port is None:
                self.packets_dropped += 1
                return
        cfg = self.config
        delay = cfg.stack_delay
        if cfg.nic_pps:
            # The packet waits behind the TX backlog, but its own (scaled)
            # service slot is not charged to its latency -- the scaled rate
            # models the host's query-rate ceiling, not per-packet delay.
            now = self.sim._now
            service = 1.0 / cfg.nic_pps
            busy_until = self._tx_busy_until
            backlog = busy_until - now
            if backlog < 0.0:
                backlog = 0.0
                busy_until = now
            if backlog / service >= cfg.tx_queue_packets:
                self.tx_dropped += 1
                return
            self._tx_busy_until = busy_until + service
            delay += backlog
        packet.ip.src_ip = packet.ip.src_ip or self.ip
        tel = self.telemetry
        if tel is not None:
            tel.host_tx(self, packet, delay)
        link = port.link
        if link.up and link.faults is None:
            # Nothing can observe the TX hop: transmit now, as of its time.
            # (``link._route`` makes this clean-link test on both its links.)
            self.packets_sent += 1
            port.tx_packets += 1
            link.transmit(packet, port, self.sim._now + delay)
            return
        self.sim.call_after(delay, self.transmit, packet, port)

    def send_udp(self, dst_ip: str, dst_port: int, payload, payload_bytes: int,
                 src_port: int = 0) -> Packet:
        """Convenience wrapper that builds and sends a UDP packet."""
        packet = Packet(None, IPv4Header(self.ip, dst_ip),
                        UDPHeader(src_port, dst_port),
                        payload, payload_bytes, None, 0, self.sim._now)
        self.send(packet)
        return packet

    # ------------------------------------------------------------------ #
    # Receive path.
    # ------------------------------------------------------------------ #

    def receive(self, packet: Packet, port: Port) -> None:
        if self.failed:
            return
        cfg = self.config
        delay = cfg.stack_delay
        pps = cfg.nic_pps
        if pps:
            now = self.sim._now
            busy_until = self._rx_busy_until
            backlog = busy_until - now
            if backlog < 0.0:
                backlog = 0.0
                busy_until = now
            self._rx_busy_until = busy_until + 1.0 / pps
            delay += backlog
        tel = self.telemetry
        if tel is not None:
            tel.host_rx(self, packet, delay, self.sim._now)
        self.sim.call_after(delay, self._dispatch, packet)

    def _dispatch(self, packet: Packet, arrival: Optional[float] = None) -> None:
        # ``arrival`` rides on a fused RX (Link.transmit), for ``link.give_back``.
        if self.telemetry is not None and arrival is not None:
            self.telemetry.host_rx(self, packet, self.config.stack_delay, arrival)
        if self.failed:
            return
        handler: Optional[PacketHandler] = None
        if packet.udp is not None:
            handler = self._sockets.get(packet.udp.dst_port)
        if handler is None:
            handler = self.default_handler
        if handler is None:
            self.packets_dropped += 1
            return
        handler(packet)

    # ------------------------------------------------------------------ #
    # Failure injection.
    # ------------------------------------------------------------------ #

    def fail(self) -> None:
        """Fail-stop the host; a fused hop that would meet it first comes back."""
        from repro.netsim.link import give_back  # link imports this module
        self.failed = True
        give_back(self.sim, self)

    def recover_device(self) -> None:
        """Bring the host back up."""
        self.failed = False
        self._tx_busy_until = 0.0
        self._rx_busy_until = 0.0

