"""Programmable switch model.

This is the stand-in for a Barefoot Tofino switch: a device with

* an L3 forwarding table (dest-IP based, installed by the underlay routing
  protocol, Section 4.2 -- "standard L3 routing that forwards packets based
  on destination IP"),
* a programmable match-action pipeline on which data-plane programs such as
  the NetChain program (:mod:`repro.core.switch_program`) are installed,
* per-stage register arrays with an SRAM budget (:mod:`repro.netsim.registers`)
  -- accounted, not emulated: a program charges the bytes its hardware
  layout would hold (the NetChain store charges Fig. 3's eight 16-byte value
  stages per slot) and keeps its state in plain lists,
* a packet-processing capacity (packets per second) and a sub-microsecond
  pipeline delay, the two constants of Table 1 that make switches orders of
  magnitude faster than servers.

Capacity is modelled as a single-server queue: each pipeline pass occupies
``1/capacity_pps`` seconds of the pipeline (a throughput ceiling: a packet
waits out the backlog ahead of it, not its own slot), and packets beyond the
ingress queue limit are tail-dropped.  The paper's testbed mode processes every
query packet twice per switch (once in each direction); this emerges
naturally here because a query traverses the same switch on its way up and
down the topology.

Every value fits one pipeline pass (k*n = 128 bytes, Section 6): the
NetChain client refuses a larger one at submit, so no packet ever needs a
recirculation pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum, auto
from heapq import heappush
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.netsim.engine import Event
from repro.netsim.node import Node, Port, stable_name_seed
from repro.netsim.packet import IP_WIRE_OVERHEAD, UDP_WIRE_OVERHEAD, Packet
from repro.netsim.registers import RegisterFile

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.engine import Simulator


class PipelineAction(Enum):
    """What a pipeline program decided to do with a packet."""

    #: Not interesting to this program; keep going (next program, then L3).
    CONTINUE = auto()
    #: Program rewrote the packet; forward it using the L3 table.
    FORWARD = auto()
    #: Drop the packet.
    DROP = auto()


#: Module-level aliases: enum member access is an attribute lookup per use,
#: and the pipeline compares actions for every packet.
_DROP = PipelineAction.DROP
_FORWARD = PipelineAction.FORWARD

#: What a resolved hop (``link._hop``) pushes at its far end.
_PASS, _DISPATCH, _RECEIVE = "pass", "dispatch", "receive"


class PipelineProgram:
    """Interface for data-plane programs installed on a switch."""

    def process(self, switch: "Switch", packet: Packet, in_port: Port) -> PipelineAction:
        """Inspect/modify ``packet``; return the action the switch should take."""
        raise NotImplementedError


@dataclass
class SwitchConfig:
    """Resource and timing parameters of one switch.

    Defaults correspond to the paper's Tofino numbers (Table 1 and
    Section 7) scaled by ``1.0`` -- callers pass scaled-down capacities for
    tractable simulations (see ``repro.perfmodel.devices``).
    """

    #: Packets per second the pipeline can process.  ``None`` = unlimited.
    capacity_pps: Optional[float] = None
    #: Pipeline (per-pass) processing delay in seconds.
    pipeline_delay: float = 0.5e-6
    #: On-chip SRAM budget available to NetChain, in bytes (Section 7: 8 MB
    #: of slots; Section 6 argues ~10 MB per switch is realistic).
    sram_bytes: Optional[int] = 10 * 1024 * 1024
    #: Ingress queue limit in packets (tail drop beyond this).
    ingress_queue_packets: int = 10000


class Switch(Node):
    """A programmable switch: L3 forwarding plus a match-action pipeline.

    :meth:`receive` decides fail-stop and injected loss at arrival; :meth:`_process`, one
    frame, queues the packet as of its arrival, runs or defers the pass (pushed with no
    arrival event for a live switch without loss) and pushes the next hop itself.
    With no rate limit and no program the switch is transparent: a TCP segment
    between two hosts on it is carried past it by ``link.carry`` (no packet, no
    pass event), its pass counted.
    """

    def __init__(self, sim: "Simulator", name: str, ip: str,
                 config: Optional[SwitchConfig] = None,
                 rng: Optional[random.Random] = None) -> None:
        super().__init__(sim, name, ip)
        self.config = config or SwitchConfig()
        self.rng = rng or random.Random(stable_name_seed(name))
        #: dest-IP -> egress port, installed by the underlay routing protocol.
        self.forwarding_table: Dict[str, Port] = {}
        #: dest-IP -> the clean next hop ``link._hop`` resolved from it, stamped.
        self._hops: Dict[str, tuple] = {}
        #: Data-plane programs, run in order on every packet.
        self.programs: List[PipelineProgram] = []
        #: Register arrays (switch SRAM).
        self.registers = RegisterFile(sram_bytes=self.config.sram_bytes)
        self._injected_loss_rate = 0.0
        # Capacity accounting (single-server queue).
        self._busy_until = 0.0
        self.pipeline_passes = 0
        self.dropped_capacity = 0
        self.dropped_no_route = 0
        self.dropped_injected = 0
        self.dropped_by_program = 0
        self.dropped_not_serving = 0
        #: When ``True`` the switch silently discards everything (fail-stop).
        self.failed = False
        #: Optional telemetry tracer (:class:`repro.core.trace.Tracer`),
        #: told of every packet as it is queued.
        self.telemetry = None
        #: Largest queue wait admitted since the last metrics tick (tracer-kept).
        self.tel_wait = 0.0
        #: Gray failure: when ``False`` the switch still performs L3 transit
        #: forwarding but no longer runs its pipeline programs, so packets
        #: addressed to the device itself (NetChain queries, control traffic)
        #: are silently discarded.  This is the partial-failure mode the
        #: fault injector uses to exercise failure *detection*: the device
        #: looks alive to the underlay but is dead to the service.
        self.serving = True

    # ------------------------------------------------------------------ #
    # Resource helpers used by data-plane programs.
    # ------------------------------------------------------------------ #

    def install_program(self, program: PipelineProgram) -> None:
        """Append a data-plane program to the pipeline; the first one ends the
        switch's transparency, so a pass it skipped comes back to meet it."""
        from repro.netsim.link import give_back  # link imports this module
        if not self.programs:
            give_back(self.sim, self)
        self.programs.append(program)

    # ------------------------------------------------------------------ #
    # Packet path.
    # ------------------------------------------------------------------ #

    def receive(self, packet: Packet, port: Port) -> None:
        if self.failed:
            self.packets_dropped += 1
            return
        if self._injected_loss_rate > 0 and self.rng.random() < self._injected_loss_rate:
            self.dropped_injected += 1
            return
        # Three args: a pass whose arrival ran (``link._skipped`` reads four as fused).
        self.sim.call_after(self.config.pipeline_delay, self._process, packet, port,
                            self.sim._now)

    def _process(self, packet: Packet, port: Port, arrival: Optional[float] = None,
                 tx_at: Optional[float] = None, entry: Optional[list] = None) -> None:
        """Queue a pass carrying its ``arrival`` as of then (``tx_at`` is for refiles; ``entry``
        is one :meth:`recover_device` re-admits); push its next hop as ``Link.transmit`` would."""
        sim = self.sim
        if arrival is not None:
            config = self.config
            backlog = 0.0
            pps = config.capacity_pps
            if pps is not None:
                busy_until = self._busy_until
                backlog = busy_until - arrival
                if backlog < 0.0:
                    backlog = 0.0
                    busy_until = arrival
                service_time = 1.0 / pps
                if backlog / service_time >= config.ingress_queue_packets:
                    self.dropped_capacity += 1
                    if entry is not None:
                        Event(sim, entry).cancel()
                    return
                self._busy_until = busy_until + service_time
            if self.telemetry is not None:
                self.telemetry.switch_enq(self, packet, backlog, arrival)
            if entry is not None:
                entry[0], entry[3] = arrival + (backlog + config.pipeline_delay), (packet, port)
                return
            if backlog > 0.0:
                sim._seq += 1
                heappush(sim._queue, [arrival + (backlog + config.pipeline_delay),
                                      sim._seq - 1, self._process, (packet, port)])
                return
        if self.failed:
            # Admitted before fail() and due after it: received, so dropped.
            self.packets_dropped += 1
            return
        self.pipeline_passes += 1
        packet.pipeline_passes += 1
        ip = packet.ip
        if self.serving:
            for program in self.programs:
                action = program.process(self, packet, port)
                if action is _DROP:
                    self.dropped_by_program += 1
                    return
                if action is _FORWARD:
                    break
        elif ip.dst_ip == self.ip:
            self.dropped_not_serving += 1
            return
        dst_ip = ip.dst_ip
        hop = self._hops.get(dst_ip)
        if hop is None or hop[0] != sim._stamp:
            hop = _link._hop(self, dst_ip)
            if hop is None:
                self.forward(packet)
                return
            self._hops[dst_ip] = hop
        (_stamp, out_port, link, stats, far_port, far, delay, bandwidth, kind, callback,
         far_delay) = hop
        ttl = ip.ttl - 1
        ip.ttl = ttl
        if ttl <= 0:
            self.packets_dropped += 1
            return
        # forward's and Link.transmit's counts, and transmit's push, in their order.
        self.packets_sent += 1
        out_port.tx_packets += 1
        size = packet.payload_bytes + (
            UDP_WIRE_OVERHEAD if packet.udp is not None else IP_WIRE_OVERHEAD)
        latency = delay + size * 8.0 / bandwidth if bandwidth else delay
        now = sim._now
        if link.telemetry is not None:
            link.telemetry.link_tx(link, packet, latency, size, now)
        stats.delivered += 1
        far.packets_received += 1
        far_port.rx_packets += 1
        seq = sim._seq
        sim._seq = seq + 1
        arrival = now + latency
        heappush(sim._queue, [arrival + far_delay, seq, callback,
                              (packet, far_port, arrival, None) if kind is _PASS
                              else (packet, arrival) if kind is _DISPATCH
                              else (packet, far_port)])

    def forward(self, packet: Packet) -> None:
        """L3 forward based on destination IP.  The underlay installs no
        route to a switch's own IP, so a packet addressed to the switch that
        no program answered counts in ``dropped_no_route``."""
        ip = packet.ip
        out_port = self.forwarding_table.get(ip.dst_ip)
        if out_port is None:
            self.dropped_no_route += 1
            return
        ttl = ip.ttl - 1
        ip.ttl = ttl
        if ttl <= 0:
            self.packets_dropped += 1
            return
        self.transmit(packet, out_port)

    # ------------------------------------------------------------------ #
    # Failure injection (Section 5 / Section 8.4).
    # ------------------------------------------------------------------ #

    @property
    def injected_loss_rate(self) -> float:
        """Per-switch loss injection (Figure 9(d)), drawn at arrival."""
        return self._injected_loss_rate

    @injected_loss_rate.setter
    def injected_loss_rate(self, rate: float) -> None:
        from repro.netsim.link import give_back  # link imports this module
        self._injected_loss_rate = rate
        if rate > 0:
            give_back(self.sim, self)

    def fail(self) -> None:
        """Fail-stop: the switch stops processing and forwarding packets."""
        from repro.netsim.link import give_back  # link imports this module
        self.failed = True
        give_back(self.sim, self)

    def fail_gray(self) -> None:
        """Gray failure: keep forwarding transit traffic but stop serving
        packets addressed to this device (pipeline programs are skipped)."""
        self.serving = False

    def recover_device(self) -> None:
        """Bring the device back up (its NetChain state is *not* restored;
        the controller's failure-recovery protocol handles state).  What
        arrived before is queued first, against the backlog the reset forgets."""
        self.failed = False
        self.serving = True
        sim = self.sim

        def admitted(entry: list) -> None:
            args = entry[3]
            if (entry[2] == self._process and len(args) > 2 and self.config.capacity_pps
                    and (len(args) == 3 or sim.has_run(args[2], entry[1]))):
                self._process(args[0], args[1], args[2], None, entry)

        sim.refile(admitted)
        self._busy_until = 0.0


from repro.netsim import link as _link  # noqa: E402 (bound last: link imports this module)
