"""Packet model: Ethernet / IPv4 / UDP headers and a structured payload.

NetChain queries are UDP packets with a custom header stack
(Figure 2(b) of the paper)::

    ETH | IP | UDP | OP KEY VALUE SC S0 S1 ... Sk SEQ

The simulator keeps headers as small slotted dataclasses for speed; the
wire encoding, which only tests use (``tests/test_packet.py`` checks the
format fits in a jumbo frame), is provided by ``to_bytes``/``from_bytes``
on each header.  :class:`Packet` itself is a hand-rolled ``__slots__`` class
because packet construction is on the per-query hot path.
"""

from __future__ import annotations

import ipaddress
import itertools
import struct
from dataclasses import dataclass
from typing import Any, Optional

#: UDP destination port reserved for NetChain queries (Section 3).
NETCHAIN_UDP_PORT = 8123

#: Maximum Ethernet jumbo frame payload, which bounds value size (Section 6).
JUMBO_FRAME_BYTES = 9000

_packet_ids = itertools.count(1)


def ip_to_int(addr: str) -> int:
    """Convert dotted-quad to a 32-bit integer."""
    return int(ipaddress.IPv4Address(addr))


def int_to_ip(value: int) -> str:
    """Convert a 32-bit integer to dotted-quad."""
    return str(ipaddress.IPv4Address(value))


@dataclass(slots=True, frozen=True)
class EthernetHeader:
    """Layer-2 header.  MAC addresses are plain strings (``"02:00:00:00:00:01"``).

    Frozen: nothing in the simulator switches on layer 2, so every packet
    built without one shares :data:`_DEFAULT_ETH`.
    """

    src_mac: str = "02:00:00:00:00:00"
    dst_mac: str = "02:00:00:00:00:00"
    ethertype: int = 0x0800

    HEADER_BYTES = 14

    def to_bytes(self) -> bytes:
        def mac_bytes(mac: str) -> bytes:
            return bytes(int(part, 16) for part in mac.split(":"))

        return mac_bytes(self.dst_mac) + mac_bytes(self.src_mac) + struct.pack("!H", self.ethertype)

    @classmethod
    def from_bytes(cls, data: bytes) -> "EthernetHeader":
        def bytes_mac(raw: bytes) -> str:
            return ":".join(f"{b:02x}" for b in raw)

        dst = bytes_mac(data[0:6])
        src = bytes_mac(data[6:12])
        (ethertype,) = struct.unpack("!H", data[12:14])
        return cls(src_mac=src, dst_mac=dst, ethertype=ethertype)

    def copy(self) -> "EthernetHeader":
        return EthernetHeader(self.src_mac, self.dst_mac, self.ethertype)


@dataclass(slots=True)
class IPv4Header:
    """Layer-3 header.  Only the fields the protocols need are modelled."""

    src_ip: str = "0.0.0.0"
    dst_ip: str = "0.0.0.0"
    ttl: int = 64
    protocol: int = 17  # UDP

    HEADER_BYTES = 20

    def to_bytes(self) -> bytes:
        return struct.pack(
            "!BBHHHBBHII",
            0x45,
            0,
            self.HEADER_BYTES,
            0,
            0,
            self.ttl,
            self.protocol,
            0,
            ip_to_int(self.src_ip),
            ip_to_int(self.dst_ip),
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "IPv4Header":
        fields = struct.unpack("!BBHHHBBHII", data[: cls.HEADER_BYTES])
        return cls(
            src_ip=int_to_ip(fields[8]),
            dst_ip=int_to_ip(fields[9]),
            ttl=fields[5],
            protocol=fields[6],
        )

    def copy(self) -> "IPv4Header":
        return IPv4Header(self.src_ip, self.dst_ip, self.ttl, self.protocol)


@dataclass(slots=True)
class UDPHeader:
    """Layer-4 header."""

    src_port: int = 0
    dst_port: int = 0
    length: int = 8

    HEADER_BYTES = 8

    def to_bytes(self) -> bytes:
        return struct.pack("!HHHH", self.src_port, self.dst_port, self.length, 0)

    @classmethod
    def from_bytes(cls, data: bytes) -> "UDPHeader":
        src, dst, length, _checksum = struct.unpack("!HHHH", data[: cls.HEADER_BYTES])
        return cls(src_port=src, dst_port=dst, length=length)

    def copy(self) -> "UDPHeader":
        return UDPHeader(self.src_port, self.dst_port, self.length)


_DEFAULT_ETH = EthernetHeader()

#: ETH + IP header bytes, the fixed part of every packet's wire size.
_BASE_HEADER_BYTES = EthernetHeader.HEADER_BYTES + IPv4Header.HEADER_BYTES

#: Full fixed overhead of a (non-)UDP packet, for hot paths that add the
#: payload size without a method call.
IP_WIRE_OVERHEAD = _BASE_HEADER_BYTES
UDP_WIRE_OVERHEAD = _BASE_HEADER_BYTES + UDPHeader.HEADER_BYTES


class Packet:
    """A simulated packet.

    ``payload`` is a structured object (for NetChain queries a
    :class:`repro.core.protocol.NetChainHeader`); ``payload_bytes`` is the
    size charged against link bandwidth and frame limits and is derived from
    the payload's declared wire size when available.

    Packets are mutated in place as they traverse the network (switches
    rewrite headers rather than copying, exactly like a real pipeline);
    :meth:`copy` exists for retransmissions, which need an independent
    header stack and a fresh identity.
    """

    __slots__ = ("eth", "ip", "udp", "payload", "payload_bytes", "packet_id",
                 "pipeline_passes", "created_at", "trace_id")

    def __init__(self, eth: Optional[EthernetHeader] = None,
                 ip: Optional[IPv4Header] = None,
                 udp: Optional[UDPHeader] = None,
                 payload: Any = None,
                 payload_bytes: int = 0,
                 packet_id: Optional[int] = None,
                 pipeline_passes: int = 0,
                 created_at: float = 0.0,
                 trace_id: int = 0) -> None:
        self.eth = eth if eth is not None else _DEFAULT_ETH
        self.ip = ip if ip is not None else IPv4Header()
        self.udp = udp
        self.payload = payload
        self.payload_bytes = payload_bytes
        self.packet_id = packet_id if packet_id is not None else next(_packet_ids)
        #: Number of switch pipeline traversals so far (used by capacity accounting).
        self.pipeline_passes = pipeline_passes
        #: Creation timestamp, stamped by hosts for latency measurement.
        self.created_at = created_at
        #: Telemetry trace id (0 = untraced); stamped by agents when the
        #: telemetry plane is on and carried across every hop and copy.
        self.trace_id = trace_id

    def size_bytes(self) -> int:
        """Total on-wire size of the packet."""
        if self.udp is not None:
            return _BASE_HEADER_BYTES + UDPHeader.HEADER_BYTES + self.payload_bytes
        return _BASE_HEADER_BYTES + self.payload_bytes

    def fits_in_jumbo_frame(self) -> bool:
        """Whether the packet respects the 9KB Ethernet jumbo-frame limit."""
        return self.size_bytes() <= JUMBO_FRAME_BYTES

    def copy(self) -> "Packet":
        """A shallow copy with a fresh packet id (used for retransmissions)."""
        payload = self.payload
        if hasattr(payload, "copy"):
            payload = payload.copy()
        return Packet(eth=self.eth.copy(), ip=self.ip.copy(),
                      udp=self.udp.copy() if self.udp is not None else None,
                      payload=payload, payload_bytes=self.payload_bytes,
                      pipeline_passes=self.pipeline_passes,
                      created_at=self.created_at,
                      trace_id=self.trace_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        proto = "udp" if self.udp is not None else "ip"
        return (
            f"Packet(id={self.packet_id}, {proto}, {self.ip.src_ip}->{self.ip.dst_ip}, "
            f"payload={self.payload!r})"
        )
