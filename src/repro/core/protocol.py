"""The NetChain packet format and query/reply helpers.

Figure 2(b) of the paper defines the custom header stack carried in a UDP
payload::

    OP | KEY | VALUE | SC | S0 S1 ... Sk | SEQ

plus the reserved UDP port that invokes the NetChain processing logic on a
switch.  This module defines that header as a dataclass with a byte-level
wire encoding (so tests can check that queries fit in a jumbo frame and
that value-size limits are enforced), the operation codes, and constructors
for the query and reply packets exchanged between agents and switches.

Extra fields beyond the figure:

* ``session`` -- the head session number used to order writes across head
  changes (Section 5.2, "Handling special cases"), compared
  lexicographically with the sequence number as in NOPaxos.
* ``vgroup`` -- the virtual group of the key, which the controller uses to
  scope recovery rules to one group at a time (Section 5.2, "Minimizing
  disruptions with virtual groups").
* ``query_id`` -- a client-chosen identifier used to match replies and make
  retries idempotent from the client's point of view.
* ``epoch`` -- the virtual group's chain-configuration number, stamped by
  the directory when the query is built.  A switch whose installed epoch for
  the group is newer drops the query (it was addressed under a superseded
  chain layout), which is what makes the planned-reconfiguration commit
  (``repro.core.reconfig``) safe against in-flight stragglers.
* ``cas_expected`` -- the comparison operand for the compare-and-swap
  operation used to build exclusive locks (Section 8.5).
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import List, Optional

from repro.core.client import canonical_key
from repro.netsim.packet import (
    NETCHAIN_UDP_PORT,
    IPv4Header,
    Packet,
    UDPHeader,
    int_to_ip,
    ip_to_int,
)

#: Fixed key width used by the prototype (Section 7: 16-byte keys).
KEY_BYTES = 16

#: Value layout of one pipeline pass (Fig. 3, Section 6): k = 8 stages of
#: n = 16 bytes.  A pass carries k*n bytes, the largest value the switch
#: store takes; the agent refuses a larger one at submit and the hybrid
#: store demotes it to the server tier.
VALUE_STAGES = 8
STAGE_VALUE_BYTES = 16
MAX_PROTOTYPE_VALUE_BYTES = VALUE_STAGES * STAGE_VALUE_BYTES

#: Allocate a globally unique query id (shared with header defaults, so
#: client-chosen ids never collide with implicitly numbered headers).
next_query_id = itertools.count(1).__next__


class OpCode(IntEnum):
    """NetChain operations (Section 4.1 plus the CAS used for locks)."""

    READ = 1
    WRITE = 2
    INSERT = 3
    DELETE = 4
    CAS = 5
    #: Hot-key tier clean-version notification (tail -> sibling replicas);
    #: switch-to-switch only, never sent by clients and never replied to.
    CLEAN = 6
    READ_REPLY = 17
    WRITE_REPLY = 18
    INSERT_REPLY = 19
    DELETE_REPLY = 20
    CAS_REPLY = 21


#: Reply op corresponding to each request op.
REPLY_FOR = {
    OpCode.READ: OpCode.READ_REPLY,
    OpCode.WRITE: OpCode.WRITE_REPLY,
    OpCode.INSERT: OpCode.INSERT_REPLY,
    OpCode.DELETE: OpCode.DELETE_REPLY,
    OpCode.CAS: OpCode.CAS_REPLY,
}

REQUEST_OPS = frozenset(REPLY_FOR) | {OpCode.CLEAN}
REPLY_OPS = frozenset(REPLY_FOR.values())


class QueryStatus(IntEnum):
    """Outcome reported in a reply."""

    OK = 0
    KEY_NOT_FOUND = 1
    CAS_FAILED = 2
    REJECTED = 3


class KeyTooLongError(ValueError):
    """A key whose canonical bytes do not fit the 16-byte header field."""

    def __init__(self, raw: bytes) -> None:
        super().__init__(f"key longer than {KEY_BYTES} bytes: {raw!r}")


def header_key(key) -> bytes:
    """The key a NetChain header carries: its :func:`canonical_key`
    spelling, refused when the 16-byte wire field cannot hold it."""
    raw = canonical_key(key)
    if len(raw) > KEY_BYTES:
        raise KeyTooLongError(raw)
    return raw


def normalize_value(value) -> bytes:
    """Encode a value as bytes."""
    if value is None:
        return b""
    if isinstance(value, bytes):
        return value
    return str(value).encode("utf-8")


@dataclass(slots=True)
class NetChainHeader:
    """The NetChain header carried in the UDP payload."""

    op: OpCode
    #: The key's :func:`canonical_key` bytes; only the wire field is
    #: NUL-padded to :data:`KEY_BYTES` (``to_bytes`` / ``from_bytes``).
    key: bytes
    value: bytes = b""
    seq: int = 0
    session: int = 0
    chain: List[str] = field(default_factory=list)
    vgroup: int = 0
    epoch: int = 0
    #: Drawn from :data:`next_query_id` only when the caller passes none
    #: (the agent passes the pending query's id, so an op consumes one).
    query_id: int = field(default_factory=next_query_id)
    status: QueryStatus = QueryStatus.OK
    cas_expected: Optional[bytes] = None

    # Wire layout: op(1) status(1) key(16) session(2) seq(4) vgroup(2)
    # epoch(2) query_id(8) sc(1) chain(4*sc) value_len(2) value cas_len(2) cas.
    _FIXED = struct.Struct("!BB16sHIHHQB")
    _FIXED_SIZE = _FIXED.size

    @property
    def sc(self) -> int:
        """Switch count: number of remaining chain hops stored in the header."""
        return len(self.chain)

    def wire_size(self) -> int:
        """Size of the encoded header in bytes: :data:`HEADER_BYTES`, 4 per
        chain hop, the value and the CAS operand."""
        size = HEADER_BYTES + 4 * len(self.chain) + len(self.value)
        if self.cas_expected is not None:
            size += len(self.cas_expected)
        return size

    def to_bytes(self) -> bytes:
        """Serialize to the wire format; ``16s`` NUL-pads the key, a longer one raises."""
        if len(self.key) > KEY_BYTES:
            raise KeyTooLongError(self.key)
        out = bytearray(self._FIXED.pack(
            int(self.op), int(self.status), self.key, self.session, self.seq,
            self.vgroup, self.epoch, self.query_id, len(self.chain)))
        for hop in self.chain:
            out += struct.pack("!I", ip_to_int(hop))
        out += struct.pack("!H", len(self.value))
        out += self.value
        cas = self.cas_expected if self.cas_expected is not None else b""
        out += struct.pack("!H", len(cas) if self.cas_expected is not None else 0xFFFF)
        out += cas
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "NetChainHeader":
        """Parse the wire format, stripping the key field's NUL padding."""
        (op, status, key, session, seq, vgroup, epoch, query_id,
         sc) = cls._FIXED.unpack_from(data, 0)
        offset = cls._FIXED.size
        chain = []
        for _ in range(sc):
            (addr,) = struct.unpack_from("!I", data, offset)
            chain.append(int_to_ip(addr))
            offset += 4
        (value_len,) = struct.unpack_from("!H", data, offset)
        offset += 2
        value = data[offset:offset + value_len]
        offset += value_len
        (cas_len,) = struct.unpack_from("!H", data, offset)
        offset += 2
        if cas_len == 0xFFFF:
            cas_expected: Optional[bytes] = None
        else:
            cas_expected = data[offset:offset + cas_len]
        return cls(OpCode(op), key.rstrip(b"\x00"), value, seq, session, chain, vgroup,
                   epoch, query_id, QueryStatus(status), cas_expected)

    def copy(self) -> "NetChainHeader":
        """Deep-enough copy for retransmissions and forwarding."""
        return NetChainHeader(self.op, self.key, self.value, self.seq, self.session,
                              list(self.chain), self.vgroup, self.epoch,
                              self.query_id, self.status, self.cas_expected)

    def is_request(self) -> bool:
        return self.op in REQUEST_OPS

    def is_reply(self) -> bool:
        return self.op in REPLY_OPS


#: Bytes of a header with no chain hop, value or CAS operand (fixed and length fields).
HEADER_BYTES = NetChainHeader._FIXED_SIZE + 4


def build_query_packet(client_ip: str, client_port: int, dst_ip: str,
                       header: NetChainHeader, created_at: float = 0.0) -> Packet:
    """Wrap a NetChain header into a UDP packet addressed to ``dst_ip``."""
    return Packet(None, IPv4Header(client_ip, dst_ip),
                  UDPHeader(client_port, NETCHAIN_UDP_PORT),
                  header, header.wire_size(), None, 0, created_at)


def make_read(key, chain_ips: List[str], vgroup: int = 0,
              epoch: int = 0) -> NetChainHeader:
    """Build a read query header.

    Read queries are addressed to the tail; the header carries the rest of
    the chain in *reverse* order so that failover rules on the tail's
    neighbours know where to redirect (Section 4.2).
    The caller addresses the packet to ``chain_ips[-1]`` (the tail); the
    header's chain list holds the remaining switches from the tail backwards.
    """
    return NetChainHeader(OpCode.READ, header_key(key), b"", 0, 0,
                          list(chain_ips[-2::-1]), vgroup, epoch)


def make_write(key, value, chain_ips: List[str], vgroup: int = 0,
               epoch: int = 0) -> NetChainHeader:
    """Build a write query header.

    Write queries are addressed to the head; the header carries the rest of
    the chain in traversal order (head to tail).
    """
    return NetChainHeader(OpCode.WRITE, header_key(key), normalize_value(value),
                          0, 0, list(chain_ips[1:]), vgroup, epoch)


def make_cas(key, expected, new_value, chain_ips: List[str], vgroup: int = 0,
             epoch: int = 0) -> NetChainHeader:
    """Build a compare-and-swap query (write path, conditional on ``expected``)."""
    return NetChainHeader(OpCode.CAS, header_key(key), normalize_value(new_value),
                          0, 0, list(chain_ips[1:]), vgroup, epoch,
                          cas_expected=normalize_value(expected))


def make_delete(key, chain_ips: List[str], vgroup: int = 0,
                epoch: int = 0) -> NetChainHeader:
    """Build a delete query header (data-plane invalidation; the control
    plane garbage-collects the slot, Section 4.1)."""
    return NetChainHeader(OpCode.DELETE, header_key(key), b"", 0, 0,
                          list(chain_ips[1:]), vgroup, epoch)


def make_clean(key, seq: int, session: int, vgroup: int = 0,
               epoch: int = 0) -> NetChainHeader:
    """Build a hot-key-tier clean-version notification.

    Sent by the wide-chain tail to its sibling replicas after it commits a
    write of a tier-managed key; carries the committed ``(session, seq)``
    so the replica can mark its copy clean (``repro.core.hotkeys``).
    """
    return NetChainHeader(op=OpCode.CLEAN, key=header_key(key), seq=seq,
                          session=session, vgroup=vgroup, epoch=epoch)
