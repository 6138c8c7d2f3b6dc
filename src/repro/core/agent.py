"""The NetChain client agent (Section 3, "NetChain client").

An agent runs on every host, translates key-value API calls into NetChain
query packets (the custom UDP format), addresses them to the right chain
switch (head for writes, tail for reads) using the consistent-hash
directory, gathers replies, and retries on timeout -- the paper's answer to
packet loss between the client and the chain (Section 4.3: "relies on
client-side retries ... because writes are idempotent, retrying is benign").

The agent implements the backend-agnostic :class:`repro.core.client.KVClient`
protocol: every operation returns a :class:`repro.core.client.KVFuture`
resolved when the reply (or a terminal retry failure) arrives, so the same
coordination recipes, load generators and benchmarks drive NetChain and the
ZooKeeper baseline interchangeably.  A query that exhausts its retries
resolves its future with ``timed_out=True``; it never raises.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Dict, Optional

from repro.core.client import KVClient, KVFuture, KVResult, canonical_key
from repro.core.protocol import (
    KEY_BYTES,
    MAX_PROTOTYPE_VALUE_BYTES,
    REPLY_OPS,
    KeyTooLongError,
    NetChainHeader,
    OpCode,
    QueryStatus,
    header_key,
    next_query_id,
    normalize_value,
)
from repro.netsim.host import Host
from repro.netsim.packet import NETCHAIN_UDP_PORT, IPv4Header, Packet, UDPHeader

_agent_ports = itertools.count(9000)

#: Hoisted enum members (member access is a metaclass lookup per use),
#: compared by identity: a header's ``op`` / ``status`` is always a member.
_READ = OpCode.READ
_OK = QueryStatus.OK
_KEY_NOT_FOUND = QueryStatus.KEY_NOT_FOUND
_CAS_FAILED = QueryStatus.CAS_FAILED


def _value_too_long(value: bytes) -> ValueError:
    """One pipeline pass carries the whole value (Section 6): the switch
    store has no room for a longer one, so the agent refuses it at submit."""
    return ValueError(f"value longer than {MAX_PROTOTYPE_VALUE_BYTES} bytes: "
                      f"{len(value)} bytes")


#: Retries before a query gives up with a ``timeout`` result.
MAX_RETRIES = 20


class _Pending(KVFuture):
    """One outstanding query, and the future its caller holds: one object
    per op, built positionally.

    The pending record stores the *operation*, not a frozen packet: every
    transmission (first send and each retry) re-resolves the chain through
    the directory, so a retry issued after a failover or a planned
    migration is addressed to the current chain with the current epoch.
    This mirrors a real client library refreshing its routing state and is
    what keeps retries useful across reconfigurations.  ``op`` is the
    future's operation name; ``code`` is the wire :class:`OpCode`.
    """

    __slots__ = ("code", "value", "cas_expected", "created_at", "retries", "timer",
                 "trace_id")

    def __init__(self, sim, op_name: str, key: bytes, code: OpCode, query_id: int,
                 value: bytes, cas_expected: Optional[bytes], created_at: float) -> None:
        # Every KVFuture slot, set here rather than through its __init__ (one
        # frame per query less); a slot added there must be added here.
        self.sim = sim
        self.op = op_name
        self.key = key
        self._result = None
        self._done = False
        self._callbacks = None
        self.query_id = query_id
        self.xid = None
        self.code = code
        self.value = value
        self.cas_expected = cas_expected
        self.created_at = created_at
        self.retries = 0
        self.timer = None
        #: Telemetry trace id (0 = untraced), stamped into every transmission.
        self.trace_id = 0


class NetChainAgent(KVClient):
    """Key-value client API backed by the in-network store."""

    backend = "netchain"

    def __init__(self, host: Host, directory, retry_timeout: float = 500e-6,
                 name: Optional[str] = None) -> None:
        """Args:
            host: the simulated machine this agent runs on.
            directory: an object with ``route_for_key(key) -> (ips, vgroup,
                epoch)`` and ``insert_key`` for inserts -- normally the
                :class:`repro.core.controller.NetChainController` itself.
            retry_timeout: how long to wait for a reply before retrying
                (seconds).
            name: label used in statistics.
        """
        self.host = host
        self.sim = host.sim
        self.directory = directory
        self.retry_timeout = retry_timeout
        self.name = name or f"agent-{host.name}"
        self.udp_port = next(_agent_ports)
        self.host.bind(self.udp_port, self._on_packet)
        self._pending: Dict[int, _Pending] = {}
        #: Optional hot-key-tier client cache
        #: (:class:`repro.core.hotkeys.ClientReadCache`); ``None`` keeps
        #: reads on the direct path.
        self.read_cache = None
        #: Hot-key-tier rotated-read routing, when the directory offers it.
        self._read_route = getattr(directory, "read_route_for_key", None)
        #: ``key -> (chain IPs, vgroup, epoch)``, called per transmission.
        self._route = directory.route_for_key
        #: Optional telemetry tracer (:class:`repro.core.trace.Tracer`);
        #: ``None`` keeps the query path untraced.
        self.telemetry = None
        # Statistics (per-kind latencies are the load client's).
        self.completed = 0
        self.failed = 0
        self.timeouts = 0
        self.retransmissions = 0

    # ------------------------------------------------------------------ #
    # Public API (futures; the KVClient protocol).
    # ------------------------------------------------------------------ #

    def read(self, key) -> KVFuture:
        """Read the value of ``key``; the reply comes from the chain tail
        (or, for a tier-managed hot key, a rotated chain replica)."""
        cache = self.read_cache
        if cache is not None:
            return cache.read(self, key)
        return self._submit(_READ, key, op_name="read")

    def write(self, key, value) -> KVFuture:
        """Write ``value`` under ``key``; the query enters at the chain head."""
        return self._submit(OpCode.WRITE, key, value=normalize_value(value),
                            op_name="write")

    def cas(self, key, expected, new_value) -> KVFuture:
        """Compare-and-swap, the primitive behind exclusive locks (Section 8.5)."""
        return self._submit(OpCode.CAS, key, value=normalize_value(new_value),
                            cas_expected=normalize_value(expected),
                            op_name="cas")

    def delete(self, key) -> KVFuture:
        """Invalidate ``key`` in the data plane (control plane GC happens later)."""
        return self._submit(OpCode.DELETE, key, op_name="delete")

    def insert(self, key, value=b"") -> KVFuture:
        """Insert a new key.

        Inserts are control-plane operations (Section 4.1): the controller
        installs index entries on the chain switches, which is much slower
        than a data-plane query.  The future resolves after the control-plane
        latency plus an initial write of the value.
        """
        key_bytes = header_key(key)
        raw_value = normalize_value(value)
        if len(raw_value) > MAX_PROTOTYPE_VALUE_BYTES:
            raise _value_too_long(raw_value)
        future = KVFuture(self.sim, op="insert", key=key_bytes)
        started = self.sim.now

        def finish(kv: KVResult) -> None:
            # The future reports the full elapsed time including the
            # control-plane install, which dominates.
            future.resolve(replace(kv, op="insert", latency=self.sim.now - started))

        def after_insert() -> None:
            if value:
                self.write(key, value).then(finish)
            else:
                finish(KVResult(True, "insert", key_bytes, backend=self.backend,
                                version=(0, 0)))

        self.directory.insert_key(key, on_done=after_insert)
        return future

    # ------------------------------------------------------------------ #
    # Internals.
    # ------------------------------------------------------------------ #

    def outstanding(self) -> int:
        """Number of queries awaiting a reply."""
        return len(self._pending)

    def _submit(self, op: OpCode, key, value: bytes = b"",
                cas_expected: Optional[bytes] = None,
                op_name: str = "") -> KVFuture:
        raw_key = canonical_key(key)  # header_key, inlined on the per-op path
        if len(raw_key) > KEY_BYTES:
            raise KeyTooLongError(raw_key)
        if value and len(value) > MAX_PROTOTYPE_VALUE_BYTES:
            raise _value_too_long(value)
        pending = _Pending(self.sim, op_name, raw_key, op, next_query_id(), value,
                           cas_expected, self.sim._now)
        self._pending[pending.query_id] = pending
        tel = self.telemetry
        if tel is not None:
            pending.trace_id = tel.query_submit(self, pending)
        self._transmit(pending)
        return pending

    def _transmit(self, pending: _Pending) -> None:
        """Send one transmission of ``pending``: its header spelled as
        ``make_read|write|cas|delete`` spell it and its packet as
        :func:`build_query_packet` does, each in one positional call that
        carries the query's id, key and value as normalised at submit."""
        op, key = pending.code, pending.key
        if op is _READ:
            hot = self._read_route(key) if self._read_route is not None else None
            if hot is not None:
                # Hot-key tier: rotate reads of widened keys across the wide
                # chain.  Re-resolved per transmission, so a retry issued
                # after a widen/narrow follows the current layout.
                dst_ip, suffix, vgroup, epoch = hot
                chain = list(suffix)
            else:
                # Addressed to the tail, the rest of the chain in reverse order.
                chain_ips, vgroup, epoch = self._route(key)
                dst_ip = chain_ips[-1]
                chain = list(chain_ips[-2::-1])
            header = NetChainHeader(_READ, key, b"", 0, 0, chain, vgroup, epoch,
                                    pending.query_id)
        else:
            # Write, CAS, delete: addressed to the head, the rest in chain order.
            chain_ips, vgroup, epoch = self._route(key)
            dst_ip = chain_ips[0]
            header = NetChainHeader(op, key, pending.value, 0, 0, list(chain_ips[1:]),
                                    vgroup, epoch, pending.query_id, _OK,
                                    pending.cas_expected)
        host = self.host
        packet = Packet(None, IPv4Header(host.ip, dst_ip),
                        UDPHeader(self.udp_port, NETCHAIN_UDP_PORT),
                        header, header.wire_size(), None, 0, pending.created_at)
        if pending.trace_id:
            packet.trace_id = pending.trace_id
            tel = self.telemetry
            if tel is not None:
                tel.query_tx(self, pending, dst_ip)
        host.send(packet)
        pending.timer = self.sim.schedule(
            self.retry_timeout, self._on_timeout, pending.query_id)

    def _on_timeout(self, query_id: int) -> None:
        pending = self._pending.get(query_id)
        if pending is None:
            return  # answered: a pending query leaves the table exactly once
        if pending.retries >= MAX_RETRIES:
            self._pending.pop(query_id, None)
            self.timeouts += 1
            self.failed += 1
            tel = self.telemetry
            if tel is not None:
                tel.query_timeout(self, pending)
            pending.resolve(KVResult(False, pending.op, pending.key, b"",
                                     False, False, True, "timeout",
                                     self.sim.now - pending.created_at, pending.retries,
                                     self.backend, (0, 0)))
            return
        pending.retries += 1
        self.retransmissions += 1
        self._transmit(pending)

    def _on_packet(self, packet: Packet) -> None:
        header = packet.payload
        if type(header) is not NetChainHeader:
            return
        op = header.op
        if op not in REPLY_OPS:
            return
        pending = self._pending.pop(header.query_id, None)
        if pending is None:
            return  # duplicate or late reply from a retried query
        if pending.timer is not None:
            pending.timer.cancel()
        latency = self.sim._now - pending.created_at
        status = header.status
        ok = status is _OK
        self.completed += 1
        if not ok:
            self.failed += 1
        tel = self.telemetry
        if tel is not None:
            tel.query_reply(self, pending, header, latency)
        pending.resolve(KVResult(ok, pending.op, pending.key, header.value,
                                 status is _KEY_NOT_FOUND, status is _CAS_FAILED, False,
                                 None if ok else status.name.lower(), latency,
                                 pending.retries, self.backend,
                                 (header.session, header.seq)))
