"""Server-based chain replication (the design NetChain moves into switches).

Section 2.2 motivates chain replication over classical primary-backup: in a
chain of ``n`` nodes a write costs ``n+1`` messages and needs no per-query
bookkeeping at the primary, which is what makes it implementable in a
switch ASIC.  This module implements the original, server-hosted protocol
(Van Renesse & Schneider, FAWN-KV style) on simulated hosts over the
reliable transport, both as a functional baseline and for the
message-count/latency ablation against NetChain and primary-backup.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro.core.client import KVClient, KVFuture, KVResult, canonical_key
from repro.core.protocol import normalize_value
from repro.netsim.host import Host
from repro.netsim.tcp import TcpConnection, TcpEndpoint
from repro.perfmodel.devices import SERVER_MESSAGE_BYTES

_request_ids = itertools.count(1)
_client_ids = itertools.count(1)


def key_str(key) -> str:
    """The wire spelling of a key: the servers store string keys."""
    return key.decode("utf-8", "replace") if isinstance(key, bytes) else str(key)


def reply_result(future: KVFuture, message, latency: float, backend: str) -> KVResult:
    """The :class:`KVResult` of the op behind ``future`` from its reply.

    A read of a key the servers never stored is ``not_found`` (the wire
    protocol reports an empty value at version 0); an ok op carries the
    servers' version as ``(0, version)``.
    """
    op = future.op
    value = message["value"]
    version = message["version"]
    cas_failed = message["cas_failed"]
    not_found = message["not_found"] or (op == "read" and version == 0 and not value)
    ok = message["ok"] and not not_found
    return KVResult(ok, op, future.key, value, not_found, cas_failed, False,
                    None if ok else ("cas_failed" if cas_failed
                                     else "key_not_found" if not_found
                                     else "failed"),
                    latency, 0, backend, (0, version) if ok else None)


class ServerChainReplica:
    """One server in the chain."""

    def __init__(self, index: int, host: Host) -> None:
        self.index = index
        self.host = host
        self.sim = host.sim
        self.store: Dict[str, Tuple[bytes, int]] = {}
        self.next_endpoint: Optional[TcpEndpoint] = None
        self.client_endpoints: Dict[str, TcpEndpoint] = {}
        self.messages_processed = 0

    def connect_next(self, endpoint: TcpEndpoint) -> None:
        """Attach the transport to the chain successor."""
        self.next_endpoint = endpoint

    def accept_client(self, client_name: str, endpoint: TcpEndpoint) -> None:
        """Attach a client connection."""
        self.client_endpoints[client_name] = endpoint
        endpoint.on_message = self.handle_message

    def handle_message(self, message: Dict[str, Any]) -> None:
        """Process a read, a (possibly forwarded) write/cas, or a delete.

        A received message is shared with its sender and with every
        retransmission: it is read, never changed in place.
        """
        self.messages_processed += 1
        op = message["op"]
        key = message["key"]
        if op == "read":
            value, version = self.store.get(key, (b"", 0))
            self._reply(message, value, version)
        elif op == "write" or op == "cas":
            version = message.get("version")
            if version is None:
                # Head of the chain: it assigns the version, and evaluates
                # a CAS comparison once; an accepted CAS propagates down
                # the chain exactly like a write (the resolved version
                # travels with it).
                stored_value, stored_version = self.store.get(key, (b"", 0))
                if op == "cas" and stored_value != message["expected"]:
                    self._reply(message, stored_value, stored_version,
                                ok=False, cas_failed=True)
                    return
                version = stored_version + 1
                message = {**message, "version": version}
            value = message["value"]
            self.store[key] = (value, version)
            if self.next_endpoint is not None:
                self.next_endpoint.send(message, SERVER_MESSAGE_BYTES)
            else:
                self._reply(message, value, version)
        elif op == "delete":
            if "existed" not in message:
                message = {**message, "existed": key in self.store}
            self.store.pop(key, None)
            if self.next_endpoint is not None:
                self.next_endpoint.send(message, SERVER_MESSAGE_BYTES)
            else:
                self._reply(message, not_found=not message["existed"])

    def _reply(self, message: Dict[str, Any], value: bytes = b"", version: int = 0,
               ok: bool = True, cas_failed: bool = False,
               not_found: bool = False) -> None:
        endpoint = self.client_endpoints.get(message["client"])
        if endpoint is None:
            return
        endpoint.send({"kind": "reply", "request_id": message["request_id"], "ok": ok,
                       "op": message["op"], "key": message["key"], "value": value,
                       "version": version, "cas_failed": cas_failed,
                       "not_found": not_found}, SERVER_MESSAGE_BYTES)


class ServerChainClient(KVClient):
    """A client of the server chain: writes go to the head, reads to the tail.

    Each of the five :class:`~repro.core.client.KVClient` operations is a
    ``*_async`` request whose :class:`KVFuture` :meth:`_on_reply` resolves
    with :func:`reply_result`.  ``insert`` is a write (the servers create a
    key on its first write); values are spelled by
    :func:`~repro.core.protocol.normalize_value`.
    """

    backend = "server-chain"

    def __init__(self, host: Host, cluster: "ServerChainCluster") -> None:
        self.host = host
        self.sim = host.sim
        self.cluster = cluster
        # The name keys the per-client reply endpoints on the replicas, so
        # several clients on one host must not collide.
        self.name = f"chain-client-{host.name}-{next(_client_ids)}"
        #: ``request_id -> (future, sent_at)``.
        self._pending: Dict[int, Tuple[KVFuture, float]] = {}
        # One connection to the head (writes) and one to the tail (replies
        # and reads), as in the original protocol.
        self._head_endpoint = self._connect(cluster.head())
        self._tail_endpoint = self._connect(cluster.tail())

    def _connect(self, replica) -> TcpEndpoint:
        conn = TcpConnection(self.host, replica.host)
        replica.accept_client(self.name, conn.endpoint(replica.host))
        endpoint = conn.endpoint(self.host)
        endpoint.on_message = self._on_reply
        return endpoint

    def read(self, key) -> KVFuture:
        return self.read_async(key)

    def write(self, key, value) -> KVFuture:
        return self.write_async(key, normalize_value(value))

    def cas(self, key, expected, new_value) -> KVFuture:
        return self.cas_async(key, normalize_value(expected), normalize_value(new_value))

    def delete(self, key) -> KVFuture:
        return self.delete_async(key)

    def insert(self, key, value=b"") -> KVFuture:
        return self.write_async(key, normalize_value(value), "insert")

    def read_async(self, key) -> KVFuture:
        return self._submit("read", "read", key, b"", self._tail_endpoint)

    def write_async(self, key, value: bytes, op: str = "write") -> KVFuture:
        """``op`` is what the future reports: an insert is a write on the wire."""
        return self._submit(op, "write", key, value, self._head_endpoint)

    def cas_async(self, key, expected: bytes, new_value: bytes) -> KVFuture:
        return self._submit("cas", "cas", key, new_value, self._head_endpoint, expected)

    def delete_async(self, key) -> KVFuture:
        return self._submit("delete", "delete", key, b"", self._head_endpoint)

    def _submit(self, op: str, wire_op: str, key, value: bytes, endpoint: TcpEndpoint,
                expected: bytes = b"") -> KVFuture:
        request_id = next(_request_ids)
        future = KVFuture(self.sim, op, canonical_key(key))
        self._pending[request_id] = (future, self.sim.now)
        endpoint.send({"kind": "request", "request_id": request_id, "op": wire_op,
                       "key": key_str(key), "value": value, "client": self.name,
                       "expected": expected}, SERVER_MESSAGE_BYTES)
        return future

    def _on_reply(self, message: Dict[str, Any]) -> None:
        if message.get("kind") != "reply":
            return
        pending = self._pending.pop(message.get("request_id"), None)
        if pending is None:
            return
        future, sent_at = pending
        future.resolve(reply_result(future, message, self.sim.now - sent_at,
                                    self.backend))


class ServerChainCluster:
    """A chain of replicas on servers, plus client factory."""

    def __init__(self, hosts: List[Host]) -> None:
        if not hosts:
            raise ValueError("a chain needs at least one server")
        self.replicas = [ServerChainReplica(i, host)
                         for i, host in enumerate(hosts)]
        for left, right in zip(self.replicas, self.replicas[1:], strict=False):
            conn = TcpConnection(left.host, right.host)
            left.connect_next(conn.endpoint(left.host))
            right_endpoint = conn.endpoint(right.host)
            right_endpoint.on_message = right.handle_message

    def head(self) -> ServerChainReplica:
        return self.replicas[0]

    def tail(self) -> ServerChainReplica:
        return self.replicas[-1]

    def client(self, host: Host) -> ServerChainClient:
        """Create a client attached to this chain."""
        return ServerChainClient(host, self)

    def preload(self, items: Dict[str, bytes]) -> None:
        """Bulk-load keys on every replica without simulating the writes."""
        for key, value in items.items():
            for replica in self.replicas:
                replica.store[key] = (value, 1)

    def messages_per_write(self) -> int:
        """Messages a write costs end to end: n forwards + 1 reply
        (Section 2.2: n+1 for chain replication)."""
        return len(self.replicas) + 1

