"""Classical primary-backup replication (Figure 1(a)).

Included as the contrast case of Section 2.2: every query goes to the
primary, which must track each write at each backup and confirm with all of
them before replying.  A write therefore costs ``2n`` messages (versus
``n+1`` for chain replication) and requires per-query state at the primary
-- the two reasons the paper rules it out for a switch implementation.

The client is the server chain's
(:class:`~repro.baselines.chain_server.ServerChainClient`), connected once
to the primary for both reads and writes: the request and reply messages
are the same.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro.baselines.chain_server import ServerChainClient
from repro.netsim.host import Host
from repro.netsim.tcp import TcpConnection, TcpEndpoint
from repro.perfmodel.devices import SERVER_MESSAGE_BYTES

_client_ids = itertools.count(1)


class _Backup:
    """A backup replica: applies updates and acknowledges them."""

    def __init__(self, index: int, host: Host) -> None:
        self.index = index
        self.host = host
        self.store: Dict[str, Tuple[bytes, int]] = {}
        self.primary_endpoint: Optional[TcpEndpoint] = None
        self.updates_applied = 0

    def handle_message(self, message: Dict[str, Any]) -> None:
        if message.get("op") != "update":
            return
        if message.get("delete"):
            self.store.pop(message["key"], None)
        else:
            self.store[message["key"]] = (message["value"], message["version"])
        self.updates_applied += 1
        if self.primary_endpoint is not None:
            self.primary_endpoint.send({"op": "ack", "request_id": message["request_id"],
                                        "backup": self.index}, SERVER_MESSAGE_BYTES)


class _Primary:
    """The primary: serves reads, coordinates writes with all backups."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self.store: Dict[str, Tuple[bytes, int]] = {}
        self.backup_endpoints: List[TcpEndpoint] = []
        self.client_endpoints: Dict[str, TcpEndpoint] = {}
        #: Per-query state the primary must keep: outstanding acks per write.
        self.pending_writes: Dict[int, Dict[str, Any]] = {}
        self.messages_sent = 0

    def accept_client(self, client_name: str, endpoint: TcpEndpoint) -> None:
        self.client_endpoints[client_name] = endpoint
        endpoint.on_message = self.handle_message

    def handle_message(self, message: Dict[str, Any]) -> None:
        op = message.get("op")
        if op == "read":
            value, version = self.store.get(message["key"], (b"", 0))
            self._reply(message["client"], message["request_id"], "read", message["key"],
                        value, version)
        elif op in ("write", "cas", "delete"):
            stored_value, stored_version = self.store.get(message["key"], (b"", 0))
            if op == "cas" and stored_value != message.get("expected", b""):
                self._reply(message["client"], message["request_id"], "cas",
                            message["key"], stored_value, stored_version,
                            ok=False, cas_failed=True)
                return
            not_found = False
            if op == "delete":
                not_found = message["key"] not in self.store
                self.store.pop(message["key"], None)
                version = stored_version
                value = b""
            else:
                version = stored_version + 1
                value = message["value"]
                self.store[message["key"]] = (value, version)
            self.pending_writes[message["request_id"]] = {
                "message": message, "version": version, "value": value,
                "not_found": not_found,
                "awaiting": set(range(len(self.backup_endpoints))),
            }
            update = {"op": "update", "request_id": message["request_id"],
                      "key": message["key"], "value": value, "version": version,
                      "delete": op == "delete"}
            for endpoint in self.backup_endpoints:
                endpoint.send(update, SERVER_MESSAGE_BYTES)
                self.messages_sent += 1
            if not self.backup_endpoints:
                self._complete_write(message["request_id"])
        elif op == "ack":
            pending = self.pending_writes.get(message["request_id"])
            if pending is None:
                return
            pending["awaiting"].discard(message["backup"])
            if not pending["awaiting"]:
                self._complete_write(message["request_id"])

    def _complete_write(self, request_id: int) -> None:
        pending = self.pending_writes.pop(request_id, None)
        if pending is None:
            return
        message = pending["message"]
        self._reply(message["client"], request_id, message["op"], message["key"],
                    pending["value"], pending["version"],
                    not_found=pending["not_found"])

    def _reply(self, client: str, request_id: int, op: str, key: str,
               value: bytes, version: int, ok: bool = True,
               cas_failed: bool = False, not_found: bool = False) -> None:
        endpoint = self.client_endpoints.get(client)
        if endpoint is None:
            return
        endpoint.send({"kind": "reply", "request_id": request_id, "ok": ok, "op": op,
                       "key": key, "value": value, "version": version,
                       "cas_failed": cas_failed, "not_found": not_found},
                      SERVER_MESSAGE_BYTES)
        self.messages_sent += 1


class PrimaryBackupCluster:
    """A primary plus ``n-1`` backups, with a client factory."""

    def __init__(self, hosts: List[Host]) -> None:
        if not hosts:
            raise ValueError("primary-backup needs at least one server")
        self.primary = _Primary(hosts[0])
        self.backups = [_Backup(i, host) for i, host in enumerate(hosts[1:])]
        for backup in self.backups:
            conn = TcpConnection(self.primary.host, backup.host)
            primary_side = conn.endpoint(self.primary.host)
            backup_side = conn.endpoint(backup.host)
            backup.primary_endpoint = backup_side
            backup_side.on_message = backup.handle_message
            primary_side.on_message = self.primary.handle_message
            self.primary.backup_endpoints.append(primary_side)

    def messages_per_write(self) -> int:
        """Messages a write costs: request + n-1 updates + n-1 acks + reply
        (Section 2.2: 2n for primary-backup with n replicas)."""
        return 2 * (len(self.backups) + 1)

    def client(self, host: Host) -> "PrimaryBackupClient":
        return PrimaryBackupClient(host, self)

    def preload(self, items: Dict[str, bytes]) -> None:
        """Bulk-load keys on the primary and every backup directly."""
        for key, value in items.items():
            self.primary.store[key] = (value, 1)
            for backup in self.backups:
                backup.store[key] = (value, 1)


class PrimaryBackupClient(ServerChainClient):
    """A client that talks to the primary for both reads and writes: the
    chain client's protocol over one connection."""

    backend = "primary-backup"

    def __init__(self, host: Host, cluster: PrimaryBackupCluster) -> None:
        self.host = host
        self.sim = host.sim
        self.cluster = cluster
        # The name keys the per-client reply endpoint at the primary, so
        # several clients on one host must not collide.
        self.name = f"pb-client-{host.name}-{next(_client_ids)}"
        self._pending = {}
        self._head_endpoint = self._tail_endpoint = self._connect(cluster.primary)

