"""A ZooKeeper-like coordination service: ZAB ensemble over TCP.

This is the server-based comparison system of Section 8.  It reproduces the
architectural properties that determine ZooKeeper's performance envelope,
which is what the evaluation contrasts NetChain against:

* every query crosses the servers' kernel TCP stack and is processed by
  server CPUs (Table 1: tens of microseconds and hundreds of thousands of
  messages per second, versus the switch ASIC's nanoseconds and billions),
* reads are served locally by the server a client is connected to,
* writes are forwarded to the **leader**, which runs a ZAB-style atomic
  broadcast: log-sync, proposal to the followers, quorum of ACKs, commit --
  several messages per write all funnelled through the leader, plus a group
  commit (fsync) delay,
* all communication uses the reliable transport of
  :mod:`repro.netsim.tcp`, whose retransmission timeouts are what collapses
  throughput under packet loss (Figure 9(d)).

The data model (znodes, ephemerals, sequentials, watches) lives in
:mod:`repro.baselines.data_tree`; the client and recipes in
:mod:`repro.baselines.zk_client`.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro.baselines.data_tree import DataTree, ZnodeError
from repro.netsim.host import Host
from repro.netsim.tcp import TcpConnection, TcpEndpoint
from repro.perfmodel.devices import (
    SERVER_MESSAGE_BYTES,
    ZOOKEEPER_COMMIT_DELAY,
    ZOOKEEPER_SERVER_MSGS_PER_SEC,
)

_session_ids = itertools.count(1)


class _ServerCpu:
    """Single-server queue modelling a server's message-processing capacity."""

    def __init__(self, sim, rate: Optional[float]) -> None:
        self.sim = sim
        self.rate = rate
        self._busy_until = 0.0
        self.units = 0

    def charge(self, units: float = 1.0) -> float:
        """Charge ``units`` of work; returns the queueing delay to apply."""
        self.units += units
        if not self.rate:
            return 0.0
        now = self.sim.now
        backlog = max(0.0, self._busy_until - now)
        self._busy_until = max(now, self._busy_until) + units / self.rate
        return backlog


class ZooKeeperServer:
    """One ensemble member."""

    def __init__(self, server_id: int, host: Host,
                 server_msgs_per_sec: Optional[float]) -> None:
        self.server_id = server_id
        self.host = host
        self.sim = host.sim
        self.tree = DataTree()
        self.is_leader = False
        self.leader_id: Optional[int] = None
        self.peers: Dict[int, TcpEndpoint] = {}
        self.cpu = _ServerCpu(self.sim, server_msgs_per_sec)
        self.failed = False
        # Leader state.
        self.epoch = 0
        self.next_zxid = 1
        self._proposals: Dict[int, Dict[str, Any]] = {}
        # Per-server state.
        self.last_committed_zxid = 0
        self._client_endpoints: Dict[int, TcpEndpoint] = {}
        self._pending_client_requests: Dict[Tuple[int, int], int] = {}
        # Statistics.
        self.reads_served = 0
        self.writes_committed = 0
        self.proposals_sent = 0
        self.messages_handled = 0

    # ------------------------------------------------------------------ #
    # Wiring.
    # ------------------------------------------------------------------ #

    def connect_peer(self, peer_id: int, endpoint: TcpEndpoint) -> None:
        """Attach the transport endpoint leading to another ensemble member."""
        self.peers[peer_id] = endpoint
        endpoint.on_message = lambda message: self._receive(message, peer=peer_id)

    def accept_client(self, session_id: int, endpoint: TcpEndpoint) -> None:
        """Attach a client connection (the client library calls this)."""
        self._client_endpoints[session_id] = endpoint
        endpoint.on_message = lambda message: self._receive(message, session=session_id)

    def drop_client(self, session_id: int) -> None:
        """Forget a client connection (the session's ephemerals are removed
        by the ``close`` transaction, not here)."""
        self._client_endpoints.pop(session_id, None)

    # ------------------------------------------------------------------ #
    # Transport helpers (all sends/receives pay the server CPU).
    # ------------------------------------------------------------------ #

    def _send(self, endpoint: Optional[TcpEndpoint], message: Dict[str, Any]) -> None:
        if endpoint is None or self.failed:
            return
        delay = self.cpu.charge()
        self.sim.schedule(delay, lambda: endpoint.send(message, SERVER_MESSAGE_BYTES))

    def _receive(self, message: Dict[str, Any], peer: Optional[int] = None,
                 session: Optional[int] = None) -> None:
        if self.failed:
            return
        delay = self.cpu.charge()
        self.sim.schedule(delay, lambda: self._handle(message, peer, session))

    # ------------------------------------------------------------------ #
    # Message handling.
    # ------------------------------------------------------------------ #

    def _handle(self, message: Dict[str, Any], peer: Optional[int],
                session: Optional[int]) -> None:
        if self.failed:
            return
        self.messages_handled += 1
        kind = message.get("kind")
        if kind == "request":
            self._handle_client_request(message, session)
        elif kind == "forward":
            self._handle_forward(message, peer)
        elif kind == "proposal":
            self._handle_proposal(message, peer)
        elif kind == "ack":
            self._handle_ack(message, peer)
        elif kind == "commit":
            self._handle_commit(message)

    # -- client requests ------------------------------------------------ #

    READ_OPS = {"get", "exists", "children"}

    def _handle_client_request(self, message: Dict[str, Any], session: Optional[int]) -> None:
        op = message["op"]
        if op in self.READ_OPS:
            self._serve_read(message, session)
            return
        # Write path: turn the request into a transaction and get it
        # committed through the leader.
        txn = self._txn_from_request(message, session)
        origin = {"server": self.server_id, "session": session, "xid": message["xid"]}
        if self.is_leader:
            self._propose(txn, origin)
        else:
            self._send(self.peers.get(self.leader_id),
                       {"kind": "forward", "txn": txn, "origin": origin})

    def _txn_from_request(self, message: Dict[str, Any], session: Optional[int]) -> Dict[str, Any]:
        op = message["op"]
        txn: Dict[str, Any] = {"op": op, "path": message.get("path")}
        if op == "create":
            txn["data"] = message.get("data", b"")
            txn["ephemeral_owner"] = session if message.get("ephemeral") else None
            txn["sequential"] = bool(message.get("sequential"))
        elif op == "set":
            txn["data"] = message.get("data", b"")
            txn["version"] = message.get("version", -1)
        elif op == "delete":
            txn["version"] = message.get("version", -1)
        elif op == "close":
            txn["op"] = "close_session"
            txn["session"] = session
        return txn

    def _serve_read(self, message: Dict[str, Any], session: Optional[int]) -> None:
        op = message["op"]
        path = message.get("path")
        endpoint = self._client_endpoints.get(session)
        response: Dict[str, Any] = {"kind": "response", "xid": message["xid"], "ok": True}
        try:
            if op == "get":
                node = self.tree.get(path)
                response.update(data=node.data, version=node.version)
            elif op == "exists":
                response.update(exists=self.tree.exists(path))
            elif op == "children":
                response.update(children=self.tree.get_children(path))
            if message.get("watch") and endpoint is not None:
                self._register_watch(op, path, session)
        except ZnodeError as exc:
            response.update(ok=False, error=str(exc))
        self.reads_served += 1
        self._send(endpoint, response)

    def _register_watch(self, op: str, path: str, session: int) -> None:
        def fire(changed_path: str, event: str) -> None:
            endpoint = self._client_endpoints.get(session)
            self._send(endpoint, {"kind": "watch_event", "path": changed_path, "event": event})

        if op == "children":
            self.tree.add_child_watch(path, fire)
        else:
            self.tree.add_data_watch(path, fire)

    # -- ZAB: leader side ------------------------------------------------ #

    def _handle_forward(self, message: Dict[str, Any], peer: Optional[int]) -> None:
        if not self.is_leader:
            # Stale forward after a leader change: re-forward.
            self._send(self.peers.get(self.leader_id), message)
            return
        self._propose(message["txn"], message["origin"])

    def _propose(self, txn: Dict[str, Any], origin: Dict[str, Any]) -> None:
        zxid = (self.epoch << 32) | self.next_zxid
        self.next_zxid += 1
        self._proposals[zxid] = {"txn": txn, "origin": origin, "acks": {self.server_id}}
        proposal = {"kind": "proposal", "zxid": zxid, "txn": txn, "origin": origin}
        self.proposals_sent += 1
        for endpoint in self.peers.values():
            self._send(endpoint, proposal)
        # The leader logs the proposal too (group commit latency) before its
        # own ACK counts -- modelled by delaying the quorum check.
        self.sim.schedule(ZOOKEEPER_COMMIT_DELAY, lambda: self._check_quorum(zxid))

    def _handle_ack(self, message: Dict[str, Any], peer: Optional[int]) -> None:
        proposal = self._proposals.get(message["zxid"])
        if proposal is None:
            return
        proposal["acks"].add(peer)
        self._check_quorum(message["zxid"])

    def _quorum(self) -> int:
        return (len(self.peers) + 1) // 2 + 1

    def _check_quorum(self, zxid: int) -> None:
        proposal = self._proposals.get(zxid)
        if proposal is None or proposal.get("committed"):
            return
        if len(proposal["acks"]) < self._quorum():
            return
        proposal["committed"] = True
        commit = {"kind": "commit", "zxid": zxid, "txn": proposal["txn"],
                  "origin": proposal["origin"]}
        for endpoint in self.peers.values():
            self._send(endpoint, commit)
        self._apply_commit(zxid, proposal["txn"], proposal["origin"])

    # -- ZAB: follower side ---------------------------------------------- #

    def _handle_proposal(self, message: Dict[str, Any], peer: Optional[int]) -> None:
        # Log-sync (group commit) before acknowledging.
        zxid = message["zxid"]
        self.sim.schedule(ZOOKEEPER_COMMIT_DELAY,
                          lambda: self._send(self.peers.get(peer),
                                             {"kind": "ack", "zxid": zxid}))

    def _handle_commit(self, message: Dict[str, Any]) -> None:
        self._apply_commit(message["zxid"], message["txn"], message["origin"])

    # -- applying transactions ------------------------------------------- #

    def _apply_commit(self, zxid: int, txn: Dict[str, Any], origin: Dict[str, Any]) -> None:
        self.last_committed_zxid = max(self.last_committed_zxid, zxid)
        ok = True
        error = None
        result: Dict[str, Any] = {}
        try:
            op = txn["op"]
            if op == "create":
                actual = self.tree.create(txn["path"], txn.get("data", b""),
                                          ephemeral_owner=txn.get("ephemeral_owner"),
                                          sequential=txn.get("sequential", False))
                result["path"] = actual
            elif op == "set":
                result["version"] = self.tree.set_data(txn["path"], txn.get("data", b""),
                                                       txn.get("version", -1))
            elif op == "delete":
                self.tree.delete(txn["path"], txn.get("version", -1))
            elif op == "close_session":
                result["removed"] = self.tree.remove_session(txn.get("session"))
        except ZnodeError as exc:
            ok = False
            error = str(exc)
        self.writes_committed += 1
        # The server the client is connected to replies once it has applied
        # the committed transaction.
        if origin and origin.get("server") == self.server_id:
            endpoint = self._client_endpoints.get(origin.get("session"))
            response = {"kind": "response", "xid": origin.get("xid"), "ok": ok}
            if error:
                response["error"] = error
            response.update(result)
            self._send(endpoint, response)

    # ------------------------------------------------------------------ #
    # Failure injection.
    # ------------------------------------------------------------------ #

    def fail(self) -> None:
        """Fail-stop this server."""
        self.failed = True
        self.host.fail()


class ZooKeeperEnsemble:
    """A set of interconnected ZooKeeper servers."""

    def __init__(self, servers: List[ZooKeeperServer]) -> None:
        self.servers = {server.server_id: server for server in servers}
        self._next_session = _session_ids
        if servers:
            self.set_leader(servers[0].server_id)

    def set_leader(self, leader_id: int) -> None:
        """Install a leader (initial election or after a failure)."""
        for server in self.servers.values():
            server.is_leader = server.server_id == leader_id
            server.leader_id = leader_id
            if server.is_leader:
                server.epoch += 1
                server.next_zxid = 1

    def leader(self) -> ZooKeeperServer:
        """The current leader."""
        for server in self.servers.values():
            if server.is_leader:
                return server
        raise RuntimeError("no leader elected")

    def live_servers(self) -> List[ZooKeeperServer]:
        return [s for s in self.servers.values() if not s.failed]

    def fail_server(self, server_id: int) -> None:
        """Fail a server; if it was the leader, elect the lowest live id."""
        server = self.servers[server_id]
        was_leader = server.is_leader
        server.fail()
        if was_leader:
            live = self.live_servers()
            if live:
                self.set_leader(min(s.server_id for s in live))

    def allocate_session(self) -> int:
        """A new globally unique client session id."""
        return next(self._next_session)

    def preload(self, items: Dict[str, bytes]) -> None:
        """Pre-populate znodes on every server, bypassing the protocol.

        Used by experiments to set up the store-size parameter without
        paying millions of simulated writes; equivalent to restoring all
        replicas from the same snapshot.
        """
        for path in sorted(items):
            for server in self.servers.values():
                parts = [p for p in path.split("/") if p]
                current = ""
                for part in parts[:-1]:
                    current = f"{current}/{part}"
                    if not server.tree.exists(current):
                        server.tree.create(current)
                if not server.tree.exists(path):
                    server.tree.create(path, items[path])
                else:
                    server.tree.set_data(path, items[path])


def build_zookeeper_ensemble(hosts: List[Host],
                             server_msgs_per_sec: Optional[float] = ZOOKEEPER_SERVER_MSGS_PER_SEC
                             ) -> ZooKeeperEnsemble:
    """Create servers on the given hosts and fully connect them.
    ``server_msgs_per_sec`` is each server's message-processing capacity,
    already scaled (``None`` removes the ceiling)."""
    servers = [ZooKeeperServer(i, host, server_msgs_per_sec)
               for i, host in enumerate(hosts)]
    for i, a in enumerate(servers):
        for b in servers[i + 1:]:
            conn = TcpConnection(a.host, b.host)
            a.connect_peer(b.server_id, conn.endpoint(a.host))
            b.connect_peer(a.server_id, conn.endpoint(b.host))
    return ZooKeeperEnsemble(servers)
