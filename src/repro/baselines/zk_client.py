"""ZooKeeper client library (the role Apache Curator plays in the paper's
evaluation, Section 8).

A client opens one TCP connection to an ensemble server, issues requests
identified by an ``xid``, and receives responses and watch events.  Every
request (``submit`` and the ``*_async`` spellings of it) returns a
:class:`repro.core.client.KVFuture` that resolves with a :class:`ZkResult`.

:class:`ZooKeeperKVClient` adapts a session to the backend-agnostic
:class:`repro.core.client.KVClient` protocol (keys become znodes under a
path prefix; compare-and-swap is the standard read-then-conditional-set
recipe using znode versions), so coordination primitives, load generators
and the transaction benchmark run unmodified against the ensemble.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.baselines.data_tree import ERR_NO_NODE, ERR_VERSION_MISMATCH
from repro.baselines.zookeeper import ZooKeeperEnsemble, ZooKeeperServer
from repro.core.client import KVClient, KVFuture, KVResult, canonical_key
from repro.core.protocol import normalize_value
from repro.netsim.host import Host
from repro.netsim.node import stable_name_seed
from repro.netsim.tcp import TcpConnection
from repro.perfmodel.devices import SERVER_MESSAGE_BYTES


@dataclass
class ZkResult:
    """Outcome of one client operation."""

    ok: bool
    op: str
    path: Optional[str] = None
    data: bytes = b""
    version: int = 0
    children: List[str] = field(default_factory=list)
    exists: bool = False
    error: Optional[str] = None
    latency: float = 0.0


class ZooKeeperClient:
    """One client session connected to one ensemble server."""

    def __init__(self, host: Host, ensemble: ZooKeeperEnsemble,
                 server_id: Optional[int] = None) -> None:
        self.host = host
        self.sim = host.sim
        self.ensemble = ensemble
        if server_id is None:
            live = ensemble.live_servers()
            server_id = live[stable_name_seed(host.name) % len(live)].server_id
        self.server: ZooKeeperServer = ensemble.servers[server_id]
        self.session_id = ensemble.allocate_session()
        self._conn = TcpConnection(host, self.server.host)
        self._endpoint = self._conn.endpoint(host)
        self._endpoint.on_message = self._on_message
        self.server.accept_client(self.session_id, self._conn.endpoint(self.server.host))
        self._xids = itertools.count(1)
        self._pending: Dict[int, Dict[str, Any]] = {}
        self.watch_events: List[Dict[str, Any]] = []
        self.on_watch: Optional[Callable[[Dict[str, Any]], None]] = None

    # ------------------------------------------------------------------ #
    # Requests.
    # ------------------------------------------------------------------ #

    def submit(self, op: str, **fields: Any) -> KVFuture:
        """Send a request; the returned future resolves with the
        :class:`ZkResult`."""
        xid = next(self._xids)
        request = {"kind": "request", "xid": xid, "op": op}
        request.update(fields)
        future = KVFuture(self.sim, op=op)
        future.xid = xid
        self._pending[xid] = {"op": op, "sent_at": self.sim.now, "future": future}
        self._endpoint.send(request, SERVER_MESSAGE_BYTES)
        return future

    def get_async(self, path: str, watch: bool = False) -> KVFuture:
        return self.submit("get", path=path, watch=watch)

    def set_async(self, path: str, data, version: int = -1) -> KVFuture:
        return self.submit("set", path=path, data=normalize_value(data), version=version)

    def create_async(self, path: str, data=b"", ephemeral: bool = False,
                     sequential: bool = False) -> KVFuture:
        return self.submit("create", path=path, data=normalize_value(data),
                           ephemeral=ephemeral, sequential=sequential)

    def delete_async(self, path: str, version: int = -1) -> KVFuture:
        return self.submit("delete", path=path, version=version)

    def exists_async(self, path: str, watch: bool = False) -> KVFuture:
        return self.submit("exists", path=path, watch=watch)

    def close(self) -> None:
        """Close the session: the ensemble removes its ephemeral nodes."""
        self.submit("close")
        self.server.drop_client(self.session_id)

    # ------------------------------------------------------------------ #
    # Message handling.
    # ------------------------------------------------------------------ #

    def _on_message(self, message: Dict[str, Any]) -> None:
        kind = message.get("kind")
        if kind == "watch_event":
            self.watch_events.append(message)
            if self.on_watch is not None:
                self.on_watch(message)
            return
        if kind != "response":
            return
        pending = self._pending.pop(message.get("xid"), None)
        if pending is None:
            return
        latency = self.sim.now - pending["sent_at"]
        result = ZkResult(ok=message.get("ok", False), op=pending["op"],
                          path=message.get("path"), data=message.get("data", b""),
                          version=message.get("version", 0),
                          children=message.get("children", []),
                          exists=message.get("exists", False),
                          error=message.get("error"), latency=latency)
        pending["future"].resolve(result)


class ZooKeeperKVClient(KVClient):
    """The :class:`~repro.core.client.KVClient` protocol over one session.

    Keys map to znodes under ``prefix``.  ``insert`` is ``create`` (the
    analogue of NetChain's control-plane insert), ``write`` is an
    unconditional ``set``, and ``cas`` is the standard ZooKeeper recipe:
    read the znode, compare its data, and conditionally ``set`` against the
    observed version -- atomic because a concurrent update bumps the version
    and fails the conditional set.
    """

    backend = "zookeeper"

    def __init__(self, client: ZooKeeperClient, prefix: str = "/kv/") -> None:
        self.client = client
        self.sim = client.sim
        self.prefix = prefix if prefix.endswith("/") else prefix + "/"
        #: Parent paths whose ancestor chain has already been created.
        self._ready_parents: set = set()

    def _path(self, key) -> str:
        name = key.decode("utf-8", "replace") if isinstance(key, bytes) else str(key)
        return f"{self.prefix}{name}"

    def _to_kv(self, result: ZkResult, op: str, key, started: float) -> KVResult:
        error = result.error
        return KVResult(ok=result.ok, op=op, key=canonical_key(key),
                        value=result.data or b"",
                        not_found=bool(error and ERR_NO_NODE in error),
                        cas_failed=bool(error and ERR_VERSION_MISMATCH in error),
                        error=None if result.ok else (error or "failed"),
                        latency=self.sim.now - started, backend=self.backend,
                        version=(0, result.version) if result.ok else None)

    # -- the five protocol operations ------------------------------------ #

    def read(self, key) -> KVFuture:
        started = self.sim.now
        future = KVFuture(self.sim, op="read", key=canonical_key(key))
        self.client.get_async(self._path(key)).then(
            lambda r: future.resolve(self._to_kv(r, "read", key, started)))
        return future

    def write(self, key, value) -> KVFuture:
        started = self.sim.now
        future = KVFuture(self.sim, op="write", key=canonical_key(key))
        self.client.set_async(self._path(key), value).then(
            lambda r: future.resolve(self._to_kv(r, "write", key, started)))
        return future

    def cas(self, key, expected, new_value) -> KVFuture:
        started = self.sim.now
        future = KVFuture(self.sim, op="cas", key=canonical_key(key))
        path = self._path(key)
        expected = normalize_value(expected)

        def on_get(get_result: ZkResult) -> None:
            if not get_result.ok:
                future.resolve(self._to_kv(get_result, "cas", key, started))
                return
            if (get_result.data or b"") != expected:
                future.resolve(KVResult(ok=False, op="cas", key=canonical_key(key),
                                        value=get_result.data or b"", cas_failed=True,
                                        error="cas_failed",
                                        latency=self.sim.now - started,
                                        backend=self.backend))
                return
            self.client.set_async(path, new_value, version=get_result.version).then(
                lambda r: future.resolve(self._to_kv(r, "cas", key, started)))

        self.client.get_async(path).then(on_get)
        return future

    def delete(self, key) -> KVFuture:
        started = self.sim.now
        future = KVFuture(self.sim, op="delete", key=canonical_key(key))
        self.client.delete_async(self._path(key)).then(
            lambda r: future.resolve(self._to_kv(r, "delete", key, started)))
        return future

    def insert(self, key, value=b"") -> KVFuture:
        started = self.sim.now
        future = KVFuture(self.sim, op="insert", key=canonical_key(key))
        path = self._path(key)
        parent = path.rsplit("/", 1)[0]

        def do_create(_result=None) -> None:
            self.client.create_async(path, value).then(
                lambda r: future.resolve(self._to_kv(r, "insert", key, started)))

        if parent in self._ready_parents:
            do_create()
        else:
            def mark_and_create() -> None:
                self._ready_parents.add(parent)
                do_create()

            self._ensure_ancestors(path, done=mark_and_create)
        return future

    # -- ancestors of the key namespace ---------------------------------- #

    def _ensure_ancestors(self, path: str, done: Callable[[], None]) -> None:
        """Create the parent chain of ``path`` (ignoring already-exists)."""
        parts = [p for p in path.split("/") if p][:-1]
        ancestors = []
        current = ""
        for part in parts:
            current = f"{current}/{part}"
            ancestors.append(current)

        def create_next(index: int) -> None:
            if index >= len(ancestors):
                done()
                return
            self.client.create_async(ancestors[index]).then(
                lambda _r: create_next(index + 1))

        create_next(0)
