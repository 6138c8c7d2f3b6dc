"""The unified key-value client protocol: futures, sessions, batches.

NetChain's value proposition is sub-RTT coordination at switch line rate,
but line rate cannot be driven through one-query-at-a-time synchronous
calls.  This module defines the backend-agnostic client surface every
consumer in the repository (coordination recipes, load generators, the
transaction benchmark, experiments and examples) programs against:

* :class:`KVResult` -- the one outcome of one key-value operation,
  identical in shape for every backend: no backend has a result type of
  its own behind it.
* :class:`KVFuture` -- a simulator-aware future.  ``.then()`` chains
  callbacks, ``.result(deadline)`` drives the discrete-event simulation
  until the reply arrives -- the one way to wait, on every backend -- and
  :func:`gather` / :func:`first` combine futures.
* :class:`KVClient` -- the protocol: ``read / write / cas / delete /
  insert``, each returning a :class:`KVFuture`.  Implemented by
  :class:`repro.core.agent.NetChainAgent` (switch data plane),
  :class:`repro.baselines.zk_client.ZooKeeperKVClient` (ZAB ensemble), the
  server chain and primary-backup clients and the hybrid store's client, so
  recipes and benchmarks run unmodified on all five.
* :class:`KVSession` / :class:`KVBatch` -- pipelined batch submission:
  ``session.batch().read(k1).write(k2, v).cas(k3, e, n).submit()`` issues
  the operations back-to-back with a configurable in-flight window instead
  of one round-trip gap per operation, which is how a client actually
  approaches the line rate the switches offer.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple


class KVTimeout(Exception):
    """An operation did not resolve within its simulated-time deadline."""


@dataclass(slots=True)
class KVResult:
    """The outcome of one key-value operation, on every backend.

    ``key`` is the :func:`canonical_key` spelling of the operation's key.
    ``version`` is the item version the reply carries, the one the
    linearizability witness orders writes by: NetChain's ``(session, seq)``
    on every reply (``(0, 0)`` on a timeout), ``(0, n)`` on an ok operation
    of a server baseline or ZooKeeper, and ``None`` where the backend
    reports none (hybrid's server tier).
    """

    ok: bool
    op: str
    key: bytes = b""
    value: bytes = b""
    #: The key does not exist on the backend.
    not_found: bool = False
    #: A compare-and-swap lost the race (expected value did not match).
    cas_failed: bool = False
    #: The operation exhausted its retries without a reply.
    timed_out: bool = False
    error: Optional[str] = None
    latency: float = 0.0
    retries: int = 0
    backend: str = ""
    version: Optional[Tuple[int, int]] = None


class KVFuture:
    """A future resolved inside the discrete-event simulation.

    Unlike ``concurrent.futures``, blocking on a :class:`KVFuture` does not
    park a thread: :meth:`result` *advances the simulator* until the future
    resolves, which is the only meaningful notion of waiting in simulated
    time.
    """

    #: Slots (futures are allocated once per operation; the NetChain agent's
    #: pending query is a subclass, so it allocates none besides): the two
    #: optional trailing fields are backend correlation ids (``query_id`` for
    #: the NetChain agent, ``xid`` for the ZooKeeper client).  ``_callbacks`` is
    #: ``None``, the one continuation most futures get, or a list of several.
    __slots__ = ("sim", "op", "key", "_result", "_done", "_callbacks",
                 "query_id", "xid")

    def __init__(self, sim, op: str = "", key: bytes = b"") -> None:
        self.sim = sim
        self.op = op
        self.key = key
        self._result: Any = None
        self._done = False
        self._callbacks: Any = None
        self.query_id: Optional[int] = None
        self.xid: Optional[int] = None

    # -- state ----------------------------------------------------------- #

    def done(self) -> bool:
        """Whether the future has resolved."""
        return self._done

    def resolve(self, result: Any) -> None:
        """Resolve with ``result`` and fire the registered callbacks.

        Backends call this exactly once; late duplicates (e.g. a retried
        query's second reply) are ignored.
        """
        if self._done:
            return
        self._done = True
        self._result = result
        callbacks, self._callbacks = self._callbacks, None
        if type(callbacks) is list:
            for callback in callbacks:
                callback(result)
        elif callbacks is not None:
            callbacks(result)

    # -- composition ----------------------------------------------------- #

    def then(self, callback: Callable[[Any], None]) -> "KVFuture":
        """Run ``callback(result)`` once resolved (immediately if already).

        Returns ``self`` so chains like ``fut.then(a).then(b)`` register
        both callbacks in order.
        """
        if self._done:
            callback(self._result)
        elif self._callbacks is None:
            self._callbacks = callback
        elif type(self._callbacks) is list:
            self._callbacks.append(callback)
        else:
            self._callbacks = [self._callbacks, callback]
        return self

    # -- waiting --------------------------------------------------------- #

    def result(self, deadline: float = 5.0):
        """Drive the simulator until resolution; raise :class:`KVTimeout`
        if ``deadline`` seconds of simulated time pass first.

        The clock stops at the resolving event rather than fast-forwarding
        to the deadline, so synchronous waiting costs exactly the
        operation's latency in simulated time.
        """
        if self._done:
            return self._result
        limit = self.sim.now + deadline
        while not self._done and self.sim.pending() and self.sim.now < limit:
            self.sim.run(until=limit, stop_when=self.done)
        if not self._done:
            raise KVTimeout(f"{self.op} {self.key!r}: unresolved after "
                            f"{deadline}s of simulated time")
        return self._result


def gather(futures: Sequence[KVFuture]) -> KVFuture:
    """A future resolving to the list of all results, in input order."""
    futures = list(futures)
    if not futures:
        raise ValueError("gather() needs at least one future")
    combined = KVFuture(futures[0].sim, op="gather")
    results: List[Any] = [None] * len(futures)
    remaining = {"count": len(futures)}

    def make_callback(index: int):
        def on_done(result: Any) -> None:
            results[index] = result
            remaining["count"] -= 1
            if remaining["count"] == 0:
                combined.resolve(results)
        return on_done

    for index, future in enumerate(futures):
        future.then(make_callback(index))
    return combined


def first(futures: Sequence[KVFuture]) -> KVFuture:
    """A future resolving with the earliest result among ``futures``."""
    futures = list(futures)
    if not futures:
        raise ValueError("first() needs at least one future")
    combined = KVFuture(futures[0].sim, op="first")
    for future in futures:
        future.then(combined.resolve)
    return combined


class KVClient(ABC):
    """The backend-agnostic key-value client protocol.

    Implementations translate the five operations into their native wire
    protocol and resolve the returned future when the reply (or a terminal
    failure) arrives.  All futures resolve with a :class:`KVResult`; no
    operation raises on ordinary failure outcomes (missing key, CAS
    conflict, exhausted retries) -- callers branch on ``result.ok``.
    """

    #: Implementations set these in ``__init__``.
    sim: Any
    backend: str = "kv"

    # -- operations ------------------------------------------------------ #

    @abstractmethod
    def read(self, key) -> KVFuture:
        """Read the value of ``key``."""

    @abstractmethod
    def write(self, key, value) -> KVFuture:
        """Overwrite the value of an existing ``key``."""

    @abstractmethod
    def cas(self, key, expected, new_value) -> KVFuture:
        """Atomically replace the value iff it currently equals ``expected``."""

    @abstractmethod
    def delete(self, key) -> KVFuture:
        """Remove ``key``."""

    @abstractmethod
    def insert(self, key, value=b"") -> KVFuture:
        """Create a new ``key`` (a control-plane operation on NetChain)."""

    # -- sessions -------------------------------------------------------- #

    def session(self, window: int = 16) -> "KVSession":
        """A session for pipelined batch submission against this client."""
        return KVSession(self, window=window)


class KVBatch:
    """A builder for one pipelined multi-operation submission.

    Operations are issued in the order they were added, back-to-back, with
    at most ``window`` outstanding at any time; as each reply arrives the
    next queued operation goes out immediately, so the pipeline never
    drains between operations the way per-op synchronous driving does.
    ``submit()`` returns one future per operation, in submission order.
    """

    def __init__(self, session: "KVSession") -> None:
        self._session = session
        self._ops: List[tuple] = []
        self._submitted = False

    # -- builders (chainable) -------------------------------------------- #

    def read(self, key) -> "KVBatch":
        self._ops.append(("read", key, None, None))
        return self

    def write(self, key, value) -> "KVBatch":
        self._ops.append(("write", key, value, None))
        return self

    def cas(self, key, expected, new_value) -> "KVBatch":
        self._ops.append(("cas", key, new_value, expected))
        return self

    def delete(self, key) -> "KVBatch":
        self._ops.append(("delete", key, None, None))
        return self

    def insert(self, key, value=b"") -> "KVBatch":
        self._ops.append(("insert", key, value, None))
        return self

    def __len__(self) -> int:
        return len(self._ops)

    # -- submission ------------------------------------------------------ #

    def submit(self) -> List[KVFuture]:
        """Issue all operations with the session's in-flight window.

        Returns one future per operation, in submission order, immediately;
        operations beyond the window are issued as earlier ones complete.
        """
        if self._submitted:
            raise RuntimeError("a KVBatch can only be submitted once")
        self._submitted = True
        client = self._session.client
        window = max(1, self._session.window)
        ops = list(self._ops)
        futures = [KVFuture(client.sim, op=name, key=canonical_key(key))
                   for name, key, _value, _expected in ops]
        state = {"next": 0, "inflight": 0}

        def issue_more() -> None:
            while state["next"] < len(ops) and state["inflight"] < window:
                index = state["next"]
                state["next"] += 1
                state["inflight"] += 1
                name, key, value, expected = ops[index]
                if name == "read":
                    backend_future = client.read(key)
                elif name == "write":
                    backend_future = client.write(key, value)
                elif name == "cas":
                    backend_future = client.cas(key, expected, value)
                elif name == "delete":
                    backend_future = client.delete(key)
                else:
                    backend_future = client.insert(key, value)
                backend_future.then(make_on_done(index))

        def make_on_done(index: int):
            def on_done(result: Any) -> None:
                state["inflight"] -= 1
                futures[index].resolve(result)
                issue_more()
            return on_done

        issue_more()
        return futures

    def results(self, deadline: float = 5.0) -> List[KVResult]:
        """Submit and drive the simulator until every operation resolves."""
        futures = self.submit()
        if not futures:
            return []
        return gather(futures).result(deadline)


class KVSession:
    """A client handle with batched, pipelined submission.

    The session is cheap; it only carries the in-flight window and counts
    what it submitted.  One client can serve many sessions.
    """

    def __init__(self, client: KVClient, window: int = 16) -> None:
        if window < 1:
            raise ValueError("the in-flight window must be at least 1")
        self.client = client
        self.window = window
        self.submitted = 0

    @property
    def sim(self):
        return self.client.sim

    def batch(self) -> KVBatch:
        """Start building a pipelined batch."""
        return KVBatch(self)

    # Single operations pass straight through to the client so a session
    # is a drop-in KVClient surface for code that mixes both styles.

    def read(self, key) -> KVFuture:
        self.submitted += 1
        return self.client.read(key)

    def write(self, key, value) -> KVFuture:
        self.submitted += 1
        return self.client.write(key, value)

    def cas(self, key, expected, new_value) -> KVFuture:
        self.submitted += 1
        return self.client.cas(key, expected, new_value)

    def delete(self, key) -> KVFuture:
        self.submitted += 1
        return self.client.delete(key)

    def insert(self, key, value=b"") -> KVFuture:
        self.submitted += 1
        return self.client.insert(key, value)


def canonical_key(key) -> bytes:
    """The one spelling of a key above the wire: a ``str`` in UTF-8, bytes
    with any trailing NULs stripped.

    Every backend's futures, results and histories, NetChain's headers,
    switch stores, routes and hash ring hold a key this way.  Only what
    reads NetChain's fixed 16-byte header field sees it NUL-padded:
    :meth:`repro.core.protocol.NetChainHeader.to_bytes` writes the field,
    ``from_bytes`` strips it, and a switch's hot-key sketch hashes it.
    """
    if type(key) is str:
        return key.encode("utf-8")
    if isinstance(key, bytes):
        return key.rstrip(b"\x00")
    return str(key).encode("utf-8")
