"""NetChain as an accelerator in front of a server-based store (Section 6).

The paper suggests a hybrid deployment: "The key space is partitioned to
store data in the network and the servers separately.  NetChain can be used
to store hot data with small value size, and servers store big and less
popular data."  This module implements that tiering:

* :class:`HybridPolicy` decides, per key, whether it belongs in the network
  tier (small values, hot keys, explicitly pinned keys) or in the server
  tier (everything else, and any value above the switch pipeline limit).
* :class:`HybridStore` is the placement state several clients share: the
  policy, which keys are network-resident, the popularity sketch and the
  per-tier counters.
* :class:`HybridKVClient` is the :class:`~repro.core.client.KVClient` over
  it: each operation rides the NetChain agent's future or the backing
  server store, and keys move between tiers when their size or popularity
  changes.

The server tier is pluggable; any object with ``read(key) / write(key,
value) / delete(key)`` methods works (:class:`DictBackend` is the one the
``hybrid`` deployment uses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.core.agent import NetChainAgent
from repro.core.client import KVClient, KVFuture, KVResult, canonical_key
from repro.core.hotkeys import HotKeySketch, SketchConfig
from repro.core.protocol import MAX_PROTOTYPE_VALUE_BYTES, normalize_value


@dataclass
class HybridPolicy:
    """Tiering policy: which keys live in the network.

    Attributes:
        max_network_value_bytes: values larger than this always live on the
            servers (the switch pipeline cannot carry them at line rate).
        promote_after_reads: a server-tier key read at least this many times
            is promoted into the network tier (if its value fits).
        pinned: keys that must always be served from the network
            (configuration parameters, locks, barriers).
    """

    max_network_value_bytes: int = MAX_PROTOTYPE_VALUE_BYTES
    promote_after_reads: int = 16
    pinned: Set[bytes] = field(default_factory=set)

    def pin(self, key) -> None:
        """Force a key into the network tier."""
        self.pinned.add(canonical_key(key))

    def is_pinned(self, key) -> bool:
        return canonical_key(key) in self.pinned

    def fits_in_network(self, value: bytes) -> bool:
        return len(value) <= self.max_network_value_bytes


class DictBackend:
    """A trivial in-process server tier, useful in tests and examples."""

    def __init__(self) -> None:
        self.data: Dict[bytes, bytes] = {}

    def read(self, key) -> Optional[bytes]:
        return self.data.get(canonical_key(key))

    def write(self, key, value: bytes) -> bool:
        self.data[canonical_key(key)] = value
        return True

    def delete(self, key) -> bool:
        return self.data.pop(canonical_key(key), None) is not None


@dataclass
class HybridStats:
    """Counters describing where operations were served."""

    network_reads: int = 0
    network_writes: int = 0
    server_reads: int = 0
    server_writes: int = 0
    promotions: int = 0
    demotions: int = 0

    def network_fraction(self) -> float:
        total = (self.network_reads + self.network_writes
                 + self.server_reads + self.server_writes)
        if total == 0:
            return 0.0
        return (self.network_reads + self.network_writes) / total


class HybridStore:
    """Which tier holds each key: the state every :class:`HybridKVClient`
    of one deployment shares."""

    def __init__(self, agent: NetChainAgent, backend,
                 policy: Optional[HybridPolicy] = None,
                 popularity: Optional[HotKeySketch] = None) -> None:
        self.agent = agent
        self.backend = backend
        self.policy = policy or HybridPolicy()
        self.stats = HybridStats()
        self._network_keys: Set[bytes] = set()
        #: Popularity detector behind ``promote_after_reads``: the same
        #: sketch + top-k structure the hot-key tier installs on switches
        #: (:mod:`repro.core.hotkeys`), host-side here.  Deployments that
        #: enable the tier pass theirs in so both layers share one view of
        #: key popularity.
        self.popularity = popularity or HotKeySketch(
            SketchConfig(rows=2, width=1024, topk=8))
        #: Keys with an asynchronous promotion in flight (HybridKVClient).
        self._promoting: Set[bytes] = set()
        #: Server-tier write generation per key; an async promotion aborts
        #: when the generation moved underneath it (HybridKVClient).
        self._server_write_gen: Dict[bytes, int] = {}

    def in_network(self, key) -> bool:
        """Whether the key is currently served from the network tier."""
        return canonical_key(key) in self._network_keys or self.policy.is_pinned(key)


class HybridKVClient(KVClient):
    """The :class:`~repro.core.client.KVClient` over a :class:`HybridStore`.

    The tiering policy, purely with futures: network-tier operations ride
    the agent's futures, server-tier operations apply immediately and
    resolve after a modelled server round trip, and popularity promotions
    run in the background.  A promotion aborts itself when a server-tier
    write races it (the write-generation guard), so the two tiers never
    disagree about a key's latest value.

    Several clients (one per host agent) can share one store: placement,
    read counts and statistics all live on the store.
    """

    backend = "hybrid"

    def __init__(self, store: HybridStore, agent: Optional[NetChainAgent] = None,
                 server_delay: float = 80e-6) -> None:
        """``server_delay`` models the server tier's round trip (two kernel
        stack traversals); the in-process dict lookup itself is free."""
        self.store = store
        self.agent = agent or store.agent
        self.sim = self.agent.sim
        self.server_delay = server_delay

    # -- helpers --------------------------------------------------------- #

    def _bump_gen(self, raw: bytes) -> None:
        self.store._server_write_gen[raw] = \
            self.store._server_write_gen.get(raw, 0) + 1

    def _server_result(self, future: KVFuture, op: str, raw: bytes, *,
                       ok: bool, value: bytes = b"", not_found: bool = False,
                       error: Optional[str] = None) -> None:
        started = self.sim.now

        def finish() -> None:
            future.resolve(KVResult(ok=ok, op=op, key=raw, value=value,
                                    not_found=not_found, error=error,
                                    latency=self.sim.now - started,
                                    backend=self.backend))

        self.sim.schedule(self.server_delay, finish)

    def _promote_async(self, key, raw: bytes, value: bytes) -> None:
        store = self.store
        store._promoting.add(raw)
        generation = store._server_write_gen.get(raw, 0)

        def on_insert(result: KVResult) -> None:
            store._promoting.discard(raw)
            if not result.ok:
                return
            if store._server_write_gen.get(raw, 0) != generation:
                # A server-tier write raced the promotion: the freshly
                # installed network copy is stale.  Drop it.
                self.agent.delete(key).then(
                    lambda _r: self.agent.directory.garbage_collect(key))
                return
            # Tier exclusivity: remove the server copy so a fallback read
            # after a network failure cannot serve (or re-promote) a value
            # that network writes have since moved past.
            store.backend.delete(key)
            store._network_keys.add(raw)
            store.popularity.forget(raw)
            store.stats.promotions += 1

        self.agent.insert(key, value).then(on_insert)

    # -- the five protocol operations ------------------------------------ #

    def read(self, key) -> KVFuture:
        raw = canonical_key(key)
        store = self.store
        future = KVFuture(self.sim, op="read", key=raw)

        def server_read() -> None:
            value = store.backend.read(key)
            store.stats.server_reads += 1
            self._server_result(future, "read", raw, ok=value is not None,
                                value=value or b"", not_found=value is None,
                                error=None if value is not None else "key_not_found")
            if value is None:
                return
            count = store.popularity.record(raw)
            if (count >= store.policy.promote_after_reads
                    and store.policy.fits_in_network(value)
                    and raw not in store._promoting):
                self._promote_async(key, raw, value)

        if store.in_network(key):
            def on_net(result: KVResult) -> None:
                if result.ok:
                    store.stats.network_reads += 1
                    future.resolve(result)
                else:
                    # Not actually resident (e.g. pinned but never written).
                    store._network_keys.discard(raw)
                    server_read()
            self.agent.read(key).then(on_net)
        else:
            server_read()
        return future

    def write(self, key, value) -> KVFuture:
        raw = canonical_key(key)
        value = normalize_value(value)
        store = self.store
        future = KVFuture(self.sim, op="write", key=raw)
        fits = store.policy.fits_in_network(value)

        if store.policy.is_pinned(key) and not fits:
            future.resolve(KVResult(ok=False, op="write", key=raw,
                                    error="pinned key's value exceeds the "
                                          "network tier limit",
                                    backend=self.backend))
            return future

        def server_write() -> None:
            self._bump_gen(raw)
            store.backend.write(key, value)
            store.stats.server_writes += 1
            self._server_result(future, "write", raw, ok=True, value=value)

        def network_install() -> None:
            def on_insert(result: KVResult) -> None:
                if result.ok:
                    # Tier exclusivity: drop any pre-pin server copy.
                    store.backend.delete(key)
                    store._network_keys.add(raw)
                    store.stats.network_writes += 1
                future.resolve(result)
            self.agent.insert(key, value).then(on_insert)

        if store.in_network(key):
            if fits:
                def on_write(result: KVResult) -> None:
                    if result.ok:
                        store._network_keys.add(raw)
                        store.stats.network_writes += 1
                        future.resolve(result)
                    elif result.not_found:
                        network_install()
                    else:
                        future.resolve(result)
                self.agent.write(key, value).then(on_write)
            else:
                # The value outgrew the pipeline limit: demote.
                self._bump_gen(raw)
                store.backend.write(key, value)
                store.stats.server_writes += 1
                started = self.sim.now

                def on_delete(_result: KVResult) -> None:
                    self.agent.directory.garbage_collect(key)
                    store._network_keys.discard(raw)
                    store.stats.demotions += 1
                    future.resolve(KVResult(ok=True, op="write", key=raw,
                                            value=value,
                                            latency=self.sim.now - started,
                                            backend=self.backend))
                self.agent.delete(key).then(on_delete)
        elif store.policy.is_pinned(key) and fits:
            network_install()
        else:
            server_write()
        return future

    def cas(self, key, expected, new_value) -> KVFuture:
        raw = canonical_key(key)
        store = self.store
        future = KVFuture(self.sim, op="cas", key=raw)
        if not store.in_network(key):
            future.resolve(KVResult(ok=False, op="cas", key=raw,
                                    error="cas requires a network-resident key",
                                    backend=self.backend))
            return future

        def on_cas(result: KVResult) -> None:
            store.stats.network_writes += 1
            future.resolve(result)

        self.agent.cas(key, expected, new_value).then(on_cas)
        return future

    def delete(self, key) -> KVFuture:
        raw = canonical_key(key)
        store = self.store
        future = KVFuture(self.sim, op="delete", key=raw)
        self._bump_gen(raw)
        server_deleted = store.backend.delete(key)
        store.popularity.forget(raw)
        if raw in store._network_keys:
            def on_delete(result: KVResult) -> None:
                self.agent.directory.garbage_collect(key)
                store._network_keys.discard(raw)
                deleted = result.ok or server_deleted
                future.resolve(KVResult(ok=deleted, op="delete", key=raw,
                                        not_found=not deleted,
                                        latency=result.latency,
                                        backend=self.backend, version=result.version))
            self.agent.delete(key).then(on_delete)
        else:
            self._server_result(future, "delete", raw, ok=server_deleted,
                                not_found=not server_deleted,
                                error=None if server_deleted else "key_not_found")
        return future

    def insert(self, key, value=b"") -> KVFuture:
        """Placement-aware create: pinned small values go to the network
        tier, everything else to the servers (same rule as writes)."""
        return self.write(key, value)
