"""Distributed transactions with two-phase locking (Section 8.5).

The benchmark is the generalization of TPC-C new-order used by the paper
(after Calvin and VLL): each transaction acquires ten exclusive locks --
one drawn from a small set of *hot* items whose size is the inverse of the
**contention index**, and nine drawn from a very large set -- then releases
them all to commit.  Clients run classic two-phase locking: if any lock
cannot be acquired the transaction releases what it holds, aborts, and
retries.

:class:`TransactionClient` is backend-generic: it drives CAS locks through
the :class:`repro.core.client.KVClient` protocol (acquire = CAS(empty ->
client id); release = CAS(client id -> empty), so a lock can only be
released by its owner) and therefore runs unmodified against NetChain and
against the ZooKeeper adapter.  :class:`ZooKeeperTransactionClient` is the
backend-specialized variant from the paper's methodology -- ephemeral
znodes (acquire = create, release = delete), one round trip per lock
operation instead of the CAS recipe's two -- kept for the Figure 11
reproduction.

All clients are fully asynchronous state machines so that many logical
clients can run concurrently inside the discrete-event simulation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

from repro.baselines.zk_client import ZkResult, ZooKeeperClient
from repro.core.client import KVClient, KVResult
from repro.netsim.stats import IntervalCounter


@dataclass
class TransactionWorkloadConfig:
    """The contention-index workload (Section 8.5)."""

    #: Inverse of the number of hot items; 1.0 means a single hot item.
    contention_index: float = 0.001
    #: Locks acquired per transaction.
    locks_per_txn: int = 10
    #: Size of the large, low-contention item set.
    cold_items: int = 10000
    #: Prefix for hot lock keys.
    hot_prefix: str = "hot"
    #: Prefix for cold lock keys.
    cold_prefix: str = "cold"
    #: RNG seed.
    seed: int = 0

    def num_hot_items(self) -> int:
        """Number of hot items, ``1 / contention_index`` (at least 1)."""
        return max(1, int(round(1.0 / self.contention_index)))

    def hot_keys(self) -> List[str]:
        return [f"{self.hot_prefix}{i:06d}" for i in range(self.num_hot_items())]

    def cold_keys(self) -> List[str]:
        return [f"{self.cold_prefix}{i:08d}" for i in range(self.cold_items)]


@dataclass
class TransactionStats:
    """Per-client transaction counters."""

    committed: IntervalCounter = field(default_factory=IntervalCounter)
    aborts: int = 0
    lock_attempts: int = 0

    def committed_between(self, start: float, end: float) -> int:
        return self.committed.count_between(start, end)


class _TransactionMixin:
    """Shared lock-set selection logic."""

    def __init__(self, config: TransactionWorkloadConfig, client_id: str, seed: int) -> None:
        self.config = config
        self.client_id = client_id
        self.rng = random.Random(seed)
        self.stats = TransactionStats()
        self.running = False
        self._hot = config.hot_keys()
        self._cold = config.cold_keys()

    def _pick_lock_set(self) -> List[str]:
        """One hot lock plus ``locks_per_txn - 1`` distinct cold locks."""
        hot = self._hot[self.rng.randrange(len(self._hot))]
        cold = self.rng.sample(self._cold, self.config.locks_per_txn - 1)
        return [hot] + cold


class TransactionClient(_TransactionMixin):
    """A 2PL transaction client using CAS locks over any :class:`KVClient`."""

    def __init__(self, client: KVClient, config: TransactionWorkloadConfig,
                 client_id: str, seed: int = 0) -> None:
        super().__init__(config, client_id, seed)
        self.client = client
        self._owner = client_id.encode()

    @property
    def sim(self):
        return self.client.sim

    def start(self) -> None:
        """Begin running transactions back to back."""
        self.running = True
        self._begin_txn()

    def stop(self) -> None:
        self.running = False

    # -- transaction state machine -------------------------------------- #

    def _begin_txn(self) -> None:
        if not self.running:
            return
        locks = self._pick_lock_set()
        self._acquire_next(locks, 0, [])

    def _acquire_next(self, locks: List[str], index: int, held: List[str]) -> None:
        if not self.running:
            self._release_all(held, lambda: None)
            return
        if index >= len(locks):
            # All locks held: the transaction commits, then releases.
            self._release_all(held, self._committed)
            return
        key = locks[index]
        self.stats.lock_attempts += 1

        def on_reply(result: KVResult) -> None:
            if result.ok:
                held.append(key)
                self._acquire_next(locks, index + 1, held)
            else:
                # 2PL abort: release everything and retry a fresh transaction.
                self.stats.aborts += 1
                self._release_all(held, self._begin_txn)

        self.client.cas(key, b"", self._owner).then(on_reply)

    def _release_all(self, held: List[str], then) -> None:
        remaining = list(held)
        held.clear()

        def release_next() -> None:
            if not remaining:
                then()
                return
            key = remaining.pop()
            self.client.cas(key, self._owner, b"").then(lambda _r: release_next())

        release_next()

    def _committed(self) -> None:
        self.stats.committed.record(self.sim.now)
        self._begin_txn()


class NetChainTransactionClient(TransactionClient):
    """Compatibility name: the generic CAS client driving a NetChain agent."""

    def __init__(self, agent, config: TransactionWorkloadConfig,
                 client_id: str, seed: int = 0) -> None:
        super().__init__(agent, config, client_id, seed)
        self.agent = agent


class ZooKeeperTransactionClient(_TransactionMixin):
    """A 2PL transaction client using ZooKeeper ephemeral-znode locks.

    This is the paper's methodology for Figure 11 (one round trip per lock
    operation); the backend-generic :class:`TransactionClient` over a
    :class:`~repro.baselines.zk_client.ZooKeeperKVClient` exercises the
    same workload through the unified CAS code path instead.
    """

    def __init__(self, client: ZooKeeperClient, config: TransactionWorkloadConfig,
                 client_id: str, lock_root: str = "/txnlocks", seed: int = 0) -> None:
        super().__init__(config, client_id, seed)
        self.client = client
        self.lock_root = lock_root

    def start(self) -> None:
        self.running = True
        self._begin_txn()

    def stop(self) -> None:
        self.running = False

    def _lock_path(self, key: str) -> str:
        return f"{self.lock_root}/{key}"

    def _begin_txn(self) -> None:
        if not self.running:
            return
        locks = self._pick_lock_set()
        self._acquire_next(locks, 0, [])

    def _acquire_next(self, locks: List[str], index: int, held: List[str]) -> None:
        if not self.running:
            self._release_all(held, lambda: None)
            return
        if index >= len(locks):
            self._release_all(held, self._committed)
            return
        key = locks[index]
        self.stats.lock_attempts += 1

        def on_reply(result: ZkResult) -> None:
            if result.ok:
                held.append(key)
                self._acquire_next(locks, index + 1, held)
            else:
                self.stats.aborts += 1
                self._release_all(held, self._begin_txn)

        self.client.create_async(self._lock_path(key), self.client_id,
                                 ephemeral=True).then(on_reply)

    def _release_all(self, held: List[str], then) -> None:
        remaining = list(held)
        held.clear()

        def release_next() -> None:
            if not remaining:
                then()
                return
            key = remaining.pop()
            self.client.delete_async(self._lock_path(key)).then(
                lambda _r: release_next())

        release_next()

    def _committed(self) -> None:
        self.stats.committed.record(self.client.sim.now)
        self._begin_txn()


def total_committed(clients, start: float, end: float) -> int:
    """Transactions committed across clients within a time window."""
    return sum(c.stats.committed_between(start, end) for c in clients)


def transactions_per_second(clients, start: float, end: float) -> float:
    """Aggregate commit rate over a window."""
    if end <= start:
        return 0.0
    return total_committed(clients, start, end) / (end - start)
