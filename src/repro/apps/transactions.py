"""Distributed transactions with two-phase locking (Section 8.5).

The benchmark is the generalization of TPC-C new-order used by the paper
(after Calvin and VLL): each transaction acquires ten exclusive locks --
one drawn from a small set of *hot* items whose size is the inverse of the
**contention index**, and nine drawn from a very large set -- then releases
them all to commit.  Clients run classic two-phase locking: if any lock
cannot be acquired the transaction releases what it holds, aborts, and
retries.

:class:`TransactionClient` is one asynchronous state machine over an
``(acquire, release)`` lock pair, so many logical clients run concurrently
inside the discrete-event simulation.  Two pairs exist:

* :func:`repro.core.coordination.cas_locks` -- CAS locks over any
  :class:`repro.core.client.KVClient` (acquire = CAS(empty -> owner);
  release = CAS(owner -> empty), so only the owner can release a lock),
  the same CAS :class:`repro.core.coordination.DistributedLock` issues;
* :func:`znode_locks` -- ZooKeeper ephemeral znodes (acquire = create,
  release = delete), the paper's one-round-trip recipe for Figure 11.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

from repro.baselines.zk_client import ZooKeeperClient
from repro.core.coordination import LockPair
from repro.netsim.stats import IntervalCounter

#: The parent znode of every ephemeral lock; it must exist before a lock.
LOCK_ROOT = "/txnlocks"
#: Locks acquired per transaction: one hot, the rest cold.
LOCKS_PER_TXN = 10
#: Prefix of the hot lock keys.
HOT_PREFIX = "hot"
#: Prefix of the cold lock keys.
COLD_PREFIX = "cold"


def znode_locks(session: ZooKeeperClient, owner: str) -> LockPair:
    """Ephemeral-znode locks under :data:`LOCK_ROOT`, created by ``owner``."""
    return (lambda key: session.create_async(f"{LOCK_ROOT}/{key}", owner, ephemeral=True),
            lambda key: session.delete_async(f"{LOCK_ROOT}/{key}"))


@dataclass
class TransactionWorkloadConfig:
    """The contention-index workload (Section 8.5)."""

    #: Inverse of the number of hot items; 1.0 means a single hot item.
    contention_index: float = 0.001
    #: Size of the large, low-contention item set.
    cold_items: int = 10000
    #: RNG seed.
    seed: int = 0

    def num_hot_items(self) -> int:
        """Number of hot items, ``1 / contention_index`` (at least 1)."""
        return max(1, int(round(1.0 / self.contention_index)))

    def hot_keys(self) -> List[str]:
        return [f"{HOT_PREFIX}{i:06d}" for i in range(self.num_hot_items())]

    def cold_keys(self) -> List[str]:
        return [f"{COLD_PREFIX}{i:08d}" for i in range(self.cold_items)]


@dataclass
class TransactionStats:
    """Per-client transaction counters."""

    committed: IntervalCounter = field(default_factory=IntervalCounter)
    aborts: int = 0
    lock_attempts: int = 0


class TransactionClient:
    """A 2PL transaction client over one ``(acquire, release)`` lock pair."""

    def __init__(self, sim, locks: LockPair, config: TransactionWorkloadConfig,
                 seed: int = 0) -> None:
        self.sim = sim
        self.acquire, self.release = locks
        self.config = config
        self.rng = random.Random(seed)
        self.stats = TransactionStats()
        self.running = False
        self._hot = config.hot_keys()
        self._cold = config.cold_keys()

    def start(self) -> None:
        """Begin running transactions back to back."""
        self.running = True
        self._begin_txn()

    def stop(self) -> None:
        self.running = False

    def _pick_lock_set(self) -> List[str]:
        """One hot lock plus ``LOCKS_PER_TXN - 1`` distinct cold locks."""
        hot = self._hot[self.rng.randrange(len(self._hot))]
        cold = self.rng.sample(self._cold, LOCKS_PER_TXN - 1)
        return [hot] + cold

    def _begin_txn(self) -> None:
        if self.running:
            self._acquire_next(self._pick_lock_set(), 0, [])

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

        def on_reply(result) -> None:
            if result.ok:
                held.append(key)
                self._acquire_next(locks, index + 1, held)
            else:
                # 2PL abort: release everything and retry a fresh transaction.
                self.stats.aborts += 1
                self._release_all(held, self._begin_txn)

        self.acquire(key).then(on_reply)

    def _release_all(self, held: List[str], then) -> None:
        remaining = list(held)
        held.clear()

        def release_next() -> None:
            if not remaining:
                then()
                return
            self.release(remaining.pop()).then(lambda _r: release_next())

        release_next()

    def _committed(self) -> None:
        self.stats.committed.record(self.sim.now)
        self._begin_txn()


def total_committed(clients, start: float, end: float) -> int:
    """Transactions committed across clients within a time window."""
    return sum(c.stats.committed.count_between(start, end) for c in clients)


def transactions_per_second(clients, start: float, end: float) -> float:
    """Aggregate commit rate over a window."""
    if end <= start:
        return 0.0
    return total_committed(clients, start, end) / (end - start)
