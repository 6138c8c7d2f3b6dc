"""Application experiment: Figure 11, distributed transactions.

Clients run two-phase locking over a lock service on the contention-index
workload of Section 8.5 and we report committed transactions per second.
The two backends differ only in each client's lock pair: CAS locks on a
NetChain agent, or ephemeral znodes on a ZooKeeper session.

The transaction rate is bound by per-operation latency (a transaction is
twenty sequential lock operations), not by capacity, so both deployments
run with the capacity ceilings disabled and the rate needs no rescaling.
NetChain transactions complete in a few hundred microseconds and ZooKeeper
ones take tens of milliseconds, so callers pick windows accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.transactions import (
    LOCK_ROOT,
    TransactionClient,
    TransactionWorkloadConfig,
    transactions_per_second,
    znode_locks,
)
from repro.core.coordination import cas_locks
from repro.deploy import DeploymentSpec, build_deployment


@dataclass
class TransactionResult:
    """One point of Figure 11."""

    num_clients: int
    txns_per_sec: float
    aborts: int
    lock_attempts: int

    def abort_rate(self) -> float:
        """Aborted transaction attempts per lock attempt."""
        if self.lock_attempts == 0:
            return 0.0
        return self.aborts / self.lock_attempts


def measure_transactions(backend: str, num_clients: int, duration: float,
                         warmup: float, contention_index: float = 0.001,
                         cold_items: int = 1000, seed: int = 0) -> TransactionResult:
    """Transaction throughput with ``backend`` (``netchain`` or
    ``zookeeper``) as the lock server."""
    config = TransactionWorkloadConfig(contention_index=contention_index,
                                       cold_items=cold_items, seed=seed)
    if backend == "netchain":
        lock_keys = config.hot_keys() + config.cold_keys()
        deployment = build_deployment(DeploymentSpec(
            backend="netchain", store_size=0, store_slots=len(lock_keys) + 1024,
            extra_keys=lock_keys, seed=seed, unlimited_capacity=True))
        agents = deployment.clients(num_clients)
        locks = [cas_locks(agent, f"txn{i}") for i, agent in enumerate(agents)]
    elif backend == "zookeeper":
        deployment = build_deployment(DeploymentSpec(
            backend="zookeeper", store_size=1, seed=seed, unlimited_capacity=True))
        deployment.ensemble.preload({LOCK_ROOT: b""})
        locks = [znode_locks(deployment.new_client(i), f"txn{i}")
                 for i in range(num_clients)]
    else:
        raise ValueError(f"no lock recipe for backend {backend!r}: "
                         f"use 'netchain' or 'zookeeper'")
    clients = [TransactionClient(deployment.sim, pair, config, seed=seed + i)
               for i, pair in enumerate(locks)]
    for client in clients:
        client.start()
    start = deployment.sim.now
    deployment.run(until=start + warmup + duration)
    for client in clients:
        client.stop()
    return TransactionResult(
        num_clients=num_clients,
        txns_per_sec=transactions_per_second(clients, start + warmup,
                                             start + warmup + duration),
        aborts=sum(c.stats.aborts for c in clients),
        lock_attempts=sum(c.stats.lock_attempts for c in clients))
