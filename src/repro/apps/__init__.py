"""Applications built on the coordination services.

* :mod:`repro.apps.transactions` -- the distributed-transaction benchmark of
  Section 8.5: two-phase locking over a lock service (NetChain CAS locks or
  ZooKeeper ephemeral znodes), driven by a contention-index workload.
"""

from repro.apps.transactions import (
    TransactionClient,
    TransactionStats,
    TransactionWorkloadConfig,
    znode_locks,
)
from repro.core.coordination import cas_locks

__all__ = [
    "TransactionWorkloadConfig",
    "TransactionClient",
    "TransactionStats",
    "cas_locks",
    "znode_locks",
]
