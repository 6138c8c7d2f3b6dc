"""Server-based baselines that NetChain is evaluated against.

* :mod:`repro.baselines.zookeeper` / :mod:`repro.baselines.zk_client` --
  a ZooKeeper-like coordination service: a ZAB-style leader-based ensemble
  over TCP, with znodes, sessions, ephemeral/sequential nodes and watches.
  This is the comparison system of Section 8.
* :mod:`repro.baselines.chain_server` -- chain replication on servers
  (FAWN-KV style), the design NetChain moves into the network (Section 2.2).
* :mod:`repro.baselines.primary_backup` -- the classical primary-backup
  protocol of Figure 1(a), used for the message-count comparison.
"""

from repro.baselines.chain_server import ServerChainClient, ServerChainCluster, ServerChainReplica
from repro.baselines.data_tree import DataTree, Znode, ZnodeError
from repro.baselines.primary_backup import PrimaryBackupClient, PrimaryBackupCluster
from repro.baselines.zk_client import ZkResult, ZooKeeperClient, ZooKeeperKVClient
from repro.baselines.zookeeper import (
    ZooKeeperEnsemble,
    ZooKeeperServer,
    build_zookeeper_ensemble,
)

__all__ = [
    "DataTree",
    "Znode",
    "ZnodeError",
    "ZooKeeperServer",
    "ZooKeeperEnsemble",
    "build_zookeeper_ensemble",
    "ZooKeeperClient",
    "ZooKeeperKVClient",
    "ZkResult",
    "ServerChainReplica",
    "ServerChainCluster",
    "ServerChainClient",
    "PrimaryBackupCluster",
    "PrimaryBackupClient",
]
