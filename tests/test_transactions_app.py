"""Tests for the 2PL distributed-transaction application (Section 8.5)."""

from __future__ import annotations

from repro.apps.transactions import (
    HOT_PREFIX,
    LOCK_ROOT,
    LOCKS_PER_TXN,
    TransactionClient,
    TransactionWorkloadConfig,
    total_committed,
    transactions_per_second,
    znode_locks,
)
from repro.baselines import ZooKeeperClient, build_zookeeper_ensemble
from repro.core.coordination import cas_locks
from repro.netsim.host import HostConfig
from repro.netsim.routing import install_shortest_path_routes
from repro.netsim.topology import build_testbed
from tests.conftest import make_cluster


def test_workload_config_hot_set_size():
    assert TransactionWorkloadConfig(contention_index=0.001).num_hot_items() == 1000
    assert TransactionWorkloadConfig(contention_index=0.1).num_hot_items() == 10
    assert TransactionWorkloadConfig(contention_index=1.0).num_hot_items() == 1
    config = TransactionWorkloadConfig(contention_index=0.01, cold_items=50)
    assert len(config.hot_keys()) == 100
    assert len(config.cold_keys()) == 50


def test_lock_set_contains_one_hot_and_nine_cold():
    config = TransactionWorkloadConfig(contention_index=0.01, cold_items=100)
    cluster = make_cluster()
    client = TransactionClient(cluster.sim, cas_locks(cluster.agent("H0"), "c0"), config)
    locks = client._pick_lock_set()
    assert len(locks) == LOCKS_PER_TXN == 10
    assert sum(1 for k in locks if k.startswith(HOT_PREFIX)) == 1
    assert len(set(locks)) == len(locks)


def make_netchain_txn_setup(contention_index=0.5, cold_items=40, num_clients=4):
    config = TransactionWorkloadConfig(contention_index=contention_index,
                                       cold_items=cold_items, seed=1)
    cluster = make_cluster()
    cluster.controller.populate(config.hot_keys() + config.cold_keys())
    agents = cluster.agent_list()
    clients = [TransactionClient(cluster.sim, cas_locks(agents[i % len(agents)], f"c{i}"),
                                 config, seed=i)
               for i in range(num_clients)]
    return cluster, clients


def test_netchain_transactions_commit_and_release_locks():
    cluster, clients = make_netchain_txn_setup(num_clients=2)
    for client in clients:
        client.start()
    cluster.run(until=cluster.sim.now + 0.02)
    for client in clients:
        client.stop()
    cluster.run(until=cluster.sim.now + 0.01)
    committed = total_committed(clients, 0.0, cluster.sim.now)
    assert committed > 0
    assert transactions_per_second(clients, 0.0, cluster.sim.now) > 0
    # After the run every lock is released (no transaction in flight holds one).
    controller = cluster.controller
    held = 0
    for key in clients[0].config.hot_keys() + clients[0].config.cold_keys():
        info = controller.chain_for_key(key)
        item = controller.stores[info.switches[-1]].read(key)
        if item is not None and item.value not in (b"",):
            held += 1
    assert held == 0


def test_netchain_contention_increases_aborts():
    low_cluster, low_clients = make_netchain_txn_setup(contention_index=0.02,
                                                       num_clients=4)
    high_cluster, high_clients = make_netchain_txn_setup(contention_index=1.0,
                                                         num_clients=4)
    for cluster, clients in ((low_cluster, low_clients), (high_cluster, high_clients)):
        for client in clients:
            client.start()
        cluster.run(until=cluster.sim.now + 0.02)
        for client in clients:
            client.stop()
    low_aborts = sum(c.stats.aborts for c in low_clients)
    high_aborts = sum(c.stats.aborts for c in high_clients)
    assert high_aborts > low_aborts


def test_single_client_never_aborts():
    cluster, clients = make_netchain_txn_setup(contention_index=1.0, num_clients=1)
    clients[0].start()
    cluster.run(until=cluster.sim.now + 0.02)
    clients[0].stop()
    assert clients[0].stats.aborts == 0
    assert clients[0].stats.committed.total() > 0


def test_zookeeper_transaction_client_commits():
    topo = build_testbed(host_config=HostConfig(stack_delay=40e-6, nic_pps=None))
    install_shortest_path_routes(topo)
    hosts = [topo.hosts[f"H{i}"] for i in range(4)]
    ensemble = build_zookeeper_ensemble(hosts[:3], server_msgs_per_sec=None)
    ensemble.preload({LOCK_ROOT: b""})
    config = TransactionWorkloadConfig(contention_index=0.5, cold_items=30, seed=2)
    client = TransactionClient(topo.sim, znode_locks(ZooKeeperClient(hosts[3], ensemble),
                                                     "zk-txn-0"), config)
    client.start()
    topo.run(until=topo.sim.now + 1.0)
    client.stop()
    # Let the in-flight transaction finish releasing its locks.
    topo.run(until=topo.sim.now + 1.0)
    assert client.stats.committed.total() > 0
    # Locks are ephemeral znodes under the lock root and are all released.
    leader_tree = ensemble.leader().tree
    assert leader_tree.get_children(LOCK_ROOT) == []
