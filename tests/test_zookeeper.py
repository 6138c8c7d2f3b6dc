"""Tests for the ZooKeeper baseline: data tree, ZAB ensemble, client."""

from __future__ import annotations

import pytest

from repro.baselines import ZooKeeperClient, build_zookeeper_ensemble
from repro.baselines.data_tree import DataTree, ZnodeError
from repro.netsim.host import HostConfig
from repro.netsim.routing import install_shortest_path_routes
from repro.netsim.topology import build_testbed


# --------------------------------------------------------------------- #
# Data tree.
# --------------------------------------------------------------------- #

def test_tree_create_get_set_delete():
    tree = DataTree()
    tree.create("/a", b"1")
    tree.create("/a/b", b"2")
    assert tree.get("/a/b").data == b"2"
    assert tree.get_children("/a") == ["b"]
    version = tree.set_data("/a/b", b"3")
    assert version == 1
    tree.delete("/a/b")
    assert not tree.exists("/a/b")
    assert tree.get_children("/a") == []


def test_tree_rejects_bad_paths_and_missing_parents():
    tree = DataTree()
    with pytest.raises(ZnodeError):
        tree.create("relative")
    with pytest.raises(ZnodeError):
        tree.create("/a/")
    with pytest.raises(ZnodeError):
        tree.create("/a//b")
    with pytest.raises(ZnodeError):
        tree.create("/missing/child")
    with pytest.raises(ZnodeError):
        tree.get("/nope")
    with pytest.raises(ZnodeError):
        tree.delete("/")


def test_tree_version_checks():
    tree = DataTree()
    tree.create("/v", b"0")
    tree.set_data("/v", b"1", expected_version=0)
    with pytest.raises(ZnodeError):
        tree.set_data("/v", b"2", expected_version=0)
    with pytest.raises(ZnodeError):
        tree.delete("/v", expected_version=5)


def test_tree_delete_requires_leaf():
    tree = DataTree()
    tree.create("/parent")
    tree.create("/parent/child")
    with pytest.raises(ZnodeError):
        tree.delete("/parent")


def test_tree_duplicate_create_rejected():
    tree = DataTree()
    tree.create("/x")
    with pytest.raises(ZnodeError):
        tree.create("/x")


def test_sequential_nodes_get_increasing_suffixes():
    tree = DataTree()
    tree.create("/locks")
    first = tree.create("/locks/lock-", sequential=True)
    second = tree.create("/locks/lock-", sequential=True)
    assert first == "/locks/lock-0000000000"
    assert second == "/locks/lock-0000000001"
    assert first < second


def test_ephemeral_nodes_removed_with_session():
    tree = DataTree()
    tree.create("/e1", ephemeral_owner=42)
    tree.create("/e2", ephemeral_owner=42)
    tree.create("/keep", ephemeral_owner=7)
    removed = tree.remove_session(42)
    assert sorted(removed) == ["/e1", "/e2"]
    assert tree.exists("/keep")


def test_ephemeral_nodes_cannot_have_children():
    tree = DataTree()
    tree.create("/e", ephemeral_owner=1)
    with pytest.raises(ZnodeError):
        tree.create("/e/child")


def test_watches_fire_once():
    tree = DataTree()
    tree.create("/w", b"0")
    events = []
    tree.add_data_watch("/w", lambda path, event: events.append((path, event)))
    tree.set_data("/w", b"1")
    tree.set_data("/w", b"2")
    assert events == [("/w", "changed")]
    child_events = []
    tree.add_child_watch("/w", lambda path, event: child_events.append(event))
    tree.create("/w/c")
    tree.create("/w/d")
    assert child_events == ["children"]


def test_snapshot_restore_roundtrip():
    tree = DataTree()
    tree.create("/a", b"1")
    tree.create("/a/b", b"2", ephemeral_owner=3)
    snapshot = tree.snapshot()
    other = DataTree()
    other.restore(snapshot)
    assert other.get("/a/b").data == b"2"
    assert other.get("/a/b").ephemeral_owner == 3
    assert other.node_count() == tree.node_count()


# --------------------------------------------------------------------- #
# Ensemble + client.
# --------------------------------------------------------------------- #

def make_deployment(num_servers=3, server_rate=None):
    topo = build_testbed(host_config=HostConfig(stack_delay=40e-6, nic_pps=None),
                         num_hosts=4)
    install_shortest_path_routes(topo)
    hosts = [topo.hosts[f"H{i}"] for i in range(4)]
    ensemble = build_zookeeper_ensemble(
        hosts[:num_servers], server_msgs_per_sec=server_rate)
    return topo, ensemble, hosts[num_servers]


def test_ensemble_elects_first_server_as_leader():
    _, ensemble, _ = make_deployment()
    assert ensemble.leader().server_id == 0
    assert all(s.leader_id == 0 for s in ensemble.servers.values())


def test_create_get_set_delete_through_client():
    topo, ensemble, client_host = make_deployment()
    client = ZooKeeperClient(client_host, ensemble)
    assert client.create_async("/app", b"cfg").result().ok
    assert client.get_async("/app").result().data == b"cfg"
    result = client.set_async("/app", b"cfg2").result()
    assert result.ok and result.version == 1
    assert client.exists_async("/app").result().exists
    assert client.delete_async("/app").result().ok
    assert not client.exists_async("/app").result().exists


def test_writes_replicate_to_all_servers():
    topo, ensemble, client_host = make_deployment()
    client = ZooKeeperClient(client_host, ensemble)
    client.create_async("/replicated", b"x").result()
    topo.run(until=topo.sim.now + 0.1)
    for server in ensemble.servers.values():
        assert server.tree.exists("/replicated")


def test_reads_served_by_connected_follower():
    topo, ensemble, client_host = make_deployment()
    writer = ZooKeeperClient(client_host, ensemble, server_id=0)
    writer.create_async("/data", b"42").result()
    topo.run(until=topo.sim.now + 0.1)
    follower_client = ZooKeeperClient(client_host, ensemble, server_id=2)
    result = follower_client.get_async("/data").result()
    assert result.ok and result.data == b"42"
    assert ensemble.servers[2].reads_served >= 1


def test_write_latency_dominated_by_commit_path():
    """Section 8.2: reads ~170 us, writes ~2.35 ms."""
    topo, ensemble, client_host = make_deployment()
    client = ZooKeeperClient(client_host, ensemble, server_id=0)
    client.create_async("/lat", b"0").result()
    read = client.get_async("/lat").result()
    write = client.set_async("/lat", b"1").result()
    assert 100e-6 < read.latency < 400e-6
    assert 1.5e-3 < write.latency < 4e-3
    assert write.latency > 5 * read.latency


def test_errors_propagate_to_client():
    _, ensemble, client_host = make_deployment()
    client = ZooKeeperClient(client_host, ensemble)
    result = client.get_async("/does-not-exist").result()
    assert not result.ok
    assert result.error
    result = client.create_async("/a/b/c").result()  # parent missing
    assert not result.ok


def test_watch_event_delivered_to_client():
    topo, ensemble, client_host = make_deployment()
    watcher = ZooKeeperClient(client_host, ensemble, server_id=1)
    writer = ZooKeeperClient(client_host, ensemble, server_id=0)
    writer.create_async("/watched", b"0").result()
    topo.run(until=topo.sim.now + 0.1)
    watcher.get_async("/watched", watch=True).result()
    writer.set_async("/watched", b"1").result()
    topo.run(until=topo.sim.now + 0.1)
    assert watcher.watch_events
    assert watcher.watch_events[0]["path"] == "/watched"


def test_session_close_removes_ephemerals():
    topo, ensemble, client_host = make_deployment()
    client = ZooKeeperClient(client_host, ensemble)
    client.create_async("/session-node", ephemeral=True).result()
    topo.run(until=topo.sim.now + 0.1)
    client.close()
    topo.run(until=topo.sim.now + 0.5)
    for server in ensemble.servers.values():
        assert not server.tree.exists("/session-node")


def test_leader_failure_elects_new_leader_and_continues():
    topo, ensemble, client_host = make_deployment()
    client = ZooKeeperClient(client_host, ensemble, server_id=1)
    client.create_async("/before", b"1").result()
    ensemble.fail_server(0)
    assert ensemble.leader().server_id == 1
    result = client.create_async("/after", b"2").result()
    assert result.ok
    assert ensemble.servers[1].tree.exists("/after")
    # The follower applies the commit asynchronously after the client reply.
    topo.run(until=topo.sim.now + 0.1)
    assert ensemble.servers[2].tree.exists("/after")


def test_preload_bypasses_protocol():
    _, ensemble, _ = make_deployment()
    ensemble.preload({"/kv/a": b"1", "/kv/b": b"2"})
    for server in ensemble.servers.values():
        assert server.tree.get("/kv/a").data == b"1"
        assert server.tree.get("/kv/b").data == b"2"
