"""Tests for the server-hosted chain replication and primary-backup baselines."""

from __future__ import annotations

import types

import pytest

from repro.baselines import PrimaryBackupCluster, ServerChainCluster
from repro.netsim.host import HostConfig
from repro.netsim.packet import UDPHeader
from repro.netsim.routing import install_shortest_path_routes
from repro.netsim.tcp import TcpEndpoint
from repro.netsim.topology import build_testbed


def make_hosts(n=4):
    topo = build_testbed(host_config=HostConfig(stack_delay=5e-6, nic_pps=None),
                         num_hosts=n)
    install_shortest_path_routes(topo)
    return topo, [topo.hosts[f"H{i}"] for i in range(n)]


# --------------------------------------------------------------------- #
# Server chain replication.
# --------------------------------------------------------------------- #

def test_chain_write_read_roundtrip():
    topo, hosts = make_hosts()
    cluster = ServerChainCluster(hosts[:3])
    client = cluster.client(hosts[3])
    assert client.write("k", b"v1").result().ok
    assert client.read("k").result().value == b"v1"


def test_chain_write_applies_on_every_replica():
    topo, hosts = make_hosts()
    cluster = ServerChainCluster(hosts[:3])
    client = cluster.client(hosts[3])
    client.write("k", b"v1").result()
    for replica in cluster.replicas:
        assert replica.store["k"][0] == b"v1"


def test_chain_versions_increase():
    topo, hosts = make_hosts()
    cluster = ServerChainCluster(hosts[:3])
    client = cluster.client(hosts[3])
    versions = [client.write("k", f"v{i}".encode()).result().version for i in range(3)]
    assert versions == [(0, 1), (0, 2), (0, 3)]


def test_chain_read_of_missing_key_returns_empty():
    topo, hosts = make_hosts()
    cluster = ServerChainCluster(hosts[:3])
    client = cluster.client(hosts[3])
    result = client.read("absent").result()
    assert result.value == b"" and result.not_found and result.error == "key_not_found"


def test_chain_message_count_is_n_plus_one():
    topo, hosts = make_hosts()
    assert ServerChainCluster(hosts[:3]).messages_per_write() == 4
    assert ServerChainCluster(hosts[:2]).messages_per_write() == 3


def test_single_node_chain_works():
    topo, hosts = make_hosts()
    cluster = ServerChainCluster(hosts[:1])
    client = cluster.client(hosts[3])
    assert client.write("k", b"x").result().ok
    assert client.read("k").result().value == b"x"


def test_chain_requires_servers():
    with pytest.raises(ValueError):
        ServerChainCluster([])


# --------------------------------------------------------------------- #
# Primary-backup.
# --------------------------------------------------------------------- #

def test_pb_write_read_roundtrip():
    topo, hosts = make_hosts()
    cluster = PrimaryBackupCluster(hosts[:3])
    client = cluster.client(hosts[3])
    assert client.write("k", b"v1").result().ok
    assert client.read("k").result().value == b"v1"


def test_pb_write_waits_for_all_backups():
    topo, hosts = make_hosts()
    cluster = PrimaryBackupCluster(hosts[:3])
    client = cluster.client(hosts[3])
    client.write("k", b"v1").result()
    for backup in cluster.backups:
        assert backup.store["k"][0] == b"v1"
        assert backup.updates_applied == 1
    assert not cluster.primary.pending_writes


def test_pb_message_count_is_two_n():
    topo, hosts = make_hosts()
    assert PrimaryBackupCluster(hosts[:3]).messages_per_write() == 6
    assert PrimaryBackupCluster(hosts[:1]).messages_per_write() == 2


def test_pb_requires_servers():
    with pytest.raises(ValueError):
        PrimaryBackupCluster([])


def test_chain_uses_fewer_messages_than_primary_backup():
    """Section 2.2: n+1 for chain replication versus 2n for primary-backup."""
    topo, hosts = make_hosts()
    chain = ServerChainCluster(hosts[:3])
    pb = PrimaryBackupCluster(hosts[:3])
    assert chain.messages_per_write() < pb.messages_per_write()


# --------------------------------------------------------------------- #
# Both baselines: what the shared message path rests on.
# --------------------------------------------------------------------- #

BASELINES = [ServerChainCluster, PrimaryBackupCluster]


@pytest.mark.parametrize("cluster_class", BASELINES)
def test_no_handler_mutates_a_received_message(cluster_class, monkeypatch):
    """One message object is shared by the sender, every retransmission,
    the receiver and (forwarded or fanned out) the next server, so every
    handler must treat it as read-only: here each message travels as a
    read-only view and any in-place store raises inside the run."""
    send = TcpEndpoint.send
    monkeypatch.setattr(
        TcpEndpoint, "send", lambda endpoint, message, size_bytes=100:
        send(endpoint, types.MappingProxyType(message), size_bytes))
    topo, hosts = make_hosts()
    cluster = cluster_class(hosts[:3])
    client = cluster.client(hosts[3])
    assert client.write("k", b"v1").result().version == (0, 1)
    won = client.cas("k", b"v1", b"v2").result()
    assert won.ok and won.version == (0, 2)
    lost = client.cas("k", b"v1", b"v3").result()
    assert not lost.ok and lost.cas_failed and lost.value == b"v2"
    assert client.read("k").result().value == b"v2"
    assert client.delete("k").result().ok
    assert client.delete("k").result().not_found
    assert client.read("k").result().value == b""
    stores = [r.store for r in getattr(cluster, "replicas", None)
              or [cluster.primary, *cluster.backups]]
    assert stores == [{}, {}, {}]


@pytest.mark.parametrize("cluster_class", BASELINES)
def test_tcp_ports_depend_on_the_deployment_alone(cluster_class):
    """The ephemeral-port counter lives on the host: a second build of the
    same spec in this process binds the same ports as the first (a
    process-wide counter handed it the next block, and after a few
    thousand builds a port no UDP header can spell)."""
    def bound_ports():
        topo, hosts = make_hosts()
        cluster = cluster_class(hosts[:3])
        for _ in range(3):
            cluster.client(hosts[3])
        return {host.name: sorted(host._sockets) for host in hosts}

    first, second = bound_ports(), bound_ports()
    assert first == second
    assert min(first["H3"]) == 40000
    for ports in first.values():
        for port in ports:
            header = UDPHeader(port, port)
            assert UDPHeader.from_bytes(header.to_bytes()) == header
