"""The backends and the Deployment/KVClient protocol conformance.

Every backend must build from the same declarative spec and
hand back clients speaking the unified KVClient protocol; these tests
pin that contract (plus the per-backend capability flags) so a new
backend can be validated by adding its name to the matrix.
"""

from __future__ import annotations

import pytest

from repro.core.client import KVFuture, KVResult, canonical_key
from repro.deploy import BACKENDS, DeploymentSpec, available_backends, build_deployment

ALL_BACKENDS = ["hybrid", "netchain", "primary-backup", "server-chain", "zookeeper"]


def small_spec(backend: str, **overrides) -> DeploymentSpec:
    defaults = dict(backend=backend, store_size=8, value_size=16, seed=2)
    defaults.update(overrides)
    return DeploymentSpec(**defaults)


def test_all_five_backends_are_registered():
    assert available_backends() == ALL_BACKENDS


def test_capability_matrix():
    assert BACKENDS["netchain"].capabilities.supports_reconfig
    assert not BACKENDS["zookeeper"].capabilities.supports_reconfig
    for name in ("server-chain", "primary-backup"):
        assert not BACKENDS[name].capabilities.scaled_throughput
    for name in ALL_BACKENDS:
        assert BACKENDS[name].capabilities.supports_fault_injection


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_deployment_surface(backend):
    deployment = build_deployment(small_spec(backend))
    assert deployment.backend_name == backend
    assert deployment.spec is not None
    assert deployment.sim is not None
    assert deployment.topology is not None
    assert len(deployment.keys) == 8
    clients = deployment.clients(2)
    assert len(clients) == 2
    assert deployment.fault_injector is not None
    deployment.teardown()


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_client_roundtrip_through_unified_protocol(backend):
    deployment = build_deployment(small_spec(backend))
    client = deployment.clients(1)[0]
    key = deployment.keys[0]

    future = client.read(key)
    assert isinstance(future, KVFuture)
    result = future.result()
    assert isinstance(result, KVResult)
    assert result.ok, result.error
    assert result.value == bytes(16)

    assert client.write(key, b"updated").result().ok
    assert client.read(key).result().value == b"updated"


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_every_backend_spells_a_result_key_one_way(backend):
    """A future and its ``KVResult`` both carry the caller's key in its
    ``canonical_key`` spelling, for all five ops -- on both of hybrid's
    tiers (its first key is network-resident, its last starts on the
    servers)."""
    deployment = build_deployment(small_spec(backend))
    client = deployment.clients(1)[0]
    for key in (deployment.keys[0], deployment.keys[-1]):
        futures = [client.read(key), client.write(key, b"v"), client.cas(key, b"v", b"w"),
                   client.delete(key), client.insert(key, b"x")]
        results = [future.result() for future in futures]
        # Hybrid refuses a CAS of a server-tier key; its result is spelled too.
        assert all(r.ok or r.op == "cas" for r in results), [r.error for r in results]
        assert [future.key for future in futures] == [canonical_key(key)] * 5
        assert [result.key for result in results] == [canonical_key(key)] * 5


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_initial_values_match_preload(backend):
    deployment = build_deployment(small_spec(backend))
    initial = deployment.initial_values()
    assert len(initial) == 8
    assert all(value == bytes(16) for value in initial.values())


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_every_backend_spells_a_none_value_one_way(backend):
    """``None`` is the empty value on every backend: written, it reads
    back as ``b""``, and as a CAS expectation it matches ``b""``."""
    deployment = build_deployment(small_spec(backend))
    client = deployment.clients(1)[0]
    key = deployment.keys[0]
    assert client.write(key, None).result().ok
    assert client.read(key).result().value == b""
    swapped = client.cas(key, None, b"x").result()
    assert swapped.ok, swapped.error
    assert client.read(key).result().value == b"x"


@pytest.mark.parametrize("backend", ["server-chain", "primary-backup"])
def test_server_baseline_cas_and_delete(backend):
    deployment = build_deployment(small_spec(backend))
    client = deployment.clients(1)[0]
    key = deployment.keys[0]

    lost = client.cas(key, b"wrong-expectation", b"stolen").result()
    assert not lost.ok and lost.cas_failed
    assert client.read(key).result().value == bytes(16)

    won = client.cas(key, bytes(16), b"swapped").result()
    assert won.ok, won.error
    assert client.read(key).result().value == b"swapped"

    deleted = client.delete(key).result()
    assert deleted.ok
    gone = client.read(key).result()
    assert not gone.ok and gone.not_found

    created = client.insert("fresh", b"value").result()
    assert created.ok
    assert client.read("fresh").result().value == b"value"


def test_server_chain_cas_applies_on_every_replica():
    deployment = build_deployment(small_spec("server-chain"))
    client = deployment.clients(1)[0]
    key = deployment.keys[0]
    assert client.cas(key, bytes(16), b"v2").result().ok
    for replica in deployment.cluster.replicas:
        assert replica.store[key][0] == b"v2"


def test_primary_backup_delete_reaches_backups():
    deployment = build_deployment(small_spec("primary-backup"))
    client = deployment.clients(1)[0]
    key = deployment.keys[0]
    assert client.delete(key).result().ok
    assert key not in deployment.cluster.primary.store
    for backup in deployment.cluster.backups:
        assert key not in backup.store


@pytest.mark.parametrize("backend", ["server-chain", "primary-backup"])
def test_multiple_clients_on_one_host_all_get_replies(backend):
    # The default spec has a single client host; two clients on it must
    # not collide on their reply endpoints (regression: host-derived
    # client names made the second registration shadow the first).
    deployment = build_deployment(small_spec(backend))
    first, second = deployment.clients(2)
    assert first.name != second.name
    futures = [first.write("a", b"1"), second.write("b", b"2")]
    assert all(future.result().ok for future in futures)
    assert first.read("b").result().value == b"2"
    assert second.read("a").result().value == b"1"


@pytest.mark.parametrize("backend", ["server-chain", "primary-backup", "zookeeper"])
def test_clients_are_cached_not_rebuilt(backend):
    deployment = build_deployment(small_spec(backend))
    first = deployment.clients(2)
    second = deployment.clients(2)
    assert first[0] is second[0] and first[1] is second[1]


def test_netchain_clients_are_the_host_agents():
    deployment = build_deployment(small_spec("netchain"))
    agents = deployment.cluster.agent_list()
    assert deployment.clients(2) == agents[:2]
    # More clients than hosts cycle over the agents.
    assert deployment.clients(6)[4] is agents[0]


def test_hybrid_split_places_keys_in_both_tiers():
    deployment = build_deployment(small_spec("hybrid"))
    store = deployment.store
    in_network = [key for key in deployment.keys if store.in_network(key)]
    assert len(in_network) == 4
    assert deployment.cluster.controller.total_items() == 4
    # Server-tier keys are readable through the unified client.
    client = deployment.clients(1)[0]
    server_key = [k for k in deployment.keys if not store.in_network(k)][0]
    assert client.read(server_key).result().value == bytes(16)
    assert store.stats.server_reads == 1


def test_hybrid_honors_unlimited_capacity():
    deployment = build_deployment(DeploymentSpec(
        backend="hybrid", store_size=4, unlimited_capacity=True, seed=2))
    assert deployment.scale == 1.0
    switch = deployment.cluster.topology.switches["S0"]
    assert switch.config.capacity_pps is None
    host = deployment.cluster.topology.hosts["H0"]
    assert host.config.nic_pps is None


def test_hybrid_oversized_values_all_start_on_servers():
    deployment = build_deployment(DeploymentSpec(
        backend="hybrid", store_size=6, value_size=4096, seed=2))
    assert deployment.cluster.controller.total_items() == 0
    client = deployment.clients(1)[0]
    assert client.read(deployment.keys[0]).result().value == bytes(4096)
