"""Tests for the hybrid NetChain-accelerator store (Section 6)."""

from __future__ import annotations

import pytest

from repro.core.hybrid import DictBackend, HybridKVClient, HybridPolicy, HybridStore
from repro.core.protocol import MAX_PROTOTYPE_VALUE_BYTES
from tests.conftest import make_cluster


def make_hybrid(policy=None):
    cluster = make_cluster()
    backend = DictBackend()
    store = HybridStore(cluster.agent("H0"), backend, policy=policy)
    return cluster, backend, store, HybridKVClient(store)


@pytest.fixture
def hybrid():
    return make_hybrid(HybridPolicy(max_network_value_bytes=64, promote_after_reads=3))


def test_pinned_keys_live_in_the_network(hybrid):
    cluster, backend, store, client = hybrid
    store.policy.pin("cfg:leader")
    assert client.write("cfg:leader", b"H0").result().ok
    assert store.in_network("cfg:leader")
    assert client.read("cfg:leader").result().value == b"H0"
    assert store.stats.network_writes == 1
    assert store.stats.network_reads == 1
    assert backend.read("cfg:leader") is None


def test_unpinned_small_keys_start_on_servers(hybrid):
    cluster, backend, store, client = hybrid
    assert client.write("cold-key", b"value").result().ok
    assert not store.in_network("cold-key")
    assert backend.read("cold-key") == b"value"
    assert client.read("cold-key").result().value == b"value"
    assert store.stats.server_reads == 1


def test_large_values_always_go_to_servers(hybrid):
    cluster, backend, store, client = hybrid
    big = bytes(500)
    assert client.write("big-object", big).result().ok
    assert not store.in_network("big-object")
    assert client.read("big-object").result().value == big


def test_pinned_key_with_oversized_value_rejected(hybrid):
    cluster, backend, store, client = hybrid
    store.policy.pin("cfg:huge")
    result = client.write("cfg:huge", bytes(128)).result()
    assert not result.ok and "exceeds" in result.error


def test_hot_keys_promoted_after_repeated_reads(hybrid):
    cluster, backend, store, client = hybrid
    client.write("hot", b"small").result()
    for _ in range(store.policy.promote_after_reads):
        assert client.read("hot").result().value == b"small"
    # The popularity promotion runs in the background; let it finish.
    cluster.run(until=cluster.sim.now + 0.1)
    assert store.in_network("hot")
    assert store.stats.promotions == 1
    # Subsequent reads are served by the network tier.
    before = store.stats.network_reads
    assert client.read("hot").result().value == b"small"
    assert store.stats.network_reads == before + 1


def test_value_growth_demotes_key_to_servers(hybrid):
    cluster, backend, store, client = hybrid
    store.policy.pin("growing")
    client.write("growing", b"tiny").result()
    assert store.in_network("growing")
    store.policy.pinned.clear()
    big = bytes(200)
    assert client.write("growing", big).result().ok
    assert not store.in_network("growing")
    assert store.stats.demotions == 1
    assert client.read("growing").result().value == big


def test_delete_removes_from_both_tiers(hybrid):
    cluster, backend, store, client = hybrid
    store.policy.pin("net-key")
    client.write("net-key", b"x").result()
    client.write("srv-key", b"y").result()
    assert client.delete("net-key").result().ok
    assert client.delete("srv-key").result().ok
    assert not client.delete("srv-key").result().ok
    assert client.read("net-key").result().not_found
    assert client.read("srv-key").result().not_found
    assert cluster.controller.total_items() == 0


def test_cas_only_on_network_resident_keys(hybrid):
    cluster, backend, store, client = hybrid
    store.policy.pin("lock:1")
    client.write("lock:1", b"").result()
    assert client.cas("lock:1", b"", b"owner").result().ok
    assert not client.cas("lock:1", b"", b"other").result().ok
    client.write("server-only", b"v").result()
    result = client.cas("server-only", b"v", b"w").result()
    assert not result.ok and "network-resident" in result.error


def test_network_fraction_statistic(hybrid):
    cluster, backend, store, client = hybrid
    store.policy.pin("hot")
    client.write("hot", b"1").result()
    client.write("cold", b"2").result()
    client.read("hot").result()
    client.read("cold").result()
    assert 0.0 < store.stats.network_fraction() < 1.0


def test_promoted_key_growing_past_pipeline_limit_demotes_cleanly():
    """A key promoted by popularity (not pinned) whose value later grows
    past MAX_PROTOTYPE_VALUE_BYTES must demote cleanly: network slot
    reclaimed, server tier authoritative, reads still correct."""
    cluster, backend, store, client = make_hybrid(HybridPolicy(promote_after_reads=2))
    client.write("hot", b"small").result()
    for _ in range(2):
        assert client.read("hot").result().value == b"small"
    cluster.run(until=cluster.sim.now + 0.1)   # promotion completes
    assert store.in_network("hot")
    assert store.stats.promotions == 1
    items_before = cluster.controller.total_items()
    assert items_before == 1

    big = bytes(MAX_PROTOTYPE_VALUE_BYTES + 1)
    assert client.write("hot", big).result().ok
    assert not store.in_network("hot")
    assert store.stats.demotions == 1
    # The network slot was invalidated and garbage-collected...
    assert cluster.controller.total_items() == 0
    # ...the server tier is authoritative, and reads keep working.
    assert backend.read("hot") == big
    assert client.read("hot").result().value == big
    # Growing further (still on the servers) stays clean.
    bigger = bytes(MAX_PROTOTYPE_VALUE_BYTES * 4)
    assert client.write("hot", bigger).result().ok
    assert client.read("hot").result().value == bigger
    assert store.stats.demotions == 1


def test_pinned_keys_survive_policy_changes():
    """Mutating policy knobs (or rebuilding the policy) must not evict
    pinned keys from the network tier."""
    cluster, backend, store, client = make_hybrid()
    store.policy.pin("cfg:leader")
    assert client.write("cfg:leader", b"H0").result().ok
    assert store.in_network("cfg:leader")

    # Tighten every knob that does not affect the already-stored value.
    store.policy.promote_after_reads = 10_000
    store.policy.max_network_value_bytes = 16
    assert store.in_network("cfg:leader")
    assert client.read("cfg:leader").result().value == b"H0"
    assert client.write("cfg:leader", b"H1").result().ok
    assert client.read("cfg:leader").result().value == b"H1"

    # Replacing the policy object wholesale keeps the pin set intact.
    store.policy = HybridPolicy(promote_after_reads=3,
                                pinned=set(store.policy.pinned))
    assert store.policy.is_pinned("cfg:leader")
    assert store.in_network("cfg:leader")
    assert client.read("cfg:leader").result().value == b"H1"
    assert store.stats.demotions == 0


def test_pinned_key_served_from_network_after_placement_cache_loss():
    """Pinned keys are network-resident by policy, not by the placement
    cache: wiping the cache must not strand them."""
    cluster, backend, store, client = make_hybrid()
    store.policy.pin("lock:1")
    client.write("lock:1", b"owner").result()
    store._network_keys.clear()
    assert store.in_network("lock:1")
    assert client.read("lock:1").result().value == b"owner"
    assert store.stats.network_reads == 1


# --------------------------------------------------------------------- #
# Background promotion and its races.
# --------------------------------------------------------------------- #

def test_async_client_matches_store_tiering():
    cluster = make_cluster()
    store = HybridStore(cluster.agent("H0"), DictBackend(),
                        policy=HybridPolicy(promote_after_reads=2))
    client = HybridKVClient(store)
    assert client.write("cold", b"v1").result().ok
    assert not store.in_network("cold")
    assert client.read("cold").result().value == b"v1"
    assert client.read("cold").result().value == b"v1"
    # The popularity promotion ran in the background; let it finish.
    cluster.run(until=cluster.sim.now + 0.1)
    assert store.in_network("cold")
    assert client.read("cold").result().value == b"v1"
    assert store.stats.promotions == 1


def test_async_promotion_aborts_when_a_server_write_races_it():
    """A server-tier write issued while a promotion is in flight must win:
    the stale network copy is dropped instead of shadowing the write."""
    cluster = make_cluster()
    store = HybridStore(cluster.agent("H0"), DictBackend(),
                        policy=HybridPolicy(promote_after_reads=1))
    client = HybridKVClient(store)
    client.write("raced", b"old").result()
    # This read triggers the (slow, control-plane) promotion...
    read_future = client.read("raced")
    # ...and this write lands on the server tier while it is in flight.
    write_future = client.write("raced", b"new")
    read_future.result()
    write_future.result()
    cluster.run(until=cluster.sim.now + 0.1)
    # The promotion aborted: nothing stale serves from the network.
    assert not store.in_network("raced")
    assert cluster.controller.total_items() == 0
    assert client.read("raced").result().value == b"new"


def test_promotion_removes_the_server_copy():
    """Tier exclusivity: once a key is promoted, no server copy remains,
    so a fallback read after a network failure can never serve (or
    re-promote) a value that network writes have moved past."""
    cluster = make_cluster()
    backend = DictBackend()
    store = HybridStore(cluster.agent("H0"), backend,
                        policy=HybridPolicy(promote_after_reads=1))
    client = HybridKVClient(store)
    client.write("k", b"v1").result()
    client.read("k").result()
    cluster.run(until=cluster.sim.now + 0.1)   # promotion completes
    assert store.in_network("k")
    assert backend.read("k") is None
    client.write("k", b"v2").result()          # network-only write
    assert backend.read("k") is None
    # Losing the placement entry falls back to the servers, which now
    # correctly report the key absent instead of a stale b"v1".
    store._network_keys.discard(b"k")
    assert client.read("k").result().not_found


def test_async_client_demotes_oversized_writes():
    cluster = make_cluster()
    store = HybridStore(cluster.agent("H0"), DictBackend())
    client = HybridKVClient(store)
    store.policy.pin("growing")
    client.write("growing", b"tiny").result()
    assert store.in_network("growing")
    store.policy.pinned.clear()
    big = bytes(MAX_PROTOTYPE_VALUE_BYTES + 8)
    result = client.write("growing", big).result()
    assert result.ok
    assert not store.in_network("growing")
    assert store.stats.demotions == 1
    assert client.read("growing").result().value == big


def test_async_client_cas_requires_network_residency():
    cluster = make_cluster()
    store = HybridStore(cluster.agent("H0"), DictBackend())
    client = HybridKVClient(store)
    client.write("server-only", b"v").result()
    result = client.cas("server-only", b"v", b"w").result()
    assert not result.ok and "network-resident" in result.error
    store.policy.pin("lock")
    client.write("lock", b"").result()
    assert client.cas("lock", b"", b"owner").result().ok
    assert not client.cas("lock", b"", b"thief").result().ok


def test_async_client_delete_clears_both_tiers():
    cluster = make_cluster()
    store = HybridStore(cluster.agent("H0"), DictBackend())
    client = HybridKVClient(store)
    store.policy.pin("net-key")
    client.write("net-key", b"x").result()
    client.write("srv-key", b"y").result()
    assert client.delete("net-key").result().ok
    assert client.delete("srv-key").result().ok
    missing = client.delete("srv-key").result()
    assert not missing.ok and missing.not_found
    assert client.read("srv-key").result().not_found
    assert cluster.controller.total_items() == 0
