"""Unit tests for consistent hashing with virtual nodes (Section 4.1)."""

from __future__ import annotations

import pytest

from repro.core.ring import ConsistentHashRing


SWITCHES = ["S0", "S1", "S2", "S3"]


def test_requires_enough_switches():
    with pytest.raises(ValueError):
        ConsistentHashRing(["S0", "S1"], replication=3)
    with pytest.raises(ValueError):
        ConsistentHashRing(SWITCHES, replication=0)


def test_virtual_node_count():
    ring = ConsistentHashRing(SWITCHES, vnodes_per_switch=25)
    assert len(ring.vnodes) == 100
    distribution = ring.load_distribution()
    assert all(count == 25 for count in distribution.values())


def test_chain_has_f_plus_one_distinct_switches():
    ring = ConsistentHashRing(SWITCHES, vnodes_per_switch=10, replication=3)
    for i in range(200):
        chain = ring.chain_for_key(f"key{i}")
        assert len(chain) == 3
        assert len(set(chain)) == 3
        assert all(switch in SWITCHES for switch in chain)


def test_chain_lookup_is_deterministic():
    ring_a = ConsistentHashRing(SWITCHES, vnodes_per_switch=10)
    ring_b = ConsistentHashRing(SWITCHES, vnodes_per_switch=10)
    for i in range(50):
        key = f"key{i}"
        assert ring_a.chain_for_key(key) == ring_b.chain_for_key(key)


def test_vgroup_matches_primary_vnode():
    ring = ConsistentHashRing(SWITCHES, vnodes_per_switch=10)
    for i in range(50):
        key = f"key{i}"
        vgroup = ring.vgroup_for_key(key)
        assert ring.primary_vnode_for_key(key).vnode_id == vgroup
        # The chain of the key equals the chain of its virtual group.
        assert ring.chain_for_key(key) == ring.chain_for_vgroup(vgroup)


def test_keys_spread_over_switches():
    ring = ConsistentHashRing(SWITCHES, vnodes_per_switch=25)
    heads = {ring.chain_for_key(f"key{i}")[0] for i in range(500)}
    assert heads == set(SWITCHES)


def test_reassign_vnode_changes_ownership():
    ring = ConsistentHashRing(SWITCHES, vnodes_per_switch=5)
    target = ring.virtual_nodes_of("S1")[0]
    ring.reassign_vnode(target.vnode_id, "S3")
    assert ring.vnodes[target.vnode_id].switch == "S3"
    assert target.vnode_id not in [v.vnode_id for v in ring.virtual_nodes_of("S1")]


def test_replication_larger_than_switches_rejected_at_lookup():
    ring = ConsistentHashRing(SWITCHES, vnodes_per_switch=4, replication=3)
    with pytest.raises(ValueError):
        ring.chain_vnodes_for_key("k", replication=5)


def test_key_position_accepts_bytes_and_str():
    ring = ConsistentHashRing(SWITCHES)
    assert ring.key_position("abc") == ring.key_position(b"abc")


def test_duplicate_switch_names_rejected():
    with pytest.raises(ValueError):
        ConsistentHashRing(["S0", "S1", "S2", "S1"], replication=3)
    ring = ConsistentHashRing(SWITCHES, vnodes_per_switch=2)
    with pytest.raises(ValueError):
        ring.add_switch("S2")


def test_replication_equals_switch_count():
    """The tightest legal membership: every chain uses every switch."""
    ring = ConsistentHashRing(SWITCHES, vnodes_per_switch=5, replication=4)
    for i in range(100):
        chain = ring.chain_for_key(f"key{i}")
        assert sorted(chain) == sorted(SWITCHES)
    for vgroup in ring.vnodes:
        assert sorted(ring.chain_for_vgroup(vgroup)) == sorted(SWITCHES)
    # One switch fewer than replication is rejected outright.
    with pytest.raises(ValueError):
        ConsistentHashRing(SWITCHES[:3], replication=4)


def test_chain_for_vgroup_exclusion_skips_switches():
    ring = ConsistentHashRing(SWITCHES, vnodes_per_switch=5, replication=3)
    for vgroup in ring.vnodes:
        chain = ring.chain_for_vgroup(vgroup, exclude=["S1"])
        assert "S1" not in chain
        assert len(chain) == 3
        assert len(set(chain)) == 3
