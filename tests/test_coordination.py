"""Tests for the coordination primitives built on the NetChain KV API."""

from __future__ import annotations

import pytest

from repro.core.coordination import (
    Barrier,
    ConfigurationStore,
    CoordinationError,
    DistributedLock,
    GroupMembership,
)
from tests.conftest import make_cluster


@pytest.fixture
def coord_cluster():
    cluster = make_cluster()
    cluster.controller.populate(["lock:a", "lock:b", "barrier:1", "cfg:mode", "cfg:limit",
                                 "group:shards"])
    return cluster


def test_lock_acquire_and_release(coord_cluster):
    agent = coord_cluster.agent("H0")
    lock = DistributedLock(agent, "lock:a", owner="client-1")
    assert lock.try_acquire()
    assert lock.held
    assert lock.holder() == b"client-1"
    assert lock.release()
    assert not lock.held
    assert lock.holder() == b""


def test_lock_mutual_exclusion(coord_cluster):
    lock1 = DistributedLock(coord_cluster.agent("H0"), "lock:a", owner="c1")
    lock2 = DistributedLock(coord_cluster.agent("H1"), "lock:a", owner="c2")
    assert lock1.try_acquire()
    assert not lock2.try_acquire()
    assert lock1.release()
    assert lock2.try_acquire()


def test_lock_release_requires_ownership(coord_cluster):
    lock1 = DistributedLock(coord_cluster.agent("H0"), "lock:a", owner="c1")
    lock2 = DistributedLock(coord_cluster.agent("H1"), "lock:a", owner="c2")
    assert lock1.try_acquire()
    assert not lock2.release()
    assert lock1.holder() == b"c1"


def test_lock_acquire_spins_until_available(coord_cluster):
    lock1 = DistributedLock(coord_cluster.agent("H0"), "lock:b", owner="c1")
    lock2 = DistributedLock(coord_cluster.agent("H1"), "lock:b", owner="c2")
    assert lock1.try_acquire()
    assert not lock2.acquire(max_attempts=3)
    lock1.release()
    assert lock2.acquire(max_attempts=3)


def test_barrier_requires_all_parties(coord_cluster):
    agents = [coord_cluster.agent(f"H{i}") for i in range(3)]
    barriers = [Barrier(agent, "barrier:1", parties=3) for agent in agents]
    assert barriers[0].arrive() == 1
    assert not barriers[0].is_complete()
    assert barriers[1].arrive() == 2
    assert barriers[2].arrive() == 3
    for barrier in barriers:
        assert barrier.is_complete()
    barriers[0].wait()  # returns immediately once complete


def test_barrier_rejects_zero_parties(coord_cluster):
    with pytest.raises(ValueError):
        Barrier(coord_cluster.agent("H0"), "barrier:1", parties=0)


# --------------------------------------------------------------------- #
# Error paths.
# --------------------------------------------------------------------- #

def test_lock_cas_conflict_retry_accounting(coord_cluster):
    """A contended lock records every CAS attempt that lost the race."""
    lock1 = DistributedLock(coord_cluster.agent("H0"), "lock:a", owner="c1")
    lock2 = DistributedLock(coord_cluster.agent("H1"), "lock:a", owner="c2")
    assert lock1.try_acquire()
    assert not lock2.acquire(max_attempts=4)
    assert lock2.attempts == 4
    assert lock2.cas_conflicts == 4
    assert lock1.cas_conflicts == 0
    lock1.release()
    assert lock2.acquire(max_attempts=2)
    assert lock2.cas_conflicts == 4  # the winning attempt adds no conflict


def test_barrier_cas_conflict_retries_arrival(coord_cluster):
    """An arrival that loses the increment race retries and still lands."""
    winner = Barrier(coord_cluster.agent("H0"), "barrier:1", parties=2)
    loser = Barrier(coord_cluster.agent("H1"), "barrier:1", parties=2)
    # Interleave deterministically: after the loser reads the count but
    # before its CAS, the winner arrives and bumps the value.
    real_count = loser._count
    sneaked = []

    def racing_count() -> int:
        value = real_count()
        if not sneaked:
            sneaked.append(True)
            winner.arrive()
        return value

    loser._count = racing_count
    assert loser.arrive() == 2
    assert loser.cas_conflicts == 1
    assert winner.cas_conflicts == 0
    assert loser.is_complete()


def test_barrier_with_missing_participant_times_out(coord_cluster):
    barrier = Barrier(coord_cluster.agent("H0"), "barrier:1", parties=3)
    assert barrier.arrive() == 1
    with pytest.raises(CoordinationError, match="did not complete"):
        barrier.wait(poll_interval=1e-3, max_polls=10)


def test_configuration_store_set_get_cas(coord_cluster):
    config = ConfigurationStore(coord_cluster.agent("H0"))
    # A parameter that has never been set reports the caller's default.
    assert config.get("timeout", default=b"none") == b"none"
    # The first set of a brand-new parameter inserts it via the control plane.
    config.set("timeout", b"30")
    assert config.get("timeout") == b"30"
    config.set("mode", b"primary")
    assert config.get("mode") == b"primary"
    assert config.compare_and_set("mode", b"primary", b"backup")
    assert not config.compare_and_set("mode", b"primary", b"other")
    assert config.get("mode") == b"backup"
    # Another host observes the update.
    other = ConfigurationStore(coord_cluster.agent("H1"))
    assert other.get("mode") == b"backup"


def test_configuration_store_rejects_oversized_names(coord_cluster):
    config = ConfigurationStore(coord_cluster.agent("H0"))
    with pytest.raises(ValueError):
        config.set("a-very-long-configuration-name", b"x")


def test_group_membership_join_and_leave(coord_cluster):
    membership_a = GroupMembership(coord_cluster.agent("H0"), "group:shards")
    membership_b = GroupMembership(coord_cluster.agent("H1"), "group:shards")
    assert membership_a.members() == []
    assert membership_a.join("node-1")
    assert membership_b.join("node-2")
    assert membership_a.members() == [b"node-1", b"node-2"]
    assert membership_a.join("node-1")  # idempotent
    assert membership_b.leave("node-1")
    assert membership_b.members() == [b"node-2"]
    assert membership_b.leave("node-1")  # already gone
