#!/usr/bin/env python3
"""Coordination-service recipes on the unified key-value client protocol.

Coordination services are used for configuration management, group
membership, distributed locking and barriers (Section 1).  This example
exercises each recipe from :mod:`repro.core.coordination` on a simulated
NetChain deployment -- and, because the recipes are written against the
backend-agnostic :class:`repro.core.client.KVClient` protocol, the same
code then runs the lock recipe against a ZooKeeper ensemble for an
apples-to-apples latency comparison.

Run:  python examples/coordination_primitives.py
"""

from __future__ import annotations

from repro.core.coordination import Barrier, ConfigurationStore, DistributedLock, GroupMembership
from repro.deploy import DeploymentSpec, build_deployment


def main() -> None:
    deployment = build_deployment(DeploymentSpec(
        backend="netchain", store_slots=2048, vnodes_per_switch=8))
    cluster = deployment.cluster
    controller = cluster.controller
    # Pre-create the keys the recipes use (inserts are control-plane ops).
    controller.populate(["cfg:replicas", "cfg:leader", "lock:shard-7",
                         "barrier:epoch-3", "group:frontends"])

    print("== Configuration management ==")
    config_h0 = ConfigurationStore(cluster.agent("H0"))
    config_h1 = ConfigurationStore(cluster.agent("H1"))
    config_h0.set("replicas", b"3")
    config_h0.set("leader", b"H0")
    print(f"H1 reads replicas={config_h1.get('replicas')!r} leader={config_h1.get('leader')!r}")
    swapped = config_h1.compare_and_set("leader", b"H0", b"H1")
    stale = config_h0.compare_and_set("leader", b"H0", b"H2")
    print(f"H1 takes leadership atomically: {swapped}; H0's stale CAS fails: {not stale}")

    print("\n== Distributed locking ==")
    lock_a = DistributedLock(cluster.agent("H0"), "lock:shard-7", owner="worker-A")
    lock_b = DistributedLock(cluster.agent("H1"), "lock:shard-7", owner="worker-B")
    print(f"worker-A acquires: {lock_a.try_acquire()}")
    print(f"worker-B acquires while held: {lock_b.try_acquire()}")
    print(f"worker-B steals release: {lock_b.release()} (only the owner can release)")
    print(f"worker-A releases: {lock_a.release()}")
    print(f"worker-B acquires after release: {lock_b.try_acquire()} "
          f"(after {lock_b.cas_conflicts} CAS conflicts)")
    lock_b.release()

    print("\n== Barrier ==")
    parties = [Barrier(cluster.agent(f"H{i}"), "barrier:epoch-3", parties=3)
               for i in range(3)]
    for index, barrier in enumerate(parties):
        arrival = barrier.arrive()
        print(f"H{index} arrived at position {arrival}; barrier complete: "
              f"{barrier.is_complete()}")

    print("\n== Group membership ==")
    membership = GroupMembership(cluster.agent("H0"), "group:frontends")
    for node in ("fe-1", "fe-2", "fe-3"):
        membership.join(node)
    print(f"members after joins : {membership.members()}")
    membership.leave("fe-2")
    print(f"members after leave : {GroupMembership(cluster.agent('H2'), 'group:frontends').members()}")

    print("\nAll of the above ran as data-plane queries against switch registers;")
    completed = cluster.total_completed()
    recipe_keys = ("cfg:replicas", "cfg:leader", "lock:shard-7", "barrier:epoch-3",
                   "group:frontends")
    reads = [cluster.agent("H0").read(key).result() for key in recipe_keys]
    mean_latency = sum(result.latency for result in reads) / len(reads)
    print(f"total queries completed: {completed}; reading back the "
          f"{len(reads)} recipe keys took {mean_latency * 1e6:.1f} us each on average.")

    # ------------------------------------------------------------------ #
    # The same lock recipe, unmodified, against the ZooKeeper baseline.
    # ------------------------------------------------------------------ #

    print("\n== Same lock recipe on the ZooKeeper baseline ==")
    deployment = build_deployment(DeploymentSpec(
        backend="zookeeper", store_size=0, unlimited_capacity=True))
    deployment.ensemble.preload({"/kv/lock:shard-7": b""})
    zk_a = DistributedLock(deployment.new_kv_client(0), "lock:shard-7", owner="worker-A")
    zk_b = DistributedLock(deployment.new_kv_client(1), "lock:shard-7", owner="worker-B")
    start = deployment.sim.now
    acquired = zk_a.try_acquire(deadline=10.0)
    zk_latency = deployment.sim.now - start
    print(f"worker-A acquires: {acquired}  (took {zk_latency * 1e6:.0f} us of simulated time)")
    print(f"worker-B acquires while held: {zk_b.try_acquire(deadline=10.0)}")
    print(f"worker-A releases: {zk_a.release(deadline=10.0)}")
    print("The recipe is identical; only the backend -- and the latency -- changed.")


if __name__ == "__main__":
    main()
