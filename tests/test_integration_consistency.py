"""End-to-end consistency tests on the simulated testbed.

These integration tests exercise the full stack -- agents, chain routing,
the switch programs, the underlay and the controller -- under the adverse
conditions the protocol is designed for: concurrent writers, packet loss,
reordering, and switch failures.  After every scenario the paper's
invariants must hold (Section 4.5 and the TLA+ appendix).
"""

from __future__ import annotations

import random

from repro.core.invariants import (
    ClientObservationChecker,
    check_chain_invariant,
    check_value_agreement,
)
from repro.netsim.faults import LinkFaultModel
from tests.conftest import make_cluster


def chain_stores(controller, key, include_failed=False):
    info = controller.chain_for_key(key)
    return [controller.stores[name] for name in info.switches
            if include_failed or name not in controller.failed_switches]


def assert_invariants(cluster, keys):
    controller = cluster.controller
    for key in keys:
        stores = chain_stores(controller, key)
        check_chain_invariant(stores, [key])
        check_value_agreement(stores, [key])


def test_concurrent_writers_serialize_on_every_replica(cluster):
    keys = ["shared"]
    cluster.controller.populate(keys)
    agents = cluster.agent_list()
    results = []
    for i in range(20):
        agent = agents[i % len(agents)]
        agent.write(keys[0], f"value-{i}").then(results.append)
    cluster.run(until=cluster.sim.now + 0.05)
    assert len(results) == 20
    assert all(r.ok for r in results)
    # All replicas converge to the same value and version.
    stores = chain_stores(cluster.controller, keys[0])
    versions = {store.read(keys[0]).version() for store in stores}
    values = {store.read(keys[0]).value for store in stores}
    assert len(versions) == 1
    assert len(values) == 1
    assert_invariants(cluster, keys)


def test_reordering_links_do_not_break_consistency():
    """The Figure 5 problem: reordered writes between chain switches."""
    cluster = make_cluster()
    # Inject heavy reordering jitter on every link.
    for link in cluster.topology.links:
        link.set_faults(LinkFaultModel(link.rng, reorder_jitter=30e-6))
    keys = [f"key{i}" for i in range(5)]
    cluster.controller.populate(keys)
    agents = cluster.agent_list()
    done = []
    rng = random.Random(0)
    for i in range(120):
        agent = agents[rng.randrange(len(agents))]
        agent.write(rng.choice(keys), f"v{i}").then(done.append)
    cluster.run(until=cluster.sim.now + 0.2)
    assert len(done) == 120
    assert_invariants(cluster, keys)
    checker = ClientObservationChecker()
    reader = cluster.agent("H0")
    for key in keys:
        checker.observe_result(reader.read(key).result())
    assert checker.ok()


def test_loss_and_retries_preserve_invariants(cluster):
    keys = [f"key{i}" for i in range(5)]
    cluster.controller.populate(keys)
    cluster.topology.set_loss_rate(0.15)
    agent = cluster.agent("H0")
    for i in range(40):
        agent.write(keys[i % len(keys)], f"v{i}").result(10.0)
    assert_invariants(cluster, keys)


def test_client_observations_monotonic_across_failover(cluster):
    keys = [f"key{i}" for i in range(8)]
    cluster.controller.populate(keys)
    agent = cluster.agent("H0")
    checker = ClientObservationChecker()
    for i, key in enumerate(keys):
        checker.observe_result(agent.write(key, f"before-{i}").result())
        checker.observe_result(agent.read(key).result())
    # Fail the middle switch of the canonical chain and fail over.
    cluster.topology.switches["S1"].fail()
    cluster.controller.fast_failover("S1")
    cluster.run(until=cluster.sim.now + 0.1)
    for i, key in enumerate(keys):
        checker.observe_result(agent.write(key, f"after-{i}").result(10.0))
        result = agent.read(key).result(10.0)
        checker.observe_result(result)
        assert result.value == f"after-{i}".encode()
    assert checker.ok()
    assert_invariants(cluster, keys)


def test_full_failure_recovery_preserves_data_and_order(cluster):
    keys = [f"key{i}" for i in range(30)]
    cluster.controller.populate(keys)
    agent = cluster.agent("H0")
    for key in keys:
        agent.write(key, f"gen1-{key}").result()
    cluster.topology.switches["S1"].fail()
    cluster.controller.fast_failover("S1")
    cluster.controller.failure_recovery("S1", new_switch="S3")
    cluster.run(until=cluster.sim.now + 60.0)
    # Every key is durable, writable, and its chain invariant holds.
    checker = ClientObservationChecker()
    for key in keys:
        result = agent.read(key).result(10.0)
        assert result.value == f"gen1-{key}".encode()
        checker.observe_result(result)
        agent.write(key, f"gen2-{key}").result(10.0)
        result = agent.read(key).result(10.0)
        assert result.value == f"gen2-{key}".encode()
        checker.observe_result(result)
    assert checker.ok()
    assert_invariants(cluster, keys)


def test_writes_survive_when_any_single_switch_fails():
    """f+1 = 3 chains tolerate any single switch failure (after failover)."""
    for victim in ("S1", "S2", "S3"):
        cluster = make_cluster()
        keys = [f"key{i}" for i in range(10)]
        cluster.controller.populate(keys)
        agent = cluster.agent("H0")
        cluster.topology.switches[victim].fail()
        cluster.controller.fast_failover(victim)
        cluster.run(until=cluster.sim.now + 0.1)
        for key in keys:
            assert agent.write(key, b"post-failure").result(10.0).ok
            assert agent.read(key).result(10.0).value == b"post-failure"
        assert_invariants(cluster, keys)


def test_read_your_writes_from_same_client(cluster):
    cluster.controller.populate(["x"])
    agent = cluster.agent("H0")
    for i in range(10):
        agent.write("x", f"v{i}").result()
        assert agent.read("x").result().value == f"v{i}".encode()
