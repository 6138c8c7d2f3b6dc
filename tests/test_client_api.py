"""Tests for the unified KVClient protocol: futures, sessions, batches.

The backend matrix is the point: every behavioural test here runs against
both the NetChain agent and the ZooKeeper adapter through the exact same
code path, which is what the protocol exists to guarantee.
"""

from __future__ import annotations

import pytest

from repro.apps.transactions import TransactionClient, TransactionWorkloadConfig
from repro.baselines import (
    ZooKeeperClient,
    ZooKeeperKVClient,
    build_zookeeper_ensemble,
)
from repro.core.agent import MAX_RETRIES
from repro.core.client import KVFuture, KVSession, KVTimeout, first, gather
import repro.baselines
import repro.core
from repro.core.coordination import Barrier, DistributedLock, cas_locks
from repro.deploy import DeploymentSpec, available_backends, build_deployment
from repro.netsim.engine import Simulator
from repro.netsim.host import HostConfig
from repro.netsim.routing import install_shortest_path_routes
from repro.netsim.topology import build_testbed
from repro.workloads import KeyValueWorkload, LoadClient, WorkloadConfig
from tests.conftest import make_cluster


class _Backend:
    """One backend under test: a factory of KVClients over shared state."""

    def __init__(self, name, make_client, prepare_keys, sim):
        self.name = name
        self.make_client = make_client
        self.prepare_keys = prepare_keys
        self.sim = sim


def _netchain_backend() -> _Backend:
    cluster = make_cluster()

    def make_client(index: int = 0):
        return cluster.agent(f"H{index % len(cluster.agents)}")

    def prepare_keys(keys):
        cluster.controller.populate(list(keys))

    return _Backend("netchain", make_client, prepare_keys, cluster.sim)


def _zookeeper_backend() -> _Backend:
    topology = build_testbed(host_config=HostConfig(stack_delay=40e-6, nic_pps=None))
    install_shortest_path_routes(topology)
    hosts = [topology.hosts[f"H{i}"] for i in range(4)]
    ensemble = build_zookeeper_ensemble(hosts[:3], server_msgs_per_sec=None)

    def make_client(index: int = 0):
        session = ZooKeeperClient(hosts[3], ensemble, server_id=index % 3)
        return ZooKeeperKVClient(session)

    def prepare_keys(keys):
        ensemble.preload({f"/kv/{k}": b"" for k in keys})

    return _Backend("zookeeper", make_client, prepare_keys, topology.sim)


@pytest.fixture(params=["netchain", "zookeeper"])
def backend(request) -> _Backend:
    if request.param == "netchain":
        return _netchain_backend()
    return _zookeeper_backend()


# --------------------------------------------------------------------- #
# The protocol operations, identically on both backends.
# --------------------------------------------------------------------- #

def test_protocol_operations_round_trip(backend):
    backend.prepare_keys(["alpha"])
    client = backend.make_client()
    assert client.write("alpha", b"v1").result().ok
    read = client.read("alpha").result()
    assert read.ok and read.value == b"v1"
    assert read.backend == backend.name
    assert client.cas("alpha", b"v1", b"v2").result().ok
    conflict = client.cas("alpha", b"v1", b"v3").result()
    assert not conflict.ok and conflict.cas_failed
    assert client.read("alpha").result().value == b"v2"


def test_insert_creates_new_keys(backend):
    client = backend.make_client()
    assert client.insert("fresh-key", b"first").result().ok
    assert client.read("fresh-key").result().value == b"first"


def test_zookeeper_insert_creates_nested_parents():
    backend = _zookeeper_backend()
    client = backend.make_client()
    assert client.insert("flat", b"1").result().ok
    # A later key with a deeper parent chain must still get its ancestors.
    nested = client.insert("users/42", b"2").result()
    assert nested.ok
    assert client.read("users/42").result().value == b"2"


def test_insert_latency_includes_creation_cost(backend):
    client = backend.make_client()
    result = client.insert("timed-key", b"v").result()
    assert result.ok
    assert result.latency > 0


def test_read_missing_key_reports_not_found(backend):
    backend.prepare_keys(["exists"])
    client = backend.make_client()
    result = client.read("never-created").result()
    assert not result.ok
    assert result.not_found


# --------------------------------------------------------------------- #
# One way to wait, on every registered backend.
# --------------------------------------------------------------------- #

@pytest.fixture(params=available_backends())
def deployment(request):
    return build_deployment(DeploymentSpec(backend=request.param, store_size=8, seed=2))


def test_result_advances_the_clock_by_exactly_the_latency(deployment):
    """The clock stops at the reply, not at the deadline."""
    client = deployment.clients(1)[0]
    before = deployment.sim.now
    result = client.write(deployment.keys[0], b"v").result()
    assert result.ok and result.latency > 0.0
    assert deployment.sim.now - before == result.latency


def test_dead_network_surfaces_as_a_timeout(deployment):
    """The NetChain agent retries, gives up and resolves ``timed_out``; a
    TCP-backed client retransmits for ever, so the wait itself raises
    ``KVTimeout`` when its deadline passes."""
    client = deployment.clients(1)[0]
    deployment.topology.set_loss_rate(1.0)
    before = deployment.sim.now
    future = client.write(deployment.keys[0], b"v")
    if deployment.backend_name in ("netchain", "hybrid"):
        result = future.result(0.3)
        assert result.timed_out and not result.ok and result.error == "timeout"
        assert result.retries == MAX_RETRIES
        assert deployment.sim.now - before == result.latency
        agent = getattr(client, "agent", client)
        assert (agent.timeouts, agent.failed) == (1, 1)
    else:
        with pytest.raises(KVTimeout):
            future.result(0.3)
        assert deployment.sim.now - before == pytest.approx(0.3)


@pytest.mark.parametrize("package", [repro.core, repro.baselines], ids=["core", "baselines"])
def test_public_names_resolve_and_none_is_a_blocking_twin(package):
    for cls in [getattr(package, name) for name in package.__all__]:
        assert not [attr for attr in dir(cls) if attr.endswith("_sync")], cls


# --------------------------------------------------------------------- #
# Futures and combinators.
# --------------------------------------------------------------------- #

def test_future_then_chaining(backend):
    backend.prepare_keys(["chained"])
    client = backend.make_client()
    observed = []
    future = client.write("chained", b"x").then(observed.append).then(observed.append)
    future.result()
    assert len(observed) == 2 and observed[0].ok
    # then() after resolution fires immediately.
    future.then(observed.append)
    assert len(observed) == 3


@pytest.mark.parametrize("registered", [0, 1, 3])
def test_future_continuations_fire_once_each_in_registration_order(registered):
    """A future holds no list for its usual one continuation; any number,
    one registered during resolution and one after, fire once, in order."""
    future = KVFuture(Simulator(), op="noop")
    fired = []

    def registers_another(result):
        fired.append(("during", result))
        future.then(lambda r: fired.append(("nested", r)))

    for index in range(registered):
        future.then(lambda r, index=index: fired.append((index, r)))
    future.then(registers_another)
    future.resolve("done")
    future.resolve("a late duplicate")
    future.then(lambda r: fired.append(("after", r)))
    assert fired == [(index, "done") for index in range(registered)] + [
        ("during", "done"), ("nested", "done"), ("after", "done")]
    assert future.result() == "done"


def test_gather_preserves_order(backend):
    keys = [f"g{i}" for i in range(6)]
    backend.prepare_keys(keys)
    client = backend.make_client()
    for key in keys:
        client.write(key, key.encode()).result()
    results = gather([client.read(k) for k in keys]).result()
    assert [r.value for r in results] == [k.encode() for k in keys]


def test_first_resolves_with_earliest(backend):
    backend.prepare_keys(["f1"])
    client = backend.make_client()
    never = KVFuture(client.sim, op="noop")
    result = first([never, client.read("f1")]).result()
    assert result.ok


def test_unresolved_future_times_out():
    sim = Simulator()
    future = KVFuture(sim, op="noop", key=b"k")
    with pytest.raises(KVTimeout):
        future.result(deadline=0.01)


def test_gather_propagates_timeout(backend):
    backend.prepare_keys(["t1"])
    client = backend.make_client()
    stuck = KVFuture(client.sim, op="noop")
    combined = gather([client.read("t1"), stuck])
    with pytest.raises(KVTimeout):
        combined.result(deadline=0.05)


def test_gather_with_one_failed_leg_still_resolves(backend):
    backend.prepare_keys(["g-ok"])
    client = backend.make_client()
    results = gather([client.read("g-ok"),
                      client.read("g-missing"),
                      client.read("g-ok")]).result()
    assert [r.ok for r in results] == [True, False, True]
    assert results[1].not_found
    assert results[1].error is not None


def test_gather_with_all_legs_failed_resolves(backend):
    backend.prepare_keys(["exists"])
    client = backend.make_client()
    results = gather([client.read(f"absent-{i}") for i in range(3)]).result()
    assert all(not r.ok and r.not_found for r in results)


def test_first_resolves_with_failure_outcomes(backend):
    backend.prepare_keys(["f-ok"])
    client = backend.make_client()
    # A failure outcome is a resolution: first() must surface it rather
    # than wait for a slower success.
    never = KVFuture(client.sim, op="noop")
    result = first([never, client.read("f-absent")]).result()
    assert not result.ok and result.not_found
    # All legs failing still resolves with the earliest failure.
    result = first([client.read("f-absent"), client.read("f-absent2")]).result()
    assert not result.ok


def test_gather_and_first_validate_empty_input():
    with pytest.raises(ValueError):
        gather([])
    with pytest.raises(ValueError):
        first([])


def test_gather_across_mixed_backends():
    """One gather over futures from different backends (different
    simulators): each simulator is driven separately; the combined future
    resolves through callbacks alone and preserves input order."""
    netchain = _netchain_backend()
    zookeeper = _zookeeper_backend()
    netchain.prepare_keys(["mix"])
    zookeeper.prepare_keys(["mix"])
    nc_client = netchain.make_client()
    zk_client = zookeeper.make_client()
    nc_future = nc_client.read("mix")
    zk_future = zk_client.read("mix")
    missing = zk_client.read("mix-absent")
    combined = gather([nc_future, zk_future, missing])
    nc_future.result()
    assert not combined.done()  # the ZooKeeper legs are still in flight
    zk_future.result()
    missing.result()
    assert combined.done()
    results = combined.result()
    assert [r.backend for r in results] == ["netchain", "zookeeper", "zookeeper"]
    assert [r.ok for r in results] == [True, True, False]


def test_first_across_mixed_backends_picks_earliest_resolved():
    netchain = _netchain_backend()
    zookeeper = _zookeeper_backend()
    netchain.prepare_keys(["race"])
    zookeeper.prepare_keys(["race"])
    zk_future = zookeeper.make_client().read("race")
    nc_future = netchain.make_client().read("race")
    # result() drives the first future's simulator (NetChain here), whose
    # microsecond read wins the race.
    combined = first([nc_future, zk_future])
    winner = combined.result()
    assert winner.backend == "netchain"
    zk_future.result()  # drain the other backend; the winner stands
    assert combined.result().backend == "netchain"


# --------------------------------------------------------------------- #
# Sessions and batched pipelined submission.
# --------------------------------------------------------------------- #

def test_batch_preserves_submission_order(backend):
    # Pipelining overlaps operations, so a batch does not serialize a read
    # behind an earlier in-flight write to the same key; order preservation
    # means each result lands on the future of the operation it belongs to,
    # in submission order.  Write in one batch, read in the next.
    keys = [f"b{i}" for i in range(10)]
    backend.prepare_keys(keys)
    client = backend.make_client()
    session = client.session(window=4)
    writes = session.batch()
    for key in keys:
        writes.write(key, key.encode())
    write_results = writes.results()
    assert all(r.ok and r.op == "write" for r in write_results)
    assert [r.key for r in write_results] == [k.encode() for k in keys]
    reads = session.batch()
    for key in reversed(keys):
        reads.read(key)
    read_results = reads.results()
    assert [r.value for r in read_results] == [k.encode() for k in reversed(keys)]


def test_batch_window_bounds_inflight(backend):
    keys = [f"w{i}" for i in range(12)]
    backend.prepare_keys(keys)
    client = backend.make_client()

    outstanding = {"now": 0, "max": 0}
    original_read = client.read

    def tracking_read(key):
        outstanding["now"] += 1
        outstanding["max"] = max(outstanding["max"], outstanding["now"])

        def on_done(_result):
            outstanding["now"] -= 1

        return original_read(key).then(on_done)

    client.read = tracking_read
    batch = KVSession(client, window=3).batch()
    for key in keys:
        batch.read(key)
    results = batch.results()
    assert len(results) == 12 and all(r.ok for r in results)
    assert outstanding["max"] <= 3
    # The pipeline actually overlapped queries rather than serializing them.
    assert outstanding["max"] > 1


def test_batch_partial_failure_resolves_every_future(backend):
    backend.prepare_keys(["ok1", "ok2"])
    client = backend.make_client()
    batch = client.session(window=8).batch()
    batch.read("ok1").read("missing-key").read("ok2")
    cas = batch.cas("ok1", b"wrong-expected", b"x")
    results = cas.results()
    assert [r.ok for r in results] == [True, False, True, False]
    assert results[1].not_found
    assert results[3].cas_failed


def test_batch_mixed_ops_and_single_submission(backend):
    backend.prepare_keys(["m1"])
    client = backend.make_client()
    # window=1 serializes the pipeline, so dependent operations on the same
    # key observe each other in submission order.
    batch = (client.session(window=1).batch()
             .write("m1", b"v").read("m1").cas("m1", b"v", b"w").read("m1"))
    futures = batch.submit()
    with pytest.raises(RuntimeError):
        batch.submit()
    results = gather(futures).result()
    assert [r.op for r in results] == ["write", "read", "cas", "read"]
    assert results[3].value == b"w"


def test_session_window_validation(backend):
    client = backend.make_client()
    with pytest.raises(ValueError):
        client.session(window=0)


# --------------------------------------------------------------------- #
# Coordination primitives through the same code path on both backends.
# --------------------------------------------------------------------- #

def test_lock_mutual_exclusion_on_any_backend(backend):
    backend.prepare_keys(["lock:shared"])
    lock1 = DistributedLock(backend.make_client(0), "lock:shared", owner="c1")
    lock2 = DistributedLock(backend.make_client(1), "lock:shared", owner="c2")
    assert lock1.try_acquire()
    assert not lock2.try_acquire()
    assert not lock2.release()  # a non-owner cannot release
    assert lock1.holder() == b"c1"
    assert lock1.release()
    assert lock2.try_acquire()
    assert lock2.release()


def test_barrier_on_any_backend(backend):
    backend.prepare_keys(["barrier:x"])
    parties = [Barrier(backend.make_client(i), "barrier:x", parties=3)
               for i in range(3)]
    assert parties[0].arrive() == 1
    assert not parties[0].is_complete()
    assert parties[1].arrive() == 2
    assert parties[2].arrive() == 3
    for barrier in parties:
        assert barrier.is_complete()
    parties[0].wait()


def test_load_client_measures_on_any_backend(backend):
    keys = [f"k{i:08d}" for i in range(10)]
    backend.prepare_keys(keys)
    workload = KeyValueWorkload(WorkloadConfig(store_size=10, key_prefix="k",
                                               write_ratio=0.5, seed=0))
    client = LoadClient(backend.make_client(), workload, concurrency=4)
    duration = 0.05 if backend.name == "netchain" else 0.5
    start = backend.sim.now
    client.start()
    backend.sim.run(until=start + 1.2 * duration)
    client.stop()
    assert client.successes.rate_between(start + 0.2 * duration,
                                         start + 1.2 * duration) > 0
    assert client.read_latency.mean() > 0
    assert client.write_latency.mean() > 0


def test_transaction_client_commits_on_any_backend(backend):
    config = TransactionWorkloadConfig(contention_index=0.5, cold_items=20, seed=3)
    backend.prepare_keys(config.hot_keys() + config.cold_keys())
    client = TransactionClient(backend.sim, cas_locks(backend.make_client(), "txn-0"), config)
    client.start()
    duration = 0.05 if backend.name == "netchain" else 2.0
    backend.sim.run(until=backend.sim.now + duration)
    client.stop()
    backend.sim.run(until=backend.sim.now + duration)
    assert client.stats.committed.total() > 0
    assert client.stats.aborts == 0  # single client never conflicts
    # Every lock was released on commit.
    probe = backend.make_client()
    for key in config.hot_keys():
        assert probe.read(key).result(10.0).value == b""
