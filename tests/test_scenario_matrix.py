"""The scenario matrix: one seeded scenario on all five backends.

This is the acceptance surface of the declarative deployment API:

* the identical spec + workload + seed runs unmodified on every
  backend via :func:`run_scenario`, passing per-key
  linearizability checks;
* the same seed replays byte-identically (operation-level signatures,
  including timestamps, match across runs);
* the NetChain scenario is byte-identical to driving the pre-refactor
  construction path (direct ``NetChainCluster`` assembly) by hand with
  the same seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.core import ControllerConfig, NetChainCluster
from repro.core.history import History, check_linearizable
from repro.deploy import (
    DeploymentSpec,
    ScenarioChecks,
    WorkloadSpec,
    available_backends,
    build_deployment,
    run_scenario,
)
from repro.deploy.matrix import signature_digest
from repro.experiments import fault_scenario, reconfig_scenario
from repro.netsim.link import Link
from repro.netsim.tcp import TcpEndpoint
from repro.perfmodel.devices import scaled_testbed
from repro.workloads.clients import LoadClient
from repro.workloads.generators import KeyValueWorkload, WorkloadConfig

SEED = 5
STORE_SIZE = 20
VALUE_SIZE = 32


def matrix_spec(backend: str = "netchain", seed: int = SEED) -> DeploymentSpec:
    return DeploymentSpec(backend=backend, store_size=STORE_SIZE,
                          value_size=VALUE_SIZE, seed=seed)


def matrix_workload() -> WorkloadSpec:
    return WorkloadSpec(num_clients=2, concurrency=2, write_ratio=0.5,
                        duration=0.25, drain=0.25)


@pytest.mark.parametrize("backend", available_backends())
def test_one_seeded_scenario_runs_on_every_backend(backend):
    result = run_scenario(matrix_spec(backend), matrix_workload())
    assert result.ok(), result.failures
    assert result.completed_ops > 0
    assert result.linearizability is not None and result.linearizability.ok
    assert result.backend == backend


@pytest.mark.parametrize("backend", ["netchain", "server-chain", "hybrid"])
def test_same_seed_replays_byte_identically(backend):
    first = run_scenario(matrix_spec(backend), matrix_workload())
    second = run_scenario(matrix_spec(backend), matrix_workload())
    assert signature_digest(first) == signature_digest(second)
    assert next(first.iter_signature(), None) is not None


def test_different_seeds_differ():
    first = run_scenario(matrix_spec(seed=5), matrix_workload())
    second = run_scenario(matrix_spec(seed=6), matrix_workload())
    assert signature_digest(first) != signature_digest(second)


def test_netchain_scenario_is_byte_identical_to_legacy_construction():
    """Drive the pre-refactor construction path (direct NetChainCluster +
    populate, hand-rolled load clients) with the same
    seed and compare the full operation trace -- values, outcomes and
    simulated timestamps must match exactly."""
    workload = matrix_workload()
    via_spec = run_scenario(matrix_spec("netchain"), workload)

    # The pre-refactor path: what the keyword builder (scale=1000.0,
    # store_size=20, value_size=32, seed=5) used to assemble by hand.
    cluster = NetChainCluster(
        scaled_testbed(scale=1000.0, num_hosts=4, seed=SEED),
        ControllerConfig(replication=3, vnodes_per_switch=4,
                         store_slots=max(1024, STORE_SIZE + 1024), seed=SEED),
        retry_timeout=500e-6, scale=1000.0)
    keys = cluster.populate(STORE_SIZE, value_size=VALUE_SIZE)
    history = History(cluster.sim)
    agents = cluster.agent_list()
    load_clients = []
    for index in range(workload.num_clients):
        tag = f"c{index}"
        generator = KeyValueWorkload(
            WorkloadConfig(store_size=STORE_SIZE, value_size=VALUE_SIZE,
                           write_ratio=workload.write_ratio,
                           unique_values=True),
            rng=random.Random((SEED << 8) + index + 1), tag=tag)
        load_clients.append(LoadClient(agents[index], generator,
                                       concurrency=workload.concurrency,
                                       history=history, name=tag))
    for client in load_clients:
        client.start()
    cluster.run(until=workload.duration)
    for client in load_clients:
        client.stop()
    cluster.run(until=workload.duration + workload.drain)

    legacy_signature = [(op.client, op.op, op.key, op.value, op.output, op.ok,
                         op.invoked_at, op.returned_at) for op in history.ops]
    assert signature_digest(via_spec) == sha(legacy_signature)
    initial = {key.encode("utf-8"): bytes(VALUE_SIZE) for key in keys}
    assert check_linearizable(history, initial=initial).ok


def sha(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


@pytest.mark.anchor
@pytest.mark.parametrize("name, scenario", [
    ("fault", lambda: fault_scenario(
        seed=0, duration=2.0, faults=[(0.4, "fail_switch", "S1")])),
    ("reconfig", lambda: reconfig_scenario(
        [(0.5, ["S4"], [])], seed=0, duration=2.0)),
])
def test_replay_digests_match_the_pre_consolidation_wrappers(name, scenario):
    """Cross-commit replay anchor: ``fixtures/replay_digests.json`` was
    captured through the keyword wrapper harnesses on the commit before
    they became spec constructors; the same scenarios through
    ``run_scenario`` must reproduce every digest."""
    expected = json.loads((Path(__file__).parent / "fixtures"
                           / "replay_digests.json").read_text())[name]
    result = run_scenario(*scenario())
    assert {
        "signature_sha256": signature_digest(result),
        "trace_signature_sha256": sha(result.trace_signature()),
        "migration_signature_sha256": sha(result.migration_signature()),
        "completed_ops": result.completed_ops,
        "failed_ops": result.failed_ops,
    } == expected
    assert result.ok(), result.failures


def tcp_backend_digest(backend: str, loss_rate: float) -> dict:
    """What one seeded scenario on a TCP-backed backend pins: every op's
    outcome and timestamps, the event count, and the retransmissions summed
    over every endpoint bound on the deployment's hosts."""
    spec = dataclasses.replace(matrix_spec(backend), loss_rate=loss_rate,
                               unlimited_capacity=True)
    deployment = build_deployment(spec)
    result = run_scenario(spec, matrix_workload(), deployment=deployment)
    endpoints = [handler.__self__
                 for host in deployment.topology.hosts.values()
                 for handler in host._sockets.values()
                 if isinstance(getattr(handler, "__self__", None), TcpEndpoint)]
    assert endpoints
    return {
        "signature_sha256": signature_digest(result),
        "completed_ops": result.completed_ops,
        "failed_ops": result.failed_ops,
        "processed_events": deployment.sim.processed_events,
        "retransmissions": sum(e.retransmissions for e in endpoints),
        "ok": result.ok(),
    }


@pytest.mark.anchor
@pytest.mark.parametrize("loss_rate", [0.0, 0.01])
@pytest.mark.parametrize("backend", ["server-chain", "primary-backup", "zookeeper"])
def test_tcp_backend_replay_digests_match_the_commit_before_the_message_path(
        backend, loss_rate):
    """Cross-commit replay anchor for the transport the three server
    baselines ride: the ``tcp`` entries of ``fixtures/replay_digests.json``
    were captured on the commit before the server-side message path was
    respelled (PR 19), loss-free and at 1% loss -- so RTO, backoff,
    duplicate suppression and the reorder buffer are on the pinned path.

    ``signature_sha256``, ``completed_ops``, ``failed_ops``,
    ``retransmissions`` and ``ok`` are what the run did: a performance
    change never refreshes them.  ``processed_events`` is how many events
    the engine spent doing it: a change that removes events re-pins it
    once (the fused host hops did), and is checked on its own so the
    semantic half stays fixed."""
    expected = dict(json.loads((Path(__file__).parent / "fixtures"
                                / "replay_digests.json").read_text())
                    ["tcp"][f"{backend}@loss={loss_rate}"])
    measured = tcp_backend_digest(backend, loss_rate)
    expected_events = expected.pop("processed_events")
    assert {name: measured[name] for name in expected} == expected
    assert measured["processed_events"] == expected_events
    if loss_rate:
        assert expected["retransmissions"] > 0


#: Run length per backend: a few hundred to a few thousand recorded ops each
#: (the switch-hosted backends complete an op in microseconds, the TCP ones
#: in tens of them).
VERSION_RUN_SECONDS = {"netchain": 0.02, "hybrid": 0.02, "server-chain": 0.25,
                       "primary-backup": 0.25, "zookeeper": 0.25}


def backend_versions_digest(backend: str, loss_rate: float) -> dict:
    """Every recorded op's ``(op_id, ok, version)`` from one seeded run."""
    spec = dataclasses.replace(matrix_spec(backend), loss_rate=loss_rate,
                               unlimited_capacity=True)
    workload = dataclasses.replace(matrix_workload(),
                                   duration=VERSION_RUN_SECONDS[backend])
    ops = run_scenario(spec, workload).history.ops
    return {"ops": len(ops),
            "sha256": sha([(op.op_id, op.ok, op.version) for op in ops])}


@pytest.mark.anchor
@pytest.mark.parametrize("loss_rate", [0.0, 0.01])
@pytest.mark.parametrize("backend", sorted(VERSION_RUN_SECONDS))
def test_every_backend_reports_the_versions_it_reported_before(backend, loss_rate):
    """Cross-commit replay anchor for the version each reply carries into
    the history -- the ``(session, seq)`` the linearizability witness
    checks.  The ``versions`` entries of ``fixtures/replay_digests.json``
    were captured on the commit before the version became a field of the
    one result type, when it still reached the history through each
    backend's native result object."""
    expected = json.loads((Path(__file__).parent / "fixtures"
                           / "replay_digests.json").read_text())[
        "versions"][f"{backend}@loss={loss_rate}"]
    assert backend_versions_digest(backend, loss_rate) == expected


def test_declarative_fault_schedule_in_a_scenario():
    """A spec-level fault event is armed, the detector reacts, and the
    recorded history stays linearizable through failover."""
    spec = DeploymentSpec(backend="netchain", store_size=16, value_size=32,
                          seed=3, vnodes_per_switch=2,
                          faults=[(0.2, "fail_switch", "S1")])
    result = run_scenario(spec, WorkloadSpec(num_clients=2, concurrency=2,
                                             write_ratio=0.4, duration=1.2,
                                             think_time=1e-3, drain=0.5))
    assert result.ok(), result.failures
    assert any(event.kind == "switch_fail" for event in result.fault_trace)
    assert "S1" in result.deployment.cluster.controller.failed_switches


def test_scenario_checks_can_be_tuned():
    checks = ScenarioChecks(linearizability=False, require_progress=True)
    result = run_scenario(matrix_spec("netchain"), matrix_workload(), checks)
    assert result.ok()
    assert result.linearizability is None
    assert result.history is None


def test_a_link_that_loses_count_of_a_delivery_fails_the_run(monkeypatch):
    """Conservation is checked after every run, with no check to switch on:
    per link, the packets its two ports sent equal ``delivered + dropped``.
    A link that forgets one delivery is named."""
    assert run_scenario(matrix_spec("netchain"), matrix_workload()).ok()
    transmit = Link.transmit
    uncounted = []

    def forgets_one(self, packet, from_port, tx_at=None):
        transmit(self, packet, from_port, tx_at)
        if not uncounted and self.stats.delivered:
            self.stats.delivered -= 1
            uncounted.append(self.name)

    monkeypatch.setattr(Link, "transmit", forgets_one)
    result = run_scenario(matrix_spec("netchain"), matrix_workload())
    (message,) = result.failures
    assert message.startswith(f"link {uncounted[0]}: ") and "delivered" in message


def test_scenario_rejects_faults_on_unsupporting_backend(monkeypatch):
    from repro.deploy import Capabilities, ServerChainDeployment
    monkeypatch.setattr(ServerChainDeployment, "capabilities",
                        Capabilities(supports_fault_injection=False))
    spec = matrix_spec("server-chain")
    spec.faults = [(0.1, "fail_switch", "S1")]
    with pytest.raises(ValueError, match="fault injection"):
        run_scenario(spec, matrix_workload())


def test_scaled_throughput_flag_controls_scaling():
    netchain = run_scenario(matrix_spec("netchain"), matrix_workload())
    chain = run_scenario(matrix_spec("server-chain"), matrix_workload())
    assert netchain.scaled_qps == pytest.approx(netchain.success_qps * 1000.0)
    assert chain.scaled_qps == pytest.approx(chain.success_qps)
