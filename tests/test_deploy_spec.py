"""Eager validation of DeploymentSpec, spec options and backend checks."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.deploy.backends
from repro.core import ControllerConfig, NetChainCluster
from repro.deploy import DeploymentSpec, ScenarioChecks, build_deployment
from repro.deploy.matrix import default_matrix
from repro.perfmodel.devices import scaled_testbed


# --------------------------------------------------------------------- #
# DeploymentSpec.validate().
# --------------------------------------------------------------------- #

def test_default_spec_is_valid():
    assert DeploymentSpec().validate() is not None


@pytest.mark.parametrize("field,value", [
    ("backend", ""),
    ("scale", 0.0),
    ("scale", -2.0),
    ("num_hosts", 0),
    ("replication", 0),
    ("vnodes_per_switch", 0),
    ("store_size", -1),
    ("value_size", -1),
    ("store_slots", 0),
    ("loss_rate", -0.1),
    ("loss_rate", 1.0),
    ("retry_timeout", 0.0),
    ("sync_items_per_sec", 0.0),
    ("sync_items_per_sec", -140.0),
])
def test_invalid_spec_fields_raise(field, value):
    with pytest.raises(ValueError):
        DeploymentSpec(**{field: value}).validate()


def test_store_slots_must_hold_store_size():
    with pytest.raises(ValueError, match="store_slots"):
        DeploymentSpec(store_size=100, store_slots=50).validate()


def test_store_slots_must_hold_the_extra_keys_too():
    """Every preloaded key takes a slot: a spec whose ``extra_keys`` do not
    fit is refused where it was written, not by a full store mid-build."""
    spec = DeploymentSpec(store_size=4, store_slots=4, extra_keys=["lock0"])
    with pytest.raises(ValueError, match=r"store_slots \(4\).*5 preloaded keys"):
        spec.validate()
    with pytest.raises(ValueError, match="store_slots"):
        build_deployment(spec)
    build_deployment(DeploymentSpec(store_size=4, store_slots=5,
                                    extra_keys=["lock0"])).teardown()


@pytest.mark.parametrize("backend", ["netchain", "hybrid"])
def test_the_spec_is_the_one_source_of_the_controller_config(backend):
    spec = DeploymentSpec(backend=backend, replication=2, vnodes_per_switch=3,
                          store_size=8, store_slots=96, seed=5,
                          sync_items_per_sec=321.0)
    deployment = build_deployment(spec)
    config = deployment.cluster.controller.config
    assert (config.replication, config.vnodes_per_switch, config.store_slots,
            config.seed, config.sync_items_per_sec) == (2, 3, 96, 5, 321.0)
    controller = deployment.cluster.controller
    assert {len(info.switches) for info in controller.chain_table.values()} == {2}
    assert len(controller.chain_table) == 3 * len(controller.members)
    assert {store.capacity for store in controller.stores.values()} == {96}
    deployment.teardown()


@pytest.mark.parametrize("event", [
    (0.5,),                  # no action
    (0.5, 42),               # non-string action
    (-1.0, "fail_switch"),   # negative time
])
def test_malformed_fault_events_raise(event):
    with pytest.raises(ValueError):
        DeploymentSpec(faults=[event]).validate()


def test_unknown_backend_error_names_registered_backends():
    with pytest.raises(ValueError, match="netchain"):
        build_deployment(DeploymentSpec(backend="nope"))


def test_with_backend_copies_the_spec():
    spec = DeploymentSpec(backend="netchain", store_size=12, seed=9)
    other = spec.with_backend("zookeeper")
    assert other.backend == "zookeeper"
    assert other.store_size == 12 and other.seed == 9
    assert spec.backend == "netchain"


def test_key_names_include_extra_keys():
    spec = DeploymentSpec(store_size=2, extra_keys=["lock:a"])
    assert spec.key_names() == ["k00000000", "k00000001", "lock:a"]


# --------------------------------------------------------------------- #
# spec.options: a backend takes only the keys it reads.
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("backend,key", [
    ("netchain", "fault_reaction"),        # a key nothing reads
    ("primary-backup", "detector_cfg"),    # a typo
    ("zookeeper", "controller_config"),    # a netchain-only key
    ("hybrid", "controller_config"),
    ("netchain", "stack_delay"),           # a server-hosted-only key
])
def test_unknown_option_keys_raise_naming_the_known_ones(backend, key):
    with pytest.raises(ValueError, match=rf"unknown {backend} option\(s\): "
                                         rf"{key} \(known: .*detector_config"):
        build_deployment(DeploymentSpec(backend=backend, options={key: {}}))


@pytest.mark.parametrize("where,key", [
    ("detector_config", "auto_recover"),
    ("detector_config", "auto_reintroduce"),
    ("detector_config", "start_offset"),
    ("telemetry", "trace"),
    ("telemetry", "metrics"),
    ("telemetry", "events"),
    ("reconfig", "config"),
    *[(backend, "controller_config") for backend in sorted(repro.deploy.backends.BACKENDS)],
    ("checks", "custom"),
])
def test_deleted_spec_keys_raise_naming_the_key(where, key):
    """A spec dict carrying a knob that no longer exists is refused, not
    ignored: in-process and on the JSON path matrix cells take.  A
    deployment is described by its spec's fields alone, so no backend takes
    a ``controller_config`` option; the scenario checks are declarative."""
    if where == "checks":
        with pytest.raises(ValueError, match=rf"\b{key}\b"):
            ScenarioChecks.from_dict({**ScenarioChecks().to_dict(), key: []})
        return
    if where in repro.deploy.backends.BACKENDS:
        spec = DeploymentSpec(backend=where, store_size=8,
                              options={key: {"sync_items_per_sec": 100.0}})
        with pytest.raises(ValueError, match=rf"\b{key}\b \(known: .*detector_config"):
            build_deployment(spec)
        with pytest.raises(ValueError, match=rf"\b{key}\b"):
            build_deployment(DeploymentSpec.from_dict(spec.to_dict()))
        return
    if where == "telemetry":
        fields = {"telemetry": {key: True}}
    elif where == "reconfig":
        fields = {"options": {"reconfig": {"changes": [[0.01, ["S4"], []]], key: None}}}
    else:
        fields = {"options": {where: {key: True}}}
    with pytest.raises(ValueError, match=rf"\b{key}\b"):
        build_deployment(DeploymentSpec(store_size=8, **fields))
    with pytest.raises(ValueError, match=rf"\b{key}\b"):
        DeploymentSpec.from_dict({**DeploymentSpec(store_size=8).to_dict(), **fields})


def test_shipped_specs_still_build():
    # The pinned matrix cell and the default grid's profiles carry only
    # keys their backends read.
    cell = json.loads((Path(__file__).parent / "fixtures" / "cells"
                       / "hot_route_across_migration.json").read_text())
    build_deployment(DeploymentSpec.from_dict(cell["spec"])).teardown()
    for cell in default_matrix(seeds=[0]).cells():
        build_deployment(DeploymentSpec.from_dict(cell["spec"])).teardown()


# --------------------------------------------------------------------- #
# NetChainCluster's own check.
# --------------------------------------------------------------------- #

def test_replication_larger_than_member_count_raises_clearly():
    with pytest.raises(ValueError, match="member switches"):
        NetChainCluster(scaled_testbed(),
                        ControllerConfig(replication=5, store_slots=256,
                                         vnodes_per_switch=2))


def test_replication_larger_than_explicit_members_raises():
    from repro.netsim.topology import build_testbed
    with pytest.raises(ValueError, match="member switches"):
        NetChainCluster(build_testbed(num_hosts=2),
                        ControllerConfig(replication=3, store_slots=256,
                                         vnodes_per_switch=2),
                        member_switches=["S0", "S1"])


# --------------------------------------------------------------------- #
# Backend-specific spec checks.
# --------------------------------------------------------------------- #

def test_netchain_backend_rejects_replication_beyond_testbed():
    with pytest.raises(ValueError, match="replication"):
        build_deployment(DeploymentSpec(backend="netchain", replication=5))


@pytest.mark.parametrize("backend", ["zookeeper", "server-chain", "primary-backup"])
def test_server_backends_require_a_client_host(backend):
    with pytest.raises(ValueError, match="client host"):
        build_deployment(DeploymentSpec(backend=backend, replication=4,
                                        num_hosts=4))


def test_backend_check_runs_before_build(monkeypatch):
    # A failing check raises before any topology is built.
    def no_topology(**kwargs):
        raise AssertionError("built a topology for a spec that fails its check")
    monkeypatch.setattr(repro.deploy.backends, "build_testbed", no_topology)
    for backend in ("zookeeper", "server-chain", "primary-backup"):
        with pytest.raises(ValueError, match="client host"):
            build_deployment(DeploymentSpec(backend=backend, replication=9,
                                            num_hosts=4))
