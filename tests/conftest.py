"""Shared fixtures for the NetChain reproduction test suite."""

from __future__ import annotations

import os

import pytest

from repro.core import NetChainCluster
from repro.core.controller import ControllerConfig
from repro.perfmodel.devices import scaled_testbed


def fault_seeds() -> list:
    """Seeds the fault-scenario matrix (tests/test_faults_*) runs under.

    Local runs default to a single seed to keep the tier-1 suite fast; CI
    sets ``FAULT_SEEDS`` (comma-separated) to fan the same scenarios out
    over a fixed seed matrix.
    """
    env = os.environ.get("FAULT_SEEDS", "").strip()
    if env:
        return [int(part) for part in env.replace(",", " ").split()]
    return [0]


def make_cluster(vnodes_per_switch: int = 4, store_slots: int = 2048,
                 scale: float = 1000.0, seed: int = 0,
                 **controller_overrides) -> NetChainCluster:
    """A small, fast NetChain cluster on the 4-switch testbed."""
    return NetChainCluster(scaled_testbed(scale=scale, seed=seed),
                           ControllerConfig(vnodes_per_switch=vnodes_per_switch,
                                            store_slots=store_slots, seed=seed,
                                            **controller_overrides),
                           scale=scale)


@pytest.fixture
def cluster() -> NetChainCluster:
    """A ready-to-use testbed cluster."""
    return make_cluster()


@pytest.fixture
def agent(cluster: NetChainCluster):
    """The client agent on H0 of the testbed cluster."""
    return cluster.agent("H0")
