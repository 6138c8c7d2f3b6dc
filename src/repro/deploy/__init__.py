"""Declarative deployments and scenarios over five backends.

The paper's evaluation sweeps one workload over NetChain, ZooKeeper and
server-based chain variants.  This package makes that matrix a first-class
object:

* :class:`DeploymentSpec` -- a declarative description of a deployment
  (topology scale, membership, preloaded store, fault schedule, seed).
* :class:`Deployment` -- one subclass per backend (``netchain``,
  ``zookeeper``, ``server-chain``, ``primary-backup``, ``hybrid``), each
  with a ``build(spec)`` classmethod; ``BACKENDS`` maps the names to
  the classes.
* :func:`build_deployment` -- spec in, :class:`Deployment` out: a
  simulator, unified-protocol clients, a fault injector, capability
  flags and a teardown.  ``spec.options`` keys the backend does not
  read are rejected.
* :func:`run_scenario` -- compose any backend with any workload,
  declarative fault schedule and history/linearizability checks.
* :class:`MatrixSpec` / :func:`run_matrix` -- the whole seed x backend x
  fault-profile grid as serializable task descriptors, fanned across a
  ``multiprocessing`` pool and merged into one deterministic report.

Every future workload/backend combination is a config change, not a new
builder.
"""

from repro.deploy.backends import (
    BACKENDS,
    HybridDeployment,
    NetChainDeployment,
    PrimaryBackupDeployment,
    ServerChainDeployment,
    ZooKeeperDeployment,
    available_backends,
    build_deployment,
)
from repro.deploy.base import Capabilities, Deployment
from repro.deploy.matrix import (
    MatrixSpec,
    canonical_report,
    default_matrix,
    merge_summaries,
    run_cell,
    run_matrix,
)
from repro.deploy.scenario import ScenarioChecks, ScenarioResult, WorkloadSpec, run_scenario
from repro.deploy.spec import DeploymentSpec

__all__ = [
    "DeploymentSpec",
    "BACKENDS",
    "Capabilities",
    "Deployment",
    "available_backends",
    "build_deployment",
    "NetChainDeployment",
    "ZooKeeperDeployment",
    "ServerChainDeployment",
    "PrimaryBackupDeployment",
    "HybridDeployment",
    "ScenarioChecks",
    "ScenarioResult",
    "WorkloadSpec",
    "run_scenario",
    "MatrixSpec",
    "canonical_report",
    "default_matrix",
    "merge_summaries",
    "run_cell",
    "run_matrix",
]
