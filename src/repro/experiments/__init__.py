"""Experiment drivers: one module per figure/table of the evaluation.

Every public function here regenerates the data series behind one paper
figure or table (Section 8), using the simulated testbed and the scale
model described in DESIGN.md.  The benchmark suite under ``benchmarks/``
calls these drivers and prints the same rows/series the paper reports;
EXPERIMENTS.md records the paper-vs-measured comparison.
"""

from repro.deploy import (
    DeploymentSpec,
    ScenarioChecks,
    ScenarioResult,
    WorkloadSpec,
    available_backends,
    build_deployment,
    run_scenario,
)
from repro.experiments.elasticity import (
    ElasticityTimeline,
    elasticity_experiment,
    reconfig_scenario,
)
from repro.experiments.failures import FailureTimeline, failure_experiment, fault_scenario
from repro.experiments.latency import LatencyPoint, netchain_latency_curve, zookeeper_latency_curve
from repro.experiments.scalability import scalability_experiment
from repro.experiments.tables import table1
from repro.experiments.throughput import (
    ThroughputResult,
    netchain_max_throughput_qps,
    netchain_throughput,
    zookeeper_throughput,
)
from repro.experiments.transactions import (
    TransactionResult,
    netchain_transactions,
    zookeeper_transactions,
)

__all__ = [
    "DeploymentSpec",
    "ScenarioChecks",
    "ScenarioResult",
    "WorkloadSpec",
    "available_backends",
    "build_deployment",
    "run_scenario",
    "ThroughputResult",
    "netchain_throughput",
    "zookeeper_throughput",
    "netchain_max_throughput_qps",
    "LatencyPoint",
    "netchain_latency_curve",
    "zookeeper_latency_curve",
    "FailureTimeline",
    "failure_experiment",
    "fault_scenario",
    "ElasticityTimeline",
    "elasticity_experiment",
    "reconfig_scenario",
    "TransactionResult",
    "netchain_transactions",
    "zookeeper_transactions",
    "scalability_experiment",
    "table1",
]
