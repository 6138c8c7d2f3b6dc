"""Experiment drivers for the evaluation (Section 8).

One driver per measurement, whatever the backend: :func:`measure` (and
:func:`latency_curve` over it) for Figs. 9(a)-(e),
:func:`measure_transactions` for Fig. 11, and the two timelines,
:func:`failure_experiment` (Fig. 10) and :func:`elasticity_experiment`
(live scale-out).  They run on the simulated testbed under the scale
model of :mod:`repro.perfmodel.devices`.  Fig. 9(f) and Table 1 are
analytic: :func:`repro.perfmodel.scalability_sweep` and
:func:`repro.perfmodel.table1_rows`.  The benchmark suite under
``benchmarks/`` calls these and prints the rows the paper reports;
EXPERIMENTS.md records the paper-vs-measured comparison.
"""

from repro.experiments.elasticity import (
    ElasticityTimeline,
    elasticity_experiment,
    reconfig_scenario,
)
from repro.experiments.failures import FailureTimeline, failure_experiment, fault_scenario
from repro.experiments.throughput import (
    adaptive_retry_timeout,
    latency_curve,
    measure,
    netchain_max_throughput_qps,
    zookeeper_loss_degradation,
)
from repro.experiments.transactions import TransactionResult, measure_transactions

__all__ = [
    "measure",
    "latency_curve",
    "adaptive_retry_timeout",
    "netchain_max_throughput_qps",
    "zookeeper_loss_degradation",
    "FailureTimeline",
    "failure_experiment",
    "fault_scenario",
    "ElasticityTimeline",
    "elasticity_experiment",
    "reconfig_scenario",
    "TransactionResult",
    "measure_transactions",
]
