"""Throughput experiments: Figures 9(a), 9(b), 9(c) and 9(d).

Each driver describes the testbed deployment and its closed-loop load as
a :func:`repro.deploy.run_scenario` call, measured past a warmup, and
reports the saturation throughput scaled back to the paper's absolute
units (MQPS for NetChain, KQPS for ZooKeeper).

The evaluated quantities:

* ``NetChain(1..4)`` -- throughput with 1..4 client servers generating load
  against the chain ``[S0, S1, S2]``.  The bottleneck is the clients' DPDK
  agents (20.5 MQPS each), so the curve saturates at ~82 MQPS with four
  servers regardless of value size, store size or write ratio.
* ``NetChain(max)`` -- the theoretical chain capacity (2 BQPS in the
  testbed mode where each switch processes every query packet twice).
* ``ZooKeeper`` -- the 3-server ensemble driven by 100 client processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.deploy import (
    DeploymentSpec,
    ScenarioChecks,
    ScenarioResult,
    WorkloadSpec,
    run_scenario,
)
from repro.perfmodel.devices import TOFINO


@dataclass
class ThroughputResult:
    """A measured throughput point."""

    system: str
    qps: float
    #: The parameter values this point was measured at.
    value_size: int
    store_size: int
    write_ratio: float
    loss_rate: float
    num_load_generators: int

    @property
    def mqps(self) -> float:
        return self.qps / 1e6

    @property
    def kqps(self) -> float:
        return self.qps / 1e3


def netchain_max_throughput_qps(chain_length: int = 3,
                                passes_per_switch: int = 2) -> float:
    """NetChain(max): the theoretical maximum of one switch chain.

    In the evaluated testbed mode every query packet is processed twice by
    each chain switch (Section 8.1), so a chain of three 4 BQPS switches
    tops out at 3 * 4 / (3 * 2) = 2 BQPS.
    """
    total_capacity = chain_length * TOFINO.packets_per_sec
    return total_capacity / (chain_length * passes_per_switch)


def adaptive_retry_timeout(concurrency: int, scale: float,
                           client_pps: float = 20.5e6, floor: float = 1e-3) -> float:
    """A client retry timeout compatible with the scale model.

    With a scaled-down client NIC rate, a closed-loop client's own queries
    queue behind each other for roughly ``concurrency * scale / client_pps``
    seconds; the retry timer must sit comfortably above that or healthy
    queries get retried and the measurement collapses.  Loss experiments
    keep the timeout tight enough that lost queries are retried well within
    the measurement window.
    """
    return max(floor, 4.0 * concurrency * scale / client_pps)


def measure(spec: DeploymentSpec, **workload) -> ScenarioResult:
    """Drive unrecorded closed-loop load on ``spec`` and return the
    scenario result of the measurement window (``workload`` holds
    :class:`WorkloadSpec` fields; nothing is drained or checked)."""
    return run_scenario(
        spec,
        WorkloadSpec(unique_values=False, drain=0.0, **workload),
        ScenarioChecks(linearizability=False, require_progress=False))


def netchain_throughput(num_servers: int = 4,
                        value_size: int = 64,
                        store_size: int = 2000,
                        write_ratio: float = 0.01,
                        loss_rate: float = 0.0,
                        scale: float = 20000.0,
                        duration: float = 0.3,
                        warmup: float = 0.1,
                        concurrency: int = 16,
                        retry_timeout: Optional[float] = None,
                        seed: int = 0) -> ThroughputResult:
    """Measure NetChain(num_servers) under the given workload knobs."""
    if retry_timeout is None:
        retry_timeout = adaptive_retry_timeout(concurrency, scale)
    result = measure(
        DeploymentSpec(backend="netchain", scale=scale, store_size=store_size,
                       value_size=value_size, loss_rate=loss_rate,
                       retry_timeout=retry_timeout, seed=seed),
        num_clients=num_servers, concurrency=concurrency,
        write_ratio=write_ratio, warmup=warmup, duration=duration)
    return ThroughputResult(system=f"NetChain({num_servers})",
                            qps=result.scaled_qps,
                            value_size=value_size, store_size=store_size,
                            write_ratio=write_ratio, loss_rate=loss_rate,
                            num_load_generators=num_servers)


def zookeeper_throughput(num_clients: int = 100,
                         value_size: int = 64,
                         store_size: int = 2000,
                         write_ratio: float = 0.01,
                         loss_rate: float = 0.0,
                         scale: float = 1000.0,
                         duration: float = 3.0,
                         warmup: float = 1.0,
                         seed: int = 0) -> ThroughputResult:
    """Measure the ZooKeeper ensemble under the given workload knobs."""
    result = measure(
        DeploymentSpec(backend="zookeeper", scale=scale, store_size=store_size,
                       value_size=value_size, loss_rate=loss_rate, seed=seed),
        num_clients=num_clients, concurrency=1,
        write_ratio=write_ratio, warmup=warmup, duration=duration)
    return ThroughputResult(system="ZooKeeper",
                            qps=result.scaled_qps,
                            value_size=value_size, store_size=store_size,
                            write_ratio=write_ratio, loss_rate=loss_rate,
                            num_load_generators=num_clients)


def zookeeper_loss_degradation(loss_rates,
                               num_clients: int = 20,
                               store_size: int = 300,
                               write_ratio: float = 0.01,
                               duration: float = 2.0,
                               warmup: float = 0.5,
                               seed: int = 0) -> dict:
    """Fractional throughput ZooKeeper retains at each packet-loss rate.

    The scale model cannot express both the ensemble's (scaled) capacity
    ceiling and the (unscaled) TCP retransmission stalls in one run: at the
    scaled capacity the ensemble is always the bottleneck and loss-induced
    stalls are invisible.  The loss experiment therefore measures the
    *degradation factor* on a latency-bound deployment (capacity ceilings
    disabled, so each client connection's goodput is governed purely by its
    TCP dynamics) and applies it to the capacity-bound baseline -- the same
    composition the paper's numbers reflect: a fleet of client connections
    whose individual goodput collapses under retransmission timeouts.

    Returns ``{loss_rate: retained_fraction}`` with the 0-loss fraction 1.0.
    """
    rates = {}
    for loss_rate in loss_rates:
        rates[loss_rate] = measure(
            DeploymentSpec(backend="zookeeper", store_size=store_size,
                           loss_rate=loss_rate, seed=seed,
                           unlimited_capacity=True),
            num_clients=num_clients, concurrency=1, write_ratio=write_ratio,
            warmup=warmup, duration=duration).success_qps
    baseline = rates.get(0.0) or max(rates.values())
    if baseline <= 0:
        return {loss: 0.0 for loss in rates}
    return {loss: qps / baseline for loss, qps in rates.items()}
