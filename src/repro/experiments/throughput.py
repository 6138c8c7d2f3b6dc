"""Throughput and latency experiments: Figures 9(a)-(e).

:func:`measure` is the one driver: it runs a
:func:`repro.deploy.run_scenario` of unrecorded closed-loop load on a
:class:`repro.deploy.DeploymentSpec` and returns the
:class:`repro.deploy.ScenarioResult` of the window past the warmup.  Its
``scaled_qps`` is the throughput in the paper's absolute units.  A figure
sweeps one field of a base spec per system; NetChain and ZooKeeper run
through the same call.

The evaluated quantities:

* ``NetChain(1..4)`` -- throughput with 1..4 client servers generating load
  against the chain ``[S0, S1, S2]``.  The bottleneck is the clients' DPDK
  agents (20.5 MQPS each), so the curve saturates at ~82 MQPS with four
  servers regardless of value size, store size or write ratio.
* ``NetChain(max)`` -- the theoretical chain capacity (2 BQPS in the
  testbed mode where each switch processes every query packet twice).
* ``ZooKeeper`` -- the 3-server ensemble driven by closed-loop clients.
* Figure 9(e) -- read and write latency at increasing offered load
  (:func:`latency_curve`).  NetChain stays at the ~9.7 us client-stack
  floor up to saturation because switch processing is deterministic;
  ZooKeeper reads take ~170 us and writes ~2.35 ms.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.deploy import (
    DeploymentSpec,
    ScenarioChecks,
    ScenarioResult,
    WorkloadSpec,
    run_scenario,
)
from repro.perfmodel.devices import TOFINO


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


def latency_curve(spec: DeploymentSpec, loads: Sequence[Tuple[int, int]],
                  **workload) -> Dict[str, List[Tuple[float, float]]]:
    """``(success_qps, mean latency in seconds)`` of read-only and
    write-only runs of ``spec`` at each ``(num_clients, concurrency)``
    load, keyed ``"read"`` / ``"write"``.

    Latency is a per-query quantity and must not be distorted by the
    scaled capacity model, so callers pass a spec with
    ``unlimited_capacity=True``: the latencies are the protocol floor.
    ZooKeeper's creep towards saturation is covered by the throughput
    figures instead.
    """
    curve: Dict[str, List[Tuple[float, float]]] = {"read": [], "write": []}
    for op, write_ratio in (("read", 0.0), ("write", 1.0)):
        for num_clients, concurrency in loads:
            result = measure(spec, num_clients=num_clients, concurrency=concurrency,
                             write_ratio=write_ratio, **workload)
            curve[op].append((result.success_qps, result.mean_write_latency if write_ratio
                              else result.mean_read_latency))
    return curve


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
