"""Latency experiment: Figure 9(e), latency versus throughput.

The paper separates read and write queries and measures their latency at
increasing offered load.  NetChain's latency is flat (9.7 us with DPDK
clients) all the way to its saturation point because switch processing is
deterministic; ZooKeeper's read latency starts around 170 us and its write
latency around 2.35 ms, both rising as the ensemble approaches saturation.

The drivers here sweep the offered load by varying the number of
closed-loop logical clients and report (throughput, mean latency) pairs for
reads and writes separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.deploy import DeploymentSpec
from repro.experiments.throughput import measure


@dataclass
class LatencyPoint:
    """One point of the latency-vs-throughput curve."""

    system: str
    op: str
    qps: float
    mean_latency: float

    @property
    def latency_us(self) -> float:
        return self.mean_latency * 1e6

    @property
    def mqps(self) -> float:
        return self.qps / 1e6


def netchain_latency_curve(concurrency_levels: Sequence[int] = (1, 4, 16),
                           num_servers: int = 4,
                           store_size: int = 1000,
                           value_size: int = 64,
                           duration: float = 0.2,
                           warmup: float = 0.05,
                           seed: int = 0) -> List[LatencyPoint]:
    """NetChain read and write latency at increasing offered load.

    Latency is a per-query quantity and must not be distorted by the scaled
    capacity model, so this experiment runs with the capacity ceilings
    disabled (the paper's observation is precisely that switch processing is
    deterministic, so latency stays at the client-stack floor of ~9.7 us all
    the way to saturation).
    """
    points: List[LatencyPoint] = []
    for write_ratio, op_name in ((0.0, "read"), (1.0, "write")):
        for concurrency in concurrency_levels:
            result = measure(
                DeploymentSpec(backend="netchain", store_size=store_size,
                               value_size=value_size, seed=seed,
                               unlimited_capacity=True),
                num_clients=num_servers, concurrency=concurrency,
                write_ratio=write_ratio, warmup=warmup, duration=duration)
            latency = (result.mean_write_latency if op_name == "write"
                       else result.mean_read_latency)
            points.append(LatencyPoint(system="NetChain", op=op_name,
                                       qps=result.success_qps,
                                       mean_latency=latency))
    return points


def zookeeper_latency_curve(client_counts: Sequence[int] = (1, 10, 50, 100),
                            store_size: int = 500,
                            value_size: int = 64,
                            scale: float = 1000.0,
                            duration: float = 2.0,
                            warmup: float = 0.5,
                            seed: int = 0) -> List[LatencyPoint]:
    """ZooKeeper read and write latency at increasing offered load.

    As with the NetChain curve, latency must not be distorted by the scaled
    capacity model, so the ensemble runs without the capacity ceiling: the
    reported latencies are the protocol floor (kernel stacks, the ZAB quorum
    round and the commit/fsync delay).  The paper additionally observes the
    latencies creeping up as the ensemble saturates; that regime is covered
    by the throughput experiments instead.
    """
    points: List[LatencyPoint] = []
    for write_ratio, op_name in ((0.0, "read"), (1.0, "write")):
        for count in client_counts:
            result = measure(
                DeploymentSpec(backend="zookeeper", scale=scale,
                               store_size=store_size, value_size=value_size,
                               seed=seed, unlimited_capacity=True),
                num_clients=count, concurrency=1,
                write_ratio=write_ratio, warmup=warmup, duration=duration)
            latency = (result.mean_write_latency if op_name == "write"
                       else result.mean_read_latency)
            points.append(LatencyPoint(system="ZooKeeper", op=op_name,
                                       qps=result.success_qps,
                                       mean_latency=latency))
    return points
