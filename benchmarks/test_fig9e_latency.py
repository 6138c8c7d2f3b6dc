"""Figure 9(e): latency vs throughput.

Paper result: NetChain serves both reads and writes at 9.7 us (the client's
DPDK stack dominates; switch processing is deterministic and
sub-microsecond), independent of load until the chain saturates.  ZooKeeper
reads take ~170 us and writes ~2350 us at low load, rising as the ensemble
approaches saturation (230 KQPS reads / 27 KQPS writes).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from bench_utils import NETCHAIN, ZOOKEEPER, record_result
from repro.experiments import latency_curve

#: (num_clients, concurrency) loads: four DPDK client servers at growing
#: concurrency, and growing numbers of ZooKeeper client processes.
NETCHAIN_LOADS = [(4, concurrency) for concurrency in (1, 4, 16)]
ZK_LOADS = [(clients, 1) for clients in (1, 10, 25)]


def run_curves():
    return {
        "NetChain": latency_curve(replace(NETCHAIN, store_size=200, unlimited_capacity=True),
                                  NETCHAIN_LOADS, duration=0.05, warmup=0.01),
        "ZooKeeper": latency_curve(replace(ZOOKEEPER, store_size=200, unlimited_capacity=True),
                                   ZK_LOADS, duration=0.4, warmup=0.1),
    }


def test_fig9e_latency_vs_throughput(benchmark):
    curves = benchmark.pedantic(run_curves, rounds=1, iterations=1)
    lines = [f"{'system':>10} {'op':>6} | {'throughput (QPS)':>17} | {'mean latency (us)':>18}"]
    for system, curve in curves.items():
        for op, points in curve.items():
            for qps, latency in points:
                lines.append(f"{system:>10} {op:>6} | {qps:>17.0f} | {latency * 1e6:>18.1f}")
    record_result("fig9e_latency", "Figure 9(e): latency vs throughput", lines)

    def latencies_us(system, op):
        return [latency * 1e6 for _, latency in curves[system][op]]

    netchain_reads = latencies_us("NetChain", "read")
    netchain_writes = latencies_us("NetChain", "write")
    zk_reads = latencies_us("ZooKeeper", "read")
    zk_writes = latencies_us("ZooKeeper", "write")

    # NetChain: ~10 us for reads and writes alike, flat in offered load.
    for latency_us in netchain_reads + netchain_writes:
        assert latency_us == pytest.approx(9.7, abs=8.0)
    spread = max(netchain_reads) - min(netchain_reads)
    assert spread < 5.0
    # Reads and writes cost the same in the evaluated chain.
    assert abs(netchain_reads[0] - netchain_writes[0]) < 5.0

    # ZooKeeper: ~170 us reads, ~2350 us writes at low load; writes are far
    # slower than reads.
    assert zk_reads[0] == pytest.approx(170.0, rel=0.5)
    assert zk_writes[0] == pytest.approx(2350.0, rel=0.5)
    assert zk_writes[0] > 5 * zk_reads[0]
    assert zk_reads[-1] >= 0.8 * zk_reads[0]

    # Orders of magnitude: NetChain latency is ~20x below ZooKeeper reads and
    # ~200x below ZooKeeper writes.
    assert zk_reads[0] > 10 * netchain_reads[0]
    assert zk_writes[0] > 100 * netchain_writes[0]
