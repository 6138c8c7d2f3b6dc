"""Figure 9(a): throughput vs value size.

Paper result: NetChain(4) stays flat at 82 MQPS for values from 0 to 128
bytes (the four client servers are the bottleneck, and the switch chain
could serve up to 2 BQPS); ZooKeeper stays flat around 140 KQPS.  Neither
system's throughput depends on the value size in this range.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from bench_utils import NETCHAIN, NETCHAIN_LOAD, ZOOKEEPER, ZOOKEEPER_LOAD, record_result
from repro.experiments import measure, netchain_max_throughput_qps

VALUE_SIZES = [16, 64, 128]
SERVER_COUNTS = (1, 2, 4)


def run_sweep():
    rows = []
    for value_size in VALUE_SIZES:
        entry = {"value_size": value_size}
        for servers in SERVER_COUNTS:
            result = measure(replace(NETCHAIN, value_size=value_size),
                             **{**NETCHAIN_LOAD, "num_clients": servers})
            entry[f"netchain_{servers}"] = result.scaled_qps / 1e6
        zookeeper = measure(replace(ZOOKEEPER, value_size=value_size), **ZOOKEEPER_LOAD)
        entry["zookeeper"] = zookeeper.scaled_qps / 1e3
        rows.append(entry)
    return rows


def test_fig9a_throughput_vs_value_size(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    max_mqps = netchain_max_throughput_qps() / 1e6
    lines = [f"{'value size (B)':>14} | {'NetChain(1)':>11} {'NetChain(2)':>11} "
             f"{'NetChain(4)':>11} {'NetChain(max)':>13} | {'ZooKeeper':>10}",
             f"{'':>14} | {'MQPS':>11} {'MQPS':>11} {'MQPS':>11} {'MQPS':>13} | {'KQPS':>10}"]
    for row in rows:
        lines.append(f"{row['value_size']:>14} | {row['netchain_1']:>11.1f} "
                     f"{row['netchain_2']:>11.1f} {row['netchain_4']:>11.1f} "
                     f"{max_mqps:>13.0f} | {row['zookeeper']:>10.1f}")
    record_result("fig9a_value_size", "Figure 9(a): throughput vs value size", lines)

    # Shape checks against the paper.
    for row in rows:
        # NetChain(4) ~82 MQPS, bottlenecked by the client servers.
        assert row["netchain_4"] == pytest.approx(82.0, rel=0.25)
        # Scales with the number of client servers.
        assert row["netchain_4"] > 2.5 * row["netchain_1"]
        # Orders of magnitude above ZooKeeper (MQPS vs KQPS).
        assert row["netchain_4"] * 1e3 > 50 * row["zookeeper"]
    # Value size does not change NetChain throughput in the supported range.
    netchain4 = [row["netchain_4"] for row in rows]
    assert max(netchain4) < 1.2 * min(netchain4)
    zk = [row["zookeeper"] for row in rows]
    assert max(zk) < 1.5 * min(zk)
