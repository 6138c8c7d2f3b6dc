"""Figure 9(b): throughput vs store size.

Paper result: neither system's throughput depends on the number of stored
items (NetChain(4) flat at 82 MQPS up to 100K items; ZooKeeper flat around
140 KQPS); the store size is limited only by the allocated switch SRAM.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from bench_utils import NETCHAIN, NETCHAIN_LOAD, ZOOKEEPER, ZOOKEEPER_LOAD, record_result
from repro.experiments import measure

STORE_SIZES = [1000, 5000, 20000]


def run_sweep():
    rows = []
    for store_size in STORE_SIZES:
        netchain = measure(replace(NETCHAIN, store_size=store_size), **NETCHAIN_LOAD)
        zookeeper = measure(replace(ZOOKEEPER, store_size=min(store_size, 5000)),
                            **ZOOKEEPER_LOAD)
        rows.append({"store_size": store_size, "netchain_4": netchain.scaled_qps / 1e6,
                     "zookeeper": zookeeper.scaled_qps / 1e3})
    return rows


def test_fig9b_throughput_vs_store_size(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    lines = [f"{'store size':>10} | {'NetChain(4) MQPS':>16} | {'ZooKeeper KQPS':>14}"]
    for row in rows:
        lines.append(f"{row['store_size']:>10} | {row['netchain_4']:>16.1f} | "
                     f"{row['zookeeper']:>14.1f}")
    record_result("fig9b_store_size", "Figure 9(b): throughput vs store size", lines)

    netchain = [row["netchain_4"] for row in rows]
    zookeeper = [row["zookeeper"] for row in rows]
    # Flat in store size for both systems.
    assert max(netchain) < 1.2 * min(netchain)
    assert max(zookeeper) < 1.5 * min(zookeeper)
    # Absolute levels as in the paper.
    assert netchain[-1] == pytest.approx(82.0, rel=0.25)
    assert netchain[-1] * 1e3 > 50 * zookeeper[-1]
