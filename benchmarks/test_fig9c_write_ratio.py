"""Figure 9(c): throughput vs write ratio.

Paper result: NetChain(4) stays at 82 MQPS for any write ratio (in the
3-switch chain every switch processes the same number of packets for reads
and writes), while ZooKeeper collapses from 230 KQPS (read-only) to 140 KQPS
at 1% writes and 27 KQPS at 100% writes, because every write crosses the
ZAB leader and its log.
"""

from __future__ import annotations

import pytest

from bench_utils import NETCHAIN, NETCHAIN_LOAD, ZOOKEEPER, ZOOKEEPER_LOAD, record_result
from repro.experiments import measure

WRITE_RATIOS = [0.0, 0.01, 0.5, 1.0]


def run_sweep():
    rows = []
    for write_ratio in WRITE_RATIOS:
        netchain = measure(NETCHAIN, **{**NETCHAIN_LOAD, "write_ratio": write_ratio})
        zookeeper = measure(ZOOKEEPER, **{**ZOOKEEPER_LOAD, "write_ratio": write_ratio})
        rows.append({"write_ratio": write_ratio, "netchain_4": netchain.scaled_qps / 1e6,
                     "zookeeper": zookeeper.scaled_qps / 1e3})
    return rows


def test_fig9c_throughput_vs_write_ratio(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    lines = [f"{'write ratio':>11} | {'NetChain(4) MQPS':>16} | {'ZooKeeper KQPS':>14}"]
    for row in rows:
        lines.append(f"{row['write_ratio']:>11.2f} | {row['netchain_4']:>16.1f} | "
                     f"{row['zookeeper']:>14.1f}")
    record_result("fig9c_write_ratio", "Figure 9(c): throughput vs write ratio", lines)

    by_ratio = {row["write_ratio"]: row for row in rows}
    netchain = [row["netchain_4"] for row in rows]
    # NetChain is insensitive to the write ratio.
    assert max(netchain) < 1.2 * min(netchain)
    assert netchain[0] == pytest.approx(82.0, rel=0.25)
    # ZooKeeper degrades sharply as the write ratio grows.
    assert by_ratio[1.0]["zookeeper"] < 0.3 * by_ratio[0.0]["zookeeper"]
    # Read-only ZooKeeper lands near the paper's 230 KQPS.
    assert by_ratio[0.0]["zookeeper"] == pytest.approx(230.0, rel=0.5)
    # Write-only ZooKeeper lands in the tens of KQPS.
    assert by_ratio[1.0]["zookeeper"] < 60.0
