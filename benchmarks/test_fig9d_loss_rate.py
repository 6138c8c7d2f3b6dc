"""Figure 9(d): throughput vs packet loss rate.

Paper result: NetChain(4) keeps ~82 MQPS for loss rates between 0.001% and
1% and still delivers 48 MQPS at 10% loss (UDP queries are simply retried
by clients), while ZooKeeper falls to 50 KQPS at 1% loss and 3 KQPS at 10%
loss because its TCP connections spend their time in retransmission
timeouts.
"""

from __future__ import annotations

from dataclasses import replace

from bench_utils import NETCHAIN, NETCHAIN_LOAD, ZOOKEEPER, ZOOKEEPER_LOAD, record_result
from repro.experiments import adaptive_retry_timeout, measure, zookeeper_loss_degradation

LOSS_RATES = [0.0, 0.0001, 0.01, 0.1]
#: 64 outstanding queries per client keep the chain busy while lost
#: queries wait out their retry timer.
NETCHAIN_LOSSY = replace(NETCHAIN, retry_timeout=adaptive_retry_timeout(64, NETCHAIN.scale))
NETCHAIN_LOSSY_LOAD = {**NETCHAIN_LOAD, "concurrency": 64, "warmup": 0.1, "duration": 0.4}


def run_sweep():
    # ZooKeeper's number at each loss rate composes its loss-free
    # (capacity-bound) throughput with the per-connection degradation factor
    # caused by TCP retransmission stalls -- see
    # repro.experiments.throughput.zookeeper_loss_degradation for why the
    # two regimes are measured separately under the scale model.
    zk_baseline = measure(ZOOKEEPER, **ZOOKEEPER_LOAD)
    zk_factors = zookeeper_loss_degradation(LOSS_RATES, num_clients=10,
                                            duration=0.6, warmup=0.2)
    rows = []
    for loss_rate in LOSS_RATES:
        netchain = measure(replace(NETCHAIN_LOSSY, loss_rate=loss_rate),
                           **NETCHAIN_LOSSY_LOAD)
        rows.append({"loss_rate": loss_rate, "netchain_4": netchain.scaled_qps / 1e6,
                     "zookeeper": zk_baseline.scaled_qps / 1e3 * zk_factors[loss_rate]})
    return rows


def test_fig9d_throughput_vs_loss_rate(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    lines = [f"{'loss rate':>10} | {'NetChain(4) MQPS':>16} | {'ZooKeeper KQPS':>14}"]
    for row in rows:
        lines.append(f"{row['loss_rate']:>10.4%} | {row['netchain_4']:>16.1f} | "
                     f"{row['zookeeper']:>14.1f}")
    record_result("fig9d_loss_rate", "Figure 9(d): throughput vs packet loss rate", lines)

    by_loss = {row["loss_rate"]: row for row in rows}
    clean = by_loss[0.0]
    heavy = by_loss[0.1]
    # NetChain degrades gracefully: at 10% per-switch loss it retains a large
    # fraction of its loss-free throughput (paper: 48 of 82 MQPS).
    assert heavy["netchain_4"] > 0.4 * clean["netchain_4"]
    # Small loss rates barely affect NetChain.
    assert by_loss[0.0001]["netchain_4"] > 0.85 * clean["netchain_4"]
    # ZooKeeper collapses by an order of magnitude or more at 10% loss.
    assert heavy["zookeeper"] < 0.25 * clean["zookeeper"]
    # The gap between the systems widens under loss.
    assert heavy["netchain_4"] * 1e3 > 200 * heavy["zookeeper"]
