"""Figure 11: application performance — distributed transactions with 2PL.

Paper result: with NetChain as the lock server the system sustains orders of
magnitude more transactions per second than with ZooKeeper; with one client
the curve is flat across contention (no conflicts), with many clients the
throughput is higher at low contention and falls as the contention index
approaches 1 (all clients fight over a single hot lock), dropping to around
or below the single-client line.
"""

from __future__ import annotations

from bench_utils import record_result
from repro.experiments import measure_transactions

CONTENTION = [0.001, 0.01, 0.1, 1.0]
NETCHAIN_CLIENTS = (1, 10, 50)
ZOOKEEPER_CLIENTS = (1, 5)


def run_sweep():
    # A NetChain transaction takes a few hundred microseconds, a ZooKeeper
    # one tens of milliseconds: each system gets its own window.
    rows = []
    for contention_index in CONTENTION:
        point = dict(contention_index=contention_index, cold_items=500)
        entry = {"contention": contention_index}
        for clients in NETCHAIN_CLIENTS:
            entry[f"netchain_{clients}"] = measure_transactions(
                "netchain", clients, duration=0.012, warmup=0.003, **point).txns_per_sec
        for clients in ZOOKEEPER_CLIENTS:
            entry[f"zookeeper_{clients}"] = measure_transactions(
                "zookeeper", clients, duration=1.2, warmup=0.3, **point).txns_per_sec
        rows.append(entry)
    return rows


def test_fig11_transaction_throughput(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    header = (f"{'contention':>10} | "
              + " ".join(f"{'NC(' + str(c) + ')':>10}" for c in NETCHAIN_CLIENTS)
              + " | "
              + " ".join(f"{'ZK(' + str(c) + ')':>9}" for c in ZOOKEEPER_CLIENTS)
              + "   (txns/sec)")
    lines = [header]
    for row in rows:
        lines.append(f"{row['contention']:>10} | "
                     + " ".join(f"{row[f'netchain_{c}']:>10.0f}" for c in NETCHAIN_CLIENTS)
                     + " | "
                     + " ".join(f"{row[f'zookeeper_{c}']:>9.1f}" for c in ZOOKEEPER_CLIENTS))
    record_result("fig11_transactions", "Figure 11: transaction throughput", lines)

    by_contention = {row["contention"]: row for row in rows}
    low = by_contention[CONTENTION[0]]
    high = by_contention[1.0]

    # Orders of magnitude between NetChain and ZooKeeper at equal client count.
    assert low["netchain_1"] > 50 * low["zookeeper_1"]
    # The single-client NetChain line is roughly flat across contention.
    netchain_1 = [row["netchain_1"] for row in rows]
    assert max(netchain_1) < 2.0 * min(netchain_1)
    # More clients help at low contention...
    assert low["netchain_50"] > 5 * low["netchain_1"]
    # ...but contention erodes the advantage: at contention index 1 the
    # 50-client throughput collapses towards (or below) the low-contention value.
    assert high["netchain_50"] < 0.3 * low["netchain_50"]
    # ZooKeeper transactions are in the tens-to-hundreds per second range.
    assert low["zookeeper_1"] < 1000
