"""Table 1: comparison of packet-processing capabilities (server vs switch).

Regenerates the rows of Table 1 from the device models used throughout the
reproduction, and checks the orders-of-magnitude gaps the paper's argument
rests on.
"""

from __future__ import annotations

from bench_utils import record_result
from repro.perfmodel import NETBRICKS_SERVER, TOFINO, table1_rows


def test_table1_packet_processing_capabilities(benchmark):
    rows = benchmark.pedantic(table1_rows, rounds=1, iterations=1)
    lines = [f"{'Device':<20} {'Packets per sec.':<18} {'Bandwidth':<12} {'Delay':<10}"]
    for name, pps, bandwidth, delay in rows:
        lines.append(f"{name:<20} {pps:<18} {bandwidth:<12} {delay:<10}")
    record_result("table1_devices", "Table 1: packet processing capabilities", lines)
    assert len(rows) == 2
    # Paper: switches process a few billion pps vs tens of millions on servers,
    # with sub-microsecond vs tens-of-microseconds delay.
    assert TOFINO.packets_per_sec / NETBRICKS_SERVER.packets_per_sec >= 100
    assert TOFINO.processing_delay < 1e-6 <= NETBRICKS_SERVER.processing_delay
