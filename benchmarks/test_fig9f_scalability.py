"""Figure 9(f): scalability on spine-leaf networks (simulation).

Paper result: on non-blocking spine-leaf fabrics of 64-port, 4 BQPS switches
the maximum NetChain throughput grows linearly from 6 to 96 switches,
reaching tens of BQPS; the write curve sits below the read curve because a
write traverses all f+1 chain switches while a read only visits the tail.
"""

from __future__ import annotations

from bench_utils import record_result
from repro.perfmodel import scalability_sweep

SIZES = [(2, 4), (8, 16), (16, 32), (24, 48), (32, 64)]
SAMPLES = 1500


def test_fig9f_scalability(benchmark):
    points = benchmark.pedantic(scalability_sweep,
                                kwargs={"sizes": SIZES, "samples": SAMPLES},
                                rounds=1, iterations=1)
    lines = [f"{'switches':>9} | {'read BQPS':>10} {'write BQPS':>11} | "
             f"{'passes/read':>11} {'passes/write':>12}"]
    for point in points:
        lines.append(f"{point.num_switches:>9} | {point.read_bqps:>10.1f} "
                     f"{point.write_bqps:>11.1f} | {point.avg_read_passes:>11.2f} "
                     f"{point.avg_write_passes:>12.2f}")
    record_result("fig9f_scalability", "Figure 9(f): spine-leaf scalability", lines)

    reads = [p.read_bqps for p in points]
    writes = [p.write_bqps for p in points]
    sizes = [p.num_switches for p in points]
    # Monotonic, roughly linear growth for both series.
    assert all(b > a for a, b in zip(reads, reads[1:], strict=False))
    assert all(b > a for a, b in zip(writes, writes[1:], strict=False))
    growth = reads[-1] / reads[0]
    size_growth = sizes[-1] / sizes[0]
    assert growth > 0.6 * size_growth
    # Reads above writes everywhere; both in the tens of BQPS at ~100 switches
    # (paper: ~80 read / ~40 write BQPS at 96 switches).
    assert all(r > w for r, w in zip(reads, writes, strict=True))
    assert 40 < reads[-1] < 160
    assert 25 < writes[-1] < 100
