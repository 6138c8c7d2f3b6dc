"""Figure 10: failure handling (fast failover + failure recovery).

Paper result (S1 fails in the chain [S0, S1, S2], 50% writes):

* the throughput dip at the failure lasts only as long as the injected
  1-second detection delay -- fast failover then restores full throughput
  with the 2-switch chain;
* during failure recovery (synchronizing S3 and splicing it in) write
  queries to the group being recovered cannot be served: with a single
  virtual group the drop is large and lasts the whole synchronization, with
  100 virtual groups only ~0.5% of queries are affected.

The timeline here is compressed (smaller store, faster sync) but preserves
the phases and their relative effects.
"""

from __future__ import annotations

from bench_utils import record_result
from repro.experiments import failure_experiment

FEW_GROUPS = 1
MANY_GROUPS = 25
SCALE = 50000.0
# Each timeline runs four seconds past the end of its recovery (13.4 s with
# one group per switch; 17.9 s with 25).
FEW_DURATION = 17.45
MANY_DURATION = 21.95


def run_both():
    few = failure_experiment(virtual_groups=FEW_GROUPS, write_ratio=0.5, store_size=600,
                             scale=SCALE, fail_at=4.0, detection_delay=1.0,
                             recovery_start_delay=4.0, duration=FEW_DURATION,
                             sync_items_per_sec=100.0, bin_width=1.0)
    many = failure_experiment(virtual_groups=MANY_GROUPS, write_ratio=0.5, store_size=600,
                              scale=SCALE, fail_at=4.0, detection_delay=1.0,
                              recovery_start_delay=4.0, duration=MANY_DURATION,
                              sync_items_per_sec=100.0, bin_width=1.0)
    return few, many


def test_fig10_failover_and_recovery(benchmark):
    few, many = benchmark.pedantic(run_both, rounds=1, iterations=1)
    lines = []
    for label, timeline in ((f"{FEW_GROUPS} virtual group/switch", few),
                            (f"{MANY_GROUPS} virtual groups/switch", many)):
        lines.append(f"-- {label} (fail at t={timeline.fail_time:.0f}s, recovery "
                     f"t={timeline.recovery_start_time:.0f}..{timeline.recovery_end_time:.1f}s, "
                     f"{timeline.groups_recovered} groups) --")
        lines.append(f"{'phase':<28} {'throughput (MQPS, scaled)':>26}")
        lines.append(f"{'baseline':<28} {timeline.scaled(timeline.baseline_qps) / 1e6:>26.2f}")
        lines.append(f"{'failover window (1s)':<28} "
                     f"{timeline.scaled(timeline.failover_window_qps) / 1e6:>26.2f}")
        lines.append(f"{'during failure recovery':<28} "
                     f"{timeline.scaled(timeline.recovery_window_qps) / 1e6:>26.2f}")
        lines.append(f"{'after recovery':<28} "
                     f"{timeline.scaled(timeline.post_recovery_qps) / 1e6:>26.2f}")
        lines.append(f"{'recovery throughput drop':<28} "
                     f"{timeline.recovery_drop_fraction() * 100:>25.1f}%")
        lines.append("time series (s, qps in simulated units): "
                     + ", ".join(f"{t:.0f}:{rate:.0f}" for t, rate in timeline.series))
        lines.append("")
    record_result("fig10_failure_handling", "Figure 10: failure handling", lines)

    for timeline in (few, many):
        # The failover window loses most throughput (the injected detection
        # delay makes the dip visible, as in the paper).
        assert timeline.failover_window_qps < 0.5 * timeline.baseline_qps
        # Fast failover restores full service before recovery starts, and the
        # cluster is back to baseline after recovery.
        assert timeline.post_recovery_qps > 0.85 * timeline.baseline_qps
    # Recovery with a single virtual group costs a large fraction of
    # throughput; with many virtual groups the drop is small (Figure 10(b)).
    assert few.recovery_drop_fraction() > 0.25
    assert many.recovery_drop_fraction() < 0.5 * few.recovery_drop_fraction()
    assert many.recovery_drop_fraction() < 0.15
