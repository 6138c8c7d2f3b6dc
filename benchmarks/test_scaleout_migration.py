"""Migration cost of online scale-out/scale-in.

The elasticity subsystem's operational price is state movement and the
per-virtual-group write freeze.  This benchmark measures two membership
changes on fresh testbed clusters under closed-loop load -- a pure grow
(4 -> 8 switches) and a combined join+leave landing on 6 members -- and
records the cost of each: keys and item-copies moved, migration duration,
effective key-move rate, and the total/max write-freeze windows.

The ``smoke`` marker in the name keeps this in the fast CI benchmark job.
"""

from __future__ import annotations

from bench_utils import record_result
from repro.experiments.elasticity import ElasticityTimeline, elasticity_experiment

STORE_SIZE = 200
SYNC_RATE = 20000.0


def _row(label: str, timeline: ElasticityTimeline) -> str:
    duration = timeline.report.duration()
    keys_per_sec = timeline.keys_moved / duration if duration > 0 else 0.0
    return (f"{label:>12} | {timeline.groups_migrated:>6} | "
            f"{timeline.keys_moved:>10} | {duration * 1e3:>11.1f} | "
            f"{keys_per_sec:>11.0f} | {timeline.total_freeze_time * 1e3:>12.2f} | "
            f"{timeline.max_freeze_window * 1e3:>12.2f} | "
            f"{timeline.during_drop_fraction() * 100:>7.1f}")


def run_elasticity():
    grow = elasticity_experiment(joins=["S4", "S5", "S6", "S7"],
                                 store_size=STORE_SIZE,
                                 sync_items_per_sec=SYNC_RATE,
                                 migrate_at=1.0, duration=1.7)
    shrink = elasticity_experiment(joins=["S4", "S5", "S6", "S7"],
                                   leaves=["S1", "S4"],
                                   store_size=STORE_SIZE,
                                   sync_items_per_sec=SYNC_RATE,
                                   migrate_at=1.0, duration=1.7)
    return grow, shrink


def test_scaleout_migration_cost_smoke(benchmark):
    grow, shrink = benchmark.pedantic(run_elasticity, rounds=1, iterations=1)
    lines = [(f"{'change':>12} | {'groups':>6} | {'keys moved':>10} | "
              f"{'duration ms':>11} | {'keys/s':>11} | {'freeze ms':>12} | "
              f"{'max frz ms':>12} | {'dip %':>7}")]
    lines.append(_row("grow 4->8", grow))
    lines.append(_row("mixed ->6", shrink))
    record_result("scaleout_migration",
                  f"Live migration cost ({STORE_SIZE} keys, "
                  f"sync {SYNC_RATE:.0f} items/s)", lines)

    for timeline in (grow, shrink):
        report = timeline.report
        assert report is not None and report.done
        assert not report.skipped_steps()
        assert timeline.keys_moved > 0
        # The freeze windows stay in the low-millisecond range: growing the
        # cluster never takes a group's writes away for long.
        assert timeline.max_freeze_window < 0.05
        # Availability: the dip while migrating stays small because only
        # one virtual group is frozen at a time.
        assert timeline.during_drop_fraction() < 0.5
    # Scale-out must not lose throughput: post-migration rate is at least
    # the pre-migration rate (more switches, same hosts driving them).
    assert grow.after_qps >= 0.8 * grow.before_qps
