#!/usr/bin/env python3
"""Scale-free scale-out: live elastic growth and fabric-level throughput.

Two parts:

1. **Live scale-out.**  Starts a 4-switch NetChain cluster serving a
   closed-loop read/write workload, then grows it to 8 switches *while the
   traffic flows*: the reconfiguration planner diffs the consistent-hash
   ring against the target membership and the migration coordinator moves
   one virtual group at a time (pre-sync, a millisecond-scale per-group
   write freeze, an atomic chain-table/epoch commit, then garbage
   collection).  The demo prints the plan, the per-group freeze windows,
   the number of keys moved, and throughput before/during/after.

2. **Fabric throughput (Figure 9(f)).**  Uses the spine-leaf scalability
   model to show read and write throughput growing linearly from 6 to 96
   switches, into the billions of queries per second.

Run:  PYTHONPATH=src python examples/scale_out.py
"""

from __future__ import annotations

from repro.experiments import elasticity_experiment
from repro.perfmodel import scalability_sweep


def live_scale_out_demo() -> None:
    print("== Live scale-out: 4 -> 8 switches under load ==")
    timeline = elasticity_experiment(joins=["S4", "S5", "S6", "S7"],
                                     store_size=200, write_ratio=0.5,
                                     migrate_at=1.0, duration=2.1)
    report = timeline.report
    print(f"migration window: {timeline.migration_started:.3f}s -> "
          f"{timeline.migration_finished:.3f}s "
          f"({report.duration() * 1e3:.0f}ms of simulated time)")
    print(f"groups migrated:  {timeline.groups_migrated} "
          f"({len(report.skipped_steps())} skipped)")
    print(f"keys moved:       {timeline.keys_moved} "
          f"({timeline.items_copied} item copies)")
    print(f"write freezes:    total {timeline.total_freeze_time * 1e3:.2f}ms, "
          f"max per group {timeline.max_freeze_window * 1e3:.2f}ms")
    print("per-group freeze windows (committed groups):")
    for step in report.committed_steps():
        print(f"  vgroup {step.vgroup:>3} [{step.kind:<12}] "
              f"chain -> {'-'.join(step.target_chain)}  "
              f"freeze {step.freeze_window * 1e3:5.2f}ms  "
              f"{step.keys_moved} keys in")
    print(f"throughput (scaled): before {timeline.scaled(timeline.before_qps):,.0f} "
          f"qps, during {timeline.scaled(timeline.during_qps):,.0f} qps, "
          f"after {timeline.scaled(timeline.after_qps):,.0f} qps")
    print(f"dip during migration: {timeline.during_drop_fraction():.1%} "
          f"(only one group's writes are ever frozen at a time)")


def scalability_demo() -> None:
    print("\n== Spine-leaf scalability (Figure 9(f)) ==")
    print(f"{'switches':>9} {'read BQPS':>10} {'write BQPS':>11} "
          f"{'passes/read':>12} {'passes/write':>13}")
    for point in scalability_sweep(samples=1500):
        print(f"{point.num_switches:>9} {point.read_bqps:>10.1f} {point.write_bqps:>11.1f} "
              f"{point.avg_read_passes:>12.2f} {point.avg_write_passes:>13.2f}")
    print("\nThroughput grows linearly with the number of switches because the average")
    print("number of switch traversals per query is independent of the fabric size;")
    print("writes sit below reads because they visit all f+1 chain switches.")
    print("Part 1 showed the same property dynamically: growing the membership is")
    print("an online operation whose only client-visible cost is a millisecond-scale")
    print("per-group write freeze.")


def main() -> None:
    live_scale_out_demo()
    scalability_demo()


if __name__ == "__main__":
    main()
