#!/usr/bin/env python3
"""Switch failure, fast failover and failure recovery (Section 5 / Figure 10).

The example runs a 50% write workload against the chain [S0, S1, S2],
fail-stops the middle switch S1, and prints a per-half-second throughput
time series while the controller

1. performs **fast failover** -- it installs destination-IP rewrite rules on
   S1's neighbours so every affected chain keeps operating with two
   switches, and
2. performs **failure recovery** -- it synchronizes state onto the spare
   switch S3 and splices it into the chains, one virtual group at a time.

After recovery the example verifies that no data was lost and that the
chain invariant (Invariant 1 of the paper) holds on every chain.

Run:  python examples/failure_handling.py
"""

from __future__ import annotations

from repro.experiments import failure_experiment


def main() -> None:
    print("== Failure handling on the 4-switch testbed ==")
    timeline = failure_experiment(
        virtual_groups=1,          # one virtual group per switch, as in Figure 10(a)
        write_ratio=0.5,
        store_size=600,
        scale=50000.0,
        fail_at=4.0,
        detection_delay=1.0,       # the paper injects 1 s so the dip is visible
        recovery_start_delay=4.0,
        sync_items_per_sec=100.0,
        bin_width=1.0,
        duration=17.45,            # four seconds past the end of the recovery
    )

    print(f"switch S1 fails at t={timeline.fail_time:.0f}s; failover completes at "
          f"t={timeline.failover_complete_time:.0f}s; recovery runs "
          f"t={timeline.recovery_start_time:.0f}s..{timeline.recovery_end_time:.1f}s "
          f"({timeline.groups_recovered} virtual groups restored onto S3)")
    print()
    print("time   queries/s (one client server, simulated units)")
    for time, rate in timeline.series:
        bar = "#" * int(60 * rate / max(r for _, r in timeline.series))
        print(f"{time:5.1f}s {rate:9.1f}  {bar}")
    print()
    print(f"baseline throughput            : {timeline.scaled(timeline.baseline_qps) / 1e6:7.2f} MQPS")
    print(f"during failover window (1 s)   : {timeline.scaled(timeline.failover_window_qps) / 1e6:7.2f} MQPS")
    print(f"during failure recovery        : {timeline.scaled(timeline.recovery_window_qps) / 1e6:7.2f} MQPS "
          f"({timeline.recovery_drop_fraction() * 100:.0f}% drop: writes to the recovering "
          f"group are paused)")
    print(f"after recovery                 : {timeline.scaled(timeline.post_recovery_qps) / 1e6:7.2f} MQPS")
    print()
    print("Re-running with 100 virtual groups per switch (Figure 10(b)) shrinks the")
    print("recovery-time drop to well under a percent, because only one group's writes")
    print("are paused at any moment -- see benchmarks/test_fig10_failure_handling.py.")


if __name__ == "__main__":
    main()
