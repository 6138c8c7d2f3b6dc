"""The BENCHMARK.json command: one workload, one JSON result line.

``python3 benchmarks/hostbench/run.py --workload W --seed N --seconds S
--trace 0|1`` from the root of a checkout.

``--trace 0`` measures: untraced passes of ``W``, each in a fresh process,
until they add up to ``S`` seconds (never fewer than three), and prints the
median of every end-to-end metric in BENCHMARK.json.  ``--trace 1`` explains:
one untraced pass, one traced pass and a short isolated pass, and prints
every per-layer metric.  The simulated durations are fixed by the workload,
so ``S`` sets how many passes the medians rest on, not what a pass does.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PASSES = 3


def main(argv=None) -> int:
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from benchmarks.hostbench import protocol
    from benchmarks.hostbench.metrics import per_layer

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")

    try:
        if args.trace:
            passes = protocol.timed_passes([args.workload], args.seed, min_passes=1)
            traced = protocol.run_one_pass(args.workload, args.seed, traced=True)
            report = protocol.workload_report(
                args.workload, passes[args.workload], traced)
            isolated = protocol.run_isolated(args.seed, seconds=args.seconds / 100.0,
                                             repeats=3)
            values = protocol.per_layer_values(report, isolated)
            metrics = {m.name: {"value": values[m.name], "unit": m.unit}
                       for m in per_layer()}
        else:
            passes = protocol.timed_passes([args.workload], args.seed,
                                           min_passes=MIN_PASSES, budget_s=args.seconds)
            report = protocol.workload_report(args.workload, passes[args.workload])
            metrics = {m["name"]: {"value": report["end_to_end"][m["name"]]["median"],
                                   "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    except protocol.BenchError as exc:
        print(f"hostbench: {exc}", file=sys.stderr)
        return 1

    # ``failed`` counts operations that broke the workload's contract; the
    # checks above turn any such operation into a non-zero exit, so a result
    # line always carries 0.  Client-visible timeouts during the injected
    # outage of ``verified_failover`` are a simulated outcome, reported as
    # ``core.agent.timeouts`` and (by ``python -m benchmarks.hostbench run``)
    # as ``failed_ops_share``.
    exact = report["exact"]
    print(json.dumps({"correct": True, "attempted": exact["completed_ops"],
                      "failed": 0, "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
