"""``python -m benchmarks.hostbench run|compare`` -- the researcher's command.

``run`` measures every workload (five untraced passes each, interleaved),
prints every metric by name with its unit, checks correctness and
determinism, and exits non-zero if a check fails.  ``--traced`` adds one
traced pass per workload (the per-layer host-time ledger), ``--isolated``
the isolated per-layer drivers.  ``compare`` judges one result file
against another.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict

from benchmarks.hostbench import protocol
from benchmarks.hostbench.compare import compare, format_rows
from benchmarks.hostbench.metrics import (
    COUNTERS,
    END_TO_END,
    ISOLATED,
    TRACE_OVERHEAD,
    WORKLOADS,
)

SCHEMA = "hostbench/v1"
PASSES = 5
WORKLOAD_NAMES = list(WORKLOADS)


def _print_workload(name: str, report: Dict[str, Any]) -> None:
    exact = report["exact"]
    events = exact["processed_events"]
    print(f"\n== {name}: {exact['completed_ops']} ops, {exact['failed_ops']} failed, "
          f"{'n/a' if events is None else events} events, digest {exact['digest'][:16]}")
    for metric in END_TO_END:
        entry = report["end_to_end"][metric.name]
        if entry is None:
            print(f"  {metric.name:20s} n/a")
            continue
        samples = ""
        if metric.name.startswith(("sim_read", "sim_write")):
            side = metric.name.split("_")[1]
            samples = f" ({report['samples'][f'sim_{side}_samples']} samples)"
        print(f"  {metric.name:20s} {entry['median']:14.6f} {metric.unit:8s} "
              f"[q1 {entry['q1']:.6f}, q3 {entry['q3']:.6f}, n={entry['n']}]{samples}")
    for counter, (unit, _better) in COUNTERS.items():
        print(f"  {counter:38s} {report['counters'][counter]:16.6f} {unit}")
    if "layers" in report:
        print(f"  {TRACE_OVERHEAD:38s} {report[TRACE_OVERHEAD]:16.6f} ratio "
              f"(traced pass {report['traced_wall_s']:.3f} s)")
        for layer, row in sorted(report["layers"].items(),
                                 key=lambda item: -item[1]["self_s"]):
            print(f"  {layer + '.calls/self_s/self_share':46s} {row['calls']:8d} count "
                  f"{row['self_s']:10.6f} s {row['self_share']:8.4f} ratio")


def _run(args: argparse.Namespace) -> int:
    out_path = Path(args.out)
    passes = protocol.timed_passes(WORKLOAD_NAMES, args.seed, min_passes=PASSES)
    result: Dict[str, Any] = {"schema": SCHEMA, "seed": args.seed, "passes": PASSES,
                              "workloads": {}}
    for name in WORKLOAD_NAMES:
        traced = None
        if args.traced:
            spans_path = out_path.with_name(f"{out_path.stem}.spans-{name}.json")
            traced = protocol.run_one_pass(name, args.seed, traced=True,
                                           spans_path=spans_path)
        report = protocol.workload_report(name, passes[name], traced)
        result["workloads"][name] = report
        _print_workload(name, report)
    if args.isolated:
        result["isolated"] = protocol.run_isolated(args.seed, seconds=1.0, repeats=5)
        print("\n== isolated drivers (median of 5 runs of 1 s)")
        for name in ISOLATED:
            print(f"  {name:38s} {result['isolated'][name]:14.3f} ns")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"\nall checks passed; wrote {out_path}")
    return 0


def _compare(args: argparse.Namespace) -> int:
    base = json.loads(Path(args.base).read_text(encoding="utf-8"))
    new = json.loads(Path(args.new).read_text(encoding="utf-8"))
    for label, doc in (("base", base), ("new", new)):
        if doc.get("schema") != SCHEMA:
            print(f"hostbench: {label} file is not a {SCHEMA} result", file=sys.stderr)
            return 2
    rows = compare(base, new)
    print(format_rows(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.hostbench",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure every workload")
    run.add_argument("--seed", type=int, default=11)
    run.add_argument("--out", required=True, help="result JSON to write")
    run.add_argument("--traced", action="store_true",
                     help="add the traced pass (per-layer host-time ledger)")
    run.add_argument("--isolated", action="store_true",
                     help="add the isolated per-layer drivers")
    run.set_defaults(handler=_run)
    cmp_parser = sub.add_parser("compare", help="judge result B against result A")
    cmp_parser.add_argument("base")
    cmp_parser.add_argument("new")
    cmp_parser.set_defaults(handler=_compare)
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except protocol.BenchError as exc:
        print(f"hostbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
