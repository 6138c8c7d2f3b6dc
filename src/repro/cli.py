"""``python -m repro <verb>`` -- the one command line of this package.

::

    matrix                        run the seed x backend x fault-profile grid
    history check|index|info|generate
                                  re-check, re-index, inspect or synthesize a
                                  history/v1 run dir
    trace run|report|info         record, report on or inspect a trace/v2 run dir
    lint check|explain            detlint, the determinism static analysis

Every handler imports its subsystem when it runs, so ``lint`` needs
nothing beyond the standard library.  One error policy: a ``ValueError``
or ``OSError`` out of a handler -- a missing file, another schema, a
truncated stream, a bad spec -- is one line on stderr and exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.artifacts import write_json

LINT_PATHS = ["src", "benchmarks", "tests"]

#: The shape of ``history generate``'s synthetic run: what CI's
#: ``verify-at-scale`` job has always checked, so fixed rather than flags.
GENERATE_SHAPE = {"keys": 512, "clients": 32, "timeout_rate": 0.01}


def _workers(value: str) -> int:
    return max(1, os.cpu_count() or 1) if value == "auto" else int(value)


def _matrix(args: argparse.Namespace) -> int:
    from repro.deploy.matrix import (
        MatrixSpec,
        canonical_report,
        default_matrix,
        run_matrix,
        summarize_report,
    )

    if args.spec is not None:
        with open(args.spec, "r", encoding="utf-8") as handle:
            matrix = MatrixSpec.from_dict(json.load(handle))
    else:
        matrix = default_matrix(seeds=[int(seed) for seed in args.seeds.split(",")],
                                duration=args.duration)

    def progress(summary, done: int, total: int) -> None:
        status = "ok" if summary["ok"] else "FAILED"
        print(f"[{done}/{total}] {summary['cell_id']}: {status} "
              f"({summary['completed_ops']} ops, "
              f"{summary['wall_clock_s']:.2f}s)", file=sys.stderr)

    report = run_matrix(matrix, workers=args.workers, on_result=progress)
    if args.compare_serial:
        print("rerunning serially for the determinism check...", file=sys.stderr)
        serial = run_matrix(matrix, workers=1, on_result=progress)
        if canonical_report(serial) != canonical_report(report):
            print("FAIL: serial and parallel reports differ beyond "
                  "wall-clock fields", file=sys.stderr)
            return 1
        speedup = serial["totals"]["wall_clock_s"] / report["totals"]["wall_clock_s"]
        print(f"serial == parallel (canonical); speedup {speedup:.2f}x at "
              f"{report['workers']} workers", file=sys.stderr)
    if args.out:
        write_json(args.out, report)
    if args.summary:
        print(summarize_report(report))
    return 0 if not report["totals"]["failed_cells"] else 1


def _history_check(args: argparse.Namespace) -> int:
    from repro.core.history_store import (
        HistoryStore,
        VerdictCache,
        check_linearizable_streaming,
    )
    from repro.netsim.telemetry import peak_rss_bytes

    with HistoryStore(args.run_dir) as store:
        cache = VerdictCache(args.cache) if args.cache else None
        report = check_linearizable_streaming(store, workers=args.workers,
                                              cache=cache)
        if cache is not None:
            cache.save()
        print(report.summary())
        searched = len(report.keys) - report.witnessed - report.cache_hits
        print(f"witness: {report.witnessed}/{len(report.keys)} keys, search: {searched}")
        if report.cache_hits:
            print(f"verdict cache hits: {report.cache_hits}/{len(report.keys)}")
        violations = store.version_violations()
        for violation in violations[:10]:
            print(f"version violation: {violation}")
        exhausted = report.exhausted_keys()
        if exhausted:
            print(f"exhausted keys: {[r.key for r in exhausted]}")
        if args.max_rss_mb is not None:
            rss_mb = peak_rss_bytes() / (1 << 20)
            print(f"peak RSS: {rss_mb:.0f} MiB")
            if rss_mb > args.max_rss_mb:
                raise ValueError(f"peak RSS {rss_mb:.0f} MiB exceeds the "
                                 f"{args.max_rss_mb:.0f} MiB budget")
        return 0 if report.ok and not exhausted and not violations else 1


def _history_index(args: argparse.Namespace) -> int:
    from repro.core.history_store import rebuild_index

    total, truncated_at = rebuild_index(args.run_dir,
                                        allow_truncated=args.allow_truncated)
    note = f" (truncated at byte {truncated_at})" if truncated_at is not None else ""
    print(f"indexed {total} ops{note}")
    return 0


def _history_info(args: argparse.Namespace) -> int:
    from repro.core.history_store import SCHEMA, HistoryStore

    with HistoryStore(args.run_dir) as store:
        print(f"schema: {SCHEMA}")
        print(f"ops: {store.total_ops} ({store.completed_ops} completed)")
        print(f"keys: {len(store.keys())}")
        print(f"data bytes: {store.data_bytes}")
        meta = dict(store.meta)
        if "initial" in meta:
            print(f"initial: {len(meta.pop('initial'))} keys")
        if meta:
            print(f"meta: {json.dumps(meta, sort_keys=True)}")
    return 0


def _history_generate(args: argparse.Namespace) -> int:
    from repro.core.history_gen import initial_values, iter_history
    from repro.core.history_store import HistoryWriter

    with HistoryWriter(args.run_dir,
                       meta={"seed": args.seed, "generator": "history_gen"},
                       initial=initial_values(GENERATE_SHAPE["keys"])) as writer:
        for op in iter_history(args.seed, ops=args.ops, **GENERATE_SHAPE):
            writer.append(op)
    print(f"generated {args.ops} ops (seed {args.seed}) in {writer.ops_path}")
    return 0


def _trace_run(args: argparse.Namespace) -> int:
    from repro.deploy import DeploymentSpec, ScenarioChecks, WorkloadSpec, run_scenario

    duration = 0.1
    spec = DeploymentSpec(
        backend="netchain", store_size=64, value_size=64, seed=args.seed,
        faults=[(duration / 2.0, "fail_switch", "S1")] if args.failover else [],
        telemetry={"run_dir": args.out})
    workload = WorkloadSpec(num_clients=2, concurrency=4, write_ratio=0.3,
                            duration=duration, drain=0.1)
    result = run_scenario(spec, workload, ScenarioChecks(linearizability=True))
    print(f"backend={spec.backend} seed={spec.seed} "
          f"ops={result.completed_ops} failed={result.failed_ops} "
          f"qps={result.success_qps:.0f}")
    print(f"trace run dir: {result.telemetry_dir}")
    print(json.dumps(result.metrics or {}, sort_keys=True, indent=2, default=str))
    return 0


def _trace_report(args: argparse.Namespace) -> int:
    from repro.core.trace import format_report

    print(format_report(args.run_dir))
    return 0


def _trace_info(args: argparse.Namespace) -> int:
    from repro.core.trace import run_info

    print(json.dumps(run_info(args.run_dir), sort_keys=True, indent=2))
    return 0


def _lint_check(args: argparse.Namespace) -> int:
    from repro.analysis.engine import check_paths
    from repro.analysis.report import build_report, format_text

    result = check_paths(args.paths, root=Path(args.root),
                         include_fixtures=args.include_fixtures)
    if args.output:
        write_json(args.output, build_report(result))
    sys.stdout.write(format_text(result))
    return 1 if result.findings else 0


def _lint_explain(args: argparse.Namespace) -> int:
    from repro.analysis.rules import RULES, rule_by_id

    wanted: List[str] = args.rules or [rule.id for rule in RULES]
    unknown = [rule_id for rule_id in wanted if rule_by_id(rule_id) is None]
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(unknown)}")
    blocks: List[str] = []
    for rule in map(rule_by_id, wanted):
        lines = [f"{rule.id}: {rule.title}",
                 "=" * (len(rule.id) + len(rule.title) + 2),
                 "", rule.summary, "", rule.rationale, "",
                 f"Scope: {rule.scope_doc()}"]
        if rule.bad_example:
            lines += ["", "Bad:"] + [f"    {ln}" for ln in rule.bad_example.splitlines()]
        if rule.good_example:
            lines += ["", "Good:"] + [f"    {ln}" for ln in rule.good_example.splitlines()]
        blocks.append("\n".join(lines))
    print("\n\n".join(blocks))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run, re-check and inspect the NetChain reproduction's "
                    "scenarios and the run directories they spill.")
    verbs = parser.add_subparsers(dest="verb", required=True)

    matrix = verbs.add_parser(
        "matrix", help="run the seed x backend x fault-profile scenario "
                       "matrix across a worker pool")
    matrix.add_argument("--workers", type=_workers, default=1,
                        help="worker processes, or 'auto' for one per CPU")
    matrix.add_argument("--seeds", default="0,1,2", help="comma-separated seed axis")
    matrix.add_argument("--duration", type=float, default=0.6,
                        help="measured seconds of simulated load per cell")
    matrix.add_argument("--spec", default=None,
                        help="JSON file holding a MatrixSpec dict "
                             "(overrides the axis flags)")
    matrix.add_argument("-o", "--out", default=None,
                        help="write the merged report JSON here")
    matrix.add_argument("--summary", action="store_true",
                        help="print a markdown summary to stdout")
    matrix.add_argument("--compare-serial", action="store_true",
                        help="rerun with workers=1 and assert the canonical "
                             "reports are identical")
    matrix.set_defaults(handler=_matrix)

    history = verbs.add_parser(
        "history", help="inspect, re-index and re-check spilled history/v1 "
                        "run dirs").add_subparsers(dest="command", required=True)
    check = history.add_parser("check", help="re-check a run's linearizability")
    check.add_argument("run_dir")
    check.add_argument("--workers", type=int, default=0,
                       help="worker processes (0 = in-process)")
    check.add_argument("--cache", default=None,
                       help="path of a persistent verdict cache (JSON)")
    check.add_argument("--max-rss-mb", type=float, default=None,
                       help="fail when this process's peak RSS exceeds the "
                            "budget (a lifetime high-water mark: use a fresh "
                            "process)")
    check.set_defaults(handler=_history_check)
    index = history.add_parser("index", help="rebuild the derived index")
    index.add_argument("run_dir")
    index.add_argument("--allow-truncated", action="store_true",
                       help="index the intact prefix of a truncated file")
    index.set_defaults(handler=_history_index)
    info = history.add_parser("info", help="print run metadata and counts")
    info.add_argument("run_dir")
    info.set_defaults(handler=_history_info)
    generate = history.add_parser(
        "generate", help="spill a seeded synthetic history, linearizable by "
                         "construction, to check at any scale")
    generate.add_argument("run_dir")
    generate.add_argument("--ops", type=int, required=True)
    generate.add_argument("--seed", type=int, default=11)
    generate.set_defaults(handler=_history_generate)

    trace = verbs.add_parser(
        "trace", help="record and report on trace/v2 telemetry "
                      "run dirs").add_subparsers(dest="command", required=True)
    run = trace.add_parser("run", help="run one traced seeded scenario")
    run.add_argument("--seed", type=int, default=11)
    run.add_argument("--failover", action="store_true",
                     help="fail switch S1 mid-run and react")
    run.add_argument("--out", required=True, help="trace/v2 run directory")
    run.set_defaults(handler=_trace_run)
    report = trace.add_parser(
        "report", help="critical-path breakdown + per-stage percentiles")
    report.add_argument("run_dir")
    report.set_defaults(handler=_trace_report)
    info = trace.add_parser("info", help="print run header and record counts")
    info.add_argument("run_dir")
    info.set_defaults(handler=_trace_info)

    lint = verbs.add_parser(
        "lint", help="detlint: determinism & hot-path static "
                     "analysis").add_subparsers(dest="command", required=True)
    check = lint.add_parser("check", help="run every rule and fail on any finding")
    check.add_argument("paths", nargs="*", default=LINT_PATHS, help="files or directories")
    check.add_argument("--root", default=".", help="repository root (paths are relative to it)")
    check.add_argument("-o", "--output", default=None, help="also write the JSON report here")
    check.add_argument("--include-fixtures", action="store_true",
                       help="scan the intentionally-broken tests/fixtures/detlint corpus too")
    check.set_defaults(handler=_lint_check)
    explain = lint.add_parser("explain", help="print rule documentation")
    explain.add_argument("rules", nargs="*", help="rule ids (default: all)")
    explain.set_defaults(handler=_lint_explain)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"repro {args.verb}: {exc}", file=sys.stderr)
        return 1
