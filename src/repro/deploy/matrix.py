"""The parallel scenario-matrix runner.

Every subsystem in this repository is gated on the same sweep: one
workload over the seed x backend x fault-profile grid.  The engine is a
single-threaded discrete-event simulator, so one cell can never go
faster -- but cells are independent *by construction* (everything
stochastic in a cell derives from its spec's seed), which makes the grid
embarrassingly parallel.  This module makes that sweep a first-class,
multi-core object:

* :class:`MatrixSpec` -- the declarative grid: a base
  :class:`~repro.deploy.spec.DeploymentSpec` swept over seeds, backends,
  named fault profiles and named workloads.  :meth:`MatrixSpec.cells`
  enumerates **fully serializable task descriptors**: plain dicts of
  spec/workload/checks fields, no live objects, so any worker process can
  reconstruct and run a cell from its JSON alone.
* :func:`run_cell` -- one cell, JSON in, JSON-safe summary out: replay
  signature (sha256 over the per-operation history), check verdicts,
  throughput, merged latency-recorder state and the worker's peak RSS.
* :func:`run_matrix` -- fans cells across a ``multiprocessing`` pool,
  streams per-cell summaries back as they finish, and merges them into
  one report.  The merge is deterministic (cells sorted by id, latency
  recorders folded with :meth:`~repro.netsim.stats.LatencyRecorder.merge`,
  peak RSS aggregated with ``max`` across workers -- RSS is a per-process
  high-water mark, not an additive quantity), so ``workers=1`` and
  ``workers=N`` produce identical reports modulo the wall-clock fields
  listed in :data:`WALL_CLOCK_FIELDS`.

Usage::

    matrix = default_matrix(seeds=(0, 1, 2))
    report = run_matrix(matrix, workers=4)
    assert not report["totals"]["failed_cells"]

    # CLI (CI runs this with workers from nproc):
    #   python -m repro matrix --workers auto -o report.json
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.deploy.backends import available_backends
from repro.deploy.scenario import (
    ScenarioChecks,
    ScenarioResult,
    WorkloadSpec,
    run_scenario,
)
from repro.deploy.spec import DeploymentSpec, json_safe
from repro.netsim.stats import LatencyRecorder

#: Report fields that legitimately differ between runs (wall clock,
#: worker count, per-process memory).  ``canonical_report`` strips them;
#: everything else must be byte-identical for the same :class:`MatrixSpec`
#: regardless of worker count.
WALL_CLOCK_FIELDS = {
    "wall_clock_s": "seconds of real time",
    "cell_wall_clock_s": "summed per-cell real time",
    "cells_per_sec": "cells / wall_clock_s",
    "speedup": "serial cell time / wall clock",
    "workers": "pool size",
    "peak_rss_bytes": "per-process high-water mark",
}

MATRIX_SCHEMA = "netchain-matrix-report/v1"


@dataclass
class MatrixSpec:
    """A declarative seed x backend x fault-profile x workload grid.

    Attributes:
        base: the spec every cell starts from; each cell replaces
            ``backend``, ``seed``, ``faults`` and merges profile options.
        seeds: the seed axis.
        backends: the backend axis (backend names).
        workloads: named :class:`WorkloadSpec` variants (the workload
            axis).
        fault_profiles: named fault profiles.  Each value is a dict with
            optional keys ``faults`` (a list of ``(at, action, *args)``
            events for ``spec.faults``) and ``options`` (spec options to
            merge in, e.g. a ``detector_config`` field dict).  Profiles
            with no events (``{}``) run on every backend; profiles with
            events run only on ``fault_backends``.
        fault_backends: backends that take the non-empty fault profiles
            and the chain-invariant / lost-key checks (the NetChain
            family -- other backends have no chain controller to sample).
        checks: checks applied to every cell.  ``chain_invariants`` /
            ``no_lost_keys`` are switched off automatically for backends
            outside ``fault_backends``.
    """

    base: DeploymentSpec = field(default_factory=lambda: DeploymentSpec(
        store_size=24, value_size=32))
    seeds: List[int] = field(default_factory=lambda: [0])
    backends: List[str] = field(default_factory=lambda: ["netchain"])
    workloads: Dict[str, WorkloadSpec] = field(
        default_factory=lambda: {"mixed": WorkloadSpec()})
    fault_profiles: Dict[str, Dict[str, Any]] = field(
        default_factory=lambda: {"none": {}})
    fault_backends: List[str] = field(default_factory=lambda: ["netchain"])
    checks: ScenarioChecks = field(default_factory=ScenarioChecks)

    def validate(self) -> "MatrixSpec":
        """Eager validation: every axis value and every derived cell spec."""
        if not self.seeds:
            raise ValueError("MatrixSpec.seeds must not be empty")
        if not self.backends:
            raise ValueError("MatrixSpec.backends must not be empty")
        if not self.workloads:
            raise ValueError("MatrixSpec.workloads must not be empty")
        if not self.fault_profiles:
            raise ValueError("MatrixSpec.fault_profiles must not be empty")
        registered = set(available_backends())
        for name in list(self.backends) + list(self.fault_backends):
            if name not in registered:
                raise ValueError(
                    f"MatrixSpec.backends: {name!r} is not a registered "
                    f"backend (have: {', '.join(sorted(registered))})")
        for name, profile in self.fault_profiles.items():
            if not isinstance(profile, dict):
                raise ValueError(
                    f"MatrixSpec.fault_profiles[{name!r}] must be a dict "
                    f"with optional 'faults'/'options' keys, got "
                    f"{type(profile).__name__}")
            unknown = sorted(set(profile) - {"faults", "options"})
            if unknown:
                raise ValueError(
                    f"MatrixSpec.fault_profiles[{name!r}] has unknown "
                    f"key(s): {', '.join(unknown)}")
        self.cells()  # builds + validates every cell spec eagerly
        return self

    # ------------------------------------------------------------------ #
    # Cell enumeration.
    # ------------------------------------------------------------------ #

    def cells(self) -> List[Dict[str, Any]]:
        """Serializable task descriptors, one per grid cell.

        Deterministic enumeration order (backend, then profile, then
        workload, then seed); every descriptor is JSON-safe -- workers
        reconstruct the spec/workload/checks triple from it alone.
        """
        descriptors: List[Dict[str, Any]] = []
        base_checks = self.checks.to_dict()
        for backend in self.backends:
            cell_checks = dict(base_checks)
            if backend not in self.fault_backends:
                # No chain controller to sample outside the NetChain
                # family; the remaining checks still apply.
                cell_checks["chain_invariants"] = False
                cell_checks["no_lost_keys"] = False
            for profile_name, profile in self.fault_profiles.items():
                faults = profile.get("faults") or []
                if faults and backend not in self.fault_backends:
                    continue
                options = dict(self.base.options)
                options.update(profile.get("options") or {})
                for workload_name, workload in self.workloads.items():
                    for seed in self.seeds:
                        spec = replace(self.base, backend=backend, seed=seed,
                                       faults=[tuple(e) for e in faults],
                                       options=options)
                        descriptors.append({
                            "cell_id": f"{backend}/{profile_name}/"
                                       f"{workload_name}/s{seed}",
                            "backend": backend,
                            "seed": seed,
                            "fault_profile": profile_name,
                            "workload": workload_name,
                            "spec": spec.to_dict(),
                            "workload_spec": workload.to_dict(),
                            "checks": cell_checks,
                        })
        return descriptors

    # ------------------------------------------------------------------ #
    # Serialization.
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict; :meth:`from_dict` round-trips it."""
        return {
            "base": self.base.to_dict(),
            "seeds": list(self.seeds),
            "backends": list(self.backends),
            "workloads": {name: w.to_dict()
                          for name, w in self.workloads.items()},
            "fault_profiles": json_safe(self.fault_profiles,
                                        "MatrixSpec.fault_profiles"),
            "fault_backends": list(self.fault_backends),
            "checks": self.checks.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MatrixSpec":
        """Rebuild a validated matrix; unknown keys raise
        :class:`ValueError` naming them."""
        if not isinstance(data, dict):
            raise ValueError(f"MatrixSpec.from_dict needs a dict, "
                             f"got {type(data).__name__}")
        known = {"base", "seeds", "backends", "workloads", "fault_profiles",
                 "fault_backends", "checks"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown MatrixSpec field(s): "
                             f"{', '.join(unknown)} "
                             f"(known: {', '.join(sorted(known))})")
        kwargs: Dict[str, Any] = {}
        if "base" in data:
            kwargs["base"] = DeploymentSpec.from_dict(data["base"])
        if "workloads" in data:
            kwargs["workloads"] = {
                name: WorkloadSpec.from_dict(w)
                for name, w in data["workloads"].items()}
        if "checks" in data:
            kwargs["checks"] = ScenarioChecks.from_dict(data["checks"])
        for name in ("seeds", "backends", "fault_profiles", "fault_backends"):
            if name in data:
                kwargs[name] = data[name]
        return cls(**kwargs).validate()


def default_matrix(seeds: Sequence[int] = (0, 1, 2),
                   backends: Optional[Sequence[str]] = None,
                   duration: float = 0.6,
                   history_mode: str = "memory") -> MatrixSpec:
    """The CI grid: every backend x ``seeds`` on a mixed workload, plus
    three fault profiles (middle-switch failure, head failure,
    fail-then-recover) on the NetChain backend.

    With the default three seeds and five backends this is a 24-cell
    grid: ``5 backends x 3 seeds`` fault-free plus ``3 profiles x 3
    seeds`` on ``netchain``.
    """
    detector = {"probe_interval": 50e-3, "suspicion_threshold": 2}
    return MatrixSpec(
        base=DeploymentSpec(store_size=24, value_size=32,
                            vnodes_per_switch=2, retry_timeout=200e-6),
        seeds=list(seeds),
        backends=list(backends) if backends is not None
        else list(available_backends()),
        workloads={"mixed": WorkloadSpec(num_clients=2, concurrency=2,
                                         write_ratio=0.4, think_time=1e-3,
                                         duration=duration, drain=0.3)},
        fault_profiles={
            "none": {},
            "fail-s1": {
                "faults": [(0.3, "fail_switch", "S1")],
                "options": {"detector_config": detector},
            },
            "fail-s0": {
                "faults": [(0.35, "fail_switch", "S0")],
                "options": {"detector_config": detector},
            },
            "flap-s1": {
                "faults": [(0.25, "fail_switch", "S1"),
                           (0.45, "recover_switch", "S1")],
                "options": {"detector_config": detector},
            },
        },
        checks=ScenarioChecks(history_mode=history_mode,
                              chain_invariants=True, no_lost_keys=True),
    )


# --------------------------------------------------------------------- #
# Per-cell execution (this is what worker processes run).
# --------------------------------------------------------------------- #

def run_cell(cell: Union[str, bytes, Dict[str, Any]]) -> Dict[str, Any]:
    """Run one cell descriptor and summarize it as a JSON-safe dict.

    Accepts the descriptor as a dict or as its JSON encoding -- the
    executor always hands workers the JSON string, so the "constructible
    from JSON alone" property is exercised on every run, serial included.
    """
    if isinstance(cell, (str, bytes)):
        cell = json.loads(cell)
    spec = DeploymentSpec.from_dict(cell["spec"])
    workload = WorkloadSpec.from_dict(cell["workload_spec"])
    checks = ScenarioChecks.from_dict(cell["checks"])
    started = time.perf_counter()  # detlint: disable=DET001 -- harness wall-clock is the measurement, not sim state
    result = run_scenario(spec, workload, checks)
    wall = time.perf_counter() - started  # detlint: disable=DET001 -- harness wall-clock is the measurement, not sim state
    return summarize_cell(cell, result, wall)


def summarize_cell(cell: Dict[str, Any], result: ScenarioResult,
                   wall_clock_s: float) -> Dict[str, Any]:
    """The per-cell summary shipped back from a worker.

    Everything here is JSON-safe and -- except ``wall_clock_s`` and
    ``peak_rss_bytes`` -- a pure function of the cell descriptor, so the
    summary is identical no matter which process ran the cell.
    """
    lin = result.linearizability
    return {
        "cell_id": cell["cell_id"],
        "backend": result.backend,
        "seed": cell["seed"],
        "fault_profile": cell.get("fault_profile", "none"),
        "workload": cell.get("workload", "default"),
        "ok": result.ok(),
        "failures": list(result.failures),
        "completed_ops": result.completed_ops,
        "failed_ops": result.failed_ops,
        "read_ops": result.read_ops,
        "write_ops": result.write_ops,
        "qps": result.qps,
        "success_qps": result.success_qps,
        "scaled_qps": result.scaled_qps,
        "mean_read_latency": result.mean_read_latency,
        "mean_write_latency": result.mean_write_latency,
        "read_latency_p99": result.read_latency_p99,
        "signature_sha256": signature_digest(result),
        "fault_signature": [list(sig) for sig in result.trace_signature()],
        "invariant_violations": list(result.invariant_violations),
        "lost_keys": list(result.lost_keys),
        "linearizable": bool(lin.ok) if lin is not None else None,
        "verdict_cache_hits": result.verdict_cache_hits,
        "read_latency": result.read_latency.state_dict()
        if result.read_latency is not None else None,
        "write_latency": result.write_latency.state_dict()
        if result.write_latency is not None else None,
        "peak_rss_bytes": result.peak_rss_bytes,
        "wall_clock_s": wall_clock_s,
    }


def signature_digest(result: ScenarioResult) -> str:
    """sha256 over ``repr`` of the list of the per-operation replay tuples.

    The tuples carry every float timestamp verbatim through ``repr``, so
    two cells hash identically exactly when their operation histories are
    byte-identical.  They are hashed as they stream from
    :meth:`~repro.deploy.scenario.ScenarioResult.iter_signature`, 64 at a
    time: each chunk's ``repr`` without its brackets, joined by ``", "``
    inside one pair, is the whole list's ``repr`` byte for byte, and no
    more than one chunk of it is ever resident.
    """
    digest, tuples, separator = hashlib.sha256(b"["), result.iter_signature(), b""
    while chunk := list(islice(tuples, 64)):
        digest.update(separator + repr(chunk)[1:-1].encode("utf-8"))
        separator = b", "
    digest.update(b"]")
    return digest.hexdigest()


# --------------------------------------------------------------------- #
# The executor.
# --------------------------------------------------------------------- #

def run_matrix(matrix: MatrixSpec,
               workers: int = 1,
               on_result: Optional[Callable[[Dict[str, Any], int, int],
                                            None]] = None) -> Dict[str, Any]:
    """Run every cell of ``matrix`` and merge the summaries into one report.

    Args:
        matrix: the grid (validated eagerly).
        workers: worker processes.  ``1`` runs in-process but still
            round-trips every cell through JSON, so the two modes execute
            identical descriptors; ``>1`` fans cells over a
            ``multiprocessing`` pool and streams summaries back in
            completion order.
        on_result: optional progress callback ``(summary, done, total)``,
            invoked as each cell finishes (completion order, which under
            a pool is nondeterministic -- the merged report is not).

    Returns the merged ``netchain-matrix-report/v1`` dict; identical for
    any ``workers`` value modulo :data:`WALL_CLOCK_FIELDS`.
    """
    matrix.validate()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cells = matrix.cells()
    payloads = [json.dumps(cell, sort_keys=True) for cell in cells]
    started = time.perf_counter()  # detlint: disable=DET001 -- harness wall-clock is the measurement, not sim state
    summaries: List[Dict[str, Any]] = []
    if workers == 1 or len(payloads) == 1:
        for payload in payloads:
            summary = run_cell(payload)
            summaries.append(summary)
            if on_result is not None:
                on_result(summary, len(summaries), len(payloads))
    else:
        import multiprocessing  # only a pool needs it
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        with context.Pool(processes=min(workers, len(payloads))) as pool:
            for summary in pool.imap_unordered(run_cell, payloads):
                summaries.append(summary)
                if on_result is not None:
                    on_result(summary, len(summaries), len(payloads))
    wall = time.perf_counter() - started  # detlint: disable=DET001 -- harness wall-clock is the measurement, not sim state
    return merge_summaries(summaries, matrix=matrix, workers=workers,
                           wall_clock_s=wall)


def merge_summaries(summaries: Sequence[Dict[str, Any]],
                    matrix: Optional[MatrixSpec] = None,
                    workers: int = 1,
                    wall_clock_s: float = 0.0) -> Dict[str, Any]:
    """Deterministically merge per-cell summaries into one report.

    Cells are sorted by id (completion order under a pool is arbitrary),
    latency recorders are folded with
    :meth:`~repro.netsim.stats.LatencyRecorder.merge` from their shipped
    state, and ``peak_rss_bytes`` is aggregated with ``max`` across
    workers: each value is a per-process high-water mark, so summing
    them would fabricate memory nobody allocated.
    """
    cells = sorted(summaries, key=lambda c: c["cell_id"])
    read = LatencyRecorder()
    write = LatencyRecorder()
    for summary in cells:
        if summary.get("read_latency") is not None:
            read.merge(LatencyRecorder.from_state(summary["read_latency"]))
        if summary.get("write_latency") is not None:
            write.merge(LatencyRecorder.from_state(summary["write_latency"]))
    lines = [f"{c['cell_id']} {c['signature_sha256']}" for c in cells]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    cell_wall = sum(c["wall_clock_s"] for c in cells)
    totals = {
        "cells": len(cells),
        "ok_cells": sum(1 for c in cells if c["ok"]),
        "failed_cells": [c["cell_id"] for c in cells if not c["ok"]],
        "completed_ops": sum(c["completed_ops"] for c in cells),
        "failed_ops": sum(c["failed_ops"] for c in cells),
        "read_ops": sum(c["read_ops"] for c in cells),
        "write_ops": sum(c["write_ops"] for c in cells),
        "mean_read_latency": read.mean(),
        "read_latency_p99": read.percentile(99.0),
        "mean_write_latency": write.mean(),
        "peak_rss_bytes": max((c["peak_rss_bytes"] for c in cells),
                              default=0),
        "wall_clock_s": wall_clock_s,
        "cell_wall_clock_s": cell_wall,
        "cells_per_sec": len(cells) / wall_clock_s if wall_clock_s else 0.0,
        "speedup": cell_wall / wall_clock_s if wall_clock_s else 0.0,
    }
    report = {
        "schema": MATRIX_SCHEMA,
        "workers": workers,
        "signature_sha256": digest,
        "totals": totals,
        "cells": cells,
    }
    if matrix is not None:
        report["matrix"] = matrix.to_dict()
    return report


def canonical_report(report: Dict[str, Any]) -> Dict[str, Any]:
    """The report minus :data:`WALL_CLOCK_FIELDS` (recursively).

    Two runs of the same :class:`MatrixSpec` must produce equal canonical
    reports whatever their worker counts -- this is the serial == parallel
    determinism contract and what the tests compare.
    """
    def strip(value: Any) -> Any:
        if isinstance(value, dict):
            return {key: strip(item) for key, item in value.items()
                    if key not in WALL_CLOCK_FIELDS}
        if isinstance(value, list):
            return [strip(item) for item in value]
        return value

    return strip(report)


def summarize_report(report: Dict[str, Any]) -> str:
    """A GitHub-flavoured markdown summary of a merged matrix report."""
    totals = report["totals"]
    lines = [
        "## Scenario matrix",
        "",
        f"- **cells**: {totals['cells']} "
        f"({totals['ok_cells']} ok, {len(totals['failed_cells'])} failed)",
        f"- **workers**: {report['workers']}",
        f"- **wall clock**: {totals['wall_clock_s']:.1f}s "
        f"(sum of cells: {totals['cell_wall_clock_s']:.1f}s, "
        f"speedup {totals['speedup']:.2f}x)",
        f"- **operations**: {totals['completed_ops']:,} completed, "
        f"{totals['failed_ops']:,} failed",
        f"- **read latency**: mean {totals['mean_read_latency'] * 1e6:.1f}us, "
        f"p99 {totals['read_latency_p99'] * 1e6:.1f}us",
        f"- **grid signature**: `{report['signature_sha256'][:16]}`",
        "",
        "| cell | ok | ops | p99 read (us) | wall (s) |",
        "|---|---|---:|---:|---:|",
    ]
    for cell in report["cells"]:
        ok = "yes" if cell["ok"] else "**FAILED**"
        lines.append(
            f"| `{cell['cell_id']}` | {ok} | {cell['completed_ops']:,} "
            f"| {cell['read_latency_p99'] * 1e6:.1f} "
            f"| {cell['wall_clock_s']:.2f} |")
    failed = [c for c in report["cells"] if not c["ok"]]
    if failed:
        lines.append("")
        lines.append("### Failures")
        for cell in failed:
            for failure in cell["failures"]:
                lines.append(f"- `{cell['cell_id']}`: {failure}")
    return "\n".join(lines)
