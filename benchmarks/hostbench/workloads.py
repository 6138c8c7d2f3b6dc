"""The six hostbench workloads: a seed in, one measured pass out.

Each workload is a generated ``DeploymentSpec`` / ``WorkloadSpec`` /
``ScenarioChecks`` triple (or a ``MatrixSpec``); the simulator only ever
sees the specs.  :func:`run_pass` runs one of them once in this process
and returns everything the protocol needs: the timed window, the simulated
statistics, the public per-layer counters, a replay digest and the list of
failed correctness checks.  ``scale`` shortens the simulated duration; the
command-line entry points always pass 1.0, the smoke test passes less.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import time
from contextlib import contextmanager
from heapq import heappop, heappush
from itertools import pairwise
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from benchmarks.hostbench.metrics import WORKLOADS
from repro.deploy import (
    DeploymentSpec,
    ScenarioChecks,
    WorkloadSpec,
    build_deployment,
    default_matrix,
    run_matrix,
    run_scenario,
)
from repro.deploy import scenario as scenario_module
from repro.deploy.matrix import signature_digest
from repro.netsim.stats import LatencyRecorder

MATRIX_WORKERS = 2
_MIB = 1024.0 * 1024.0
_LOAD = {"num_clients": 4, "concurrency": 8}
_NO_HISTORY = {"linearizability": False}


def _scenario(name: str, seed: int, scale: float, work_dir: Path):
    """The spec triple of a single-scenario workload."""
    base: Dict[str, Any] = {"store_size": 64, "value_size": 64, "seed": seed}
    if name == "chain_read":
        return (DeploymentSpec(backend="netchain", **base),
                WorkloadSpec(write_ratio=0.0, duration=1.0 * scale, drain=0.1, **_LOAD),
                ScenarioChecks(**_NO_HISTORY))
    if name == "chain_write":
        return (DeploymentSpec(backend="netchain", **base),
                WorkloadSpec(write_ratio=1.0, duration=0.8 * scale, drain=0.1, **_LOAD),
                ScenarioChecks(**_NO_HISTORY))
    if name == "verified_failover":
        # The fault stays at 0.2 s when the window shrinks: detection takes
        # two 50 ms probe rounds, and the drain has to outlast the recovery.
        detector = {"probe_interval": 50e-3, "suspicion_threshold": 2}
        return (DeploymentSpec(backend="netchain", vnodes_per_switch=2,
                               faults=[(0.2, "fail_switch", "S1")],
                               options={"detector_config": detector}, **base),
                WorkloadSpec(write_ratio=0.3, duration=max(0.5 * scale, 0.25),
                             drain=0.3, **_LOAD),
                ScenarioChecks(history_mode="spill", run_dir=str(work_dir / "history"),
                               verify_workers=0, verdict_cache=None,
                               chain_invariants=True, no_lost_keys=True))
    if name == "telemetry_on":
        return (DeploymentSpec(backend="netchain",
                               telemetry={"run_dir": str(work_dir / "trace")}, **base),
                WorkloadSpec(write_ratio=0.3, duration=0.3 * scale, drain=0.1, **_LOAD),
                ScenarioChecks(**_NO_HISTORY))
    if name == "server_chain":
        return (DeploymentSpec(backend="server-chain", **base),
                WorkloadSpec(write_ratio=0.3, duration=0.4 * scale, drain=0.1, **_LOAD),
                ScenarioChecks(**_NO_HISTORY))
    raise ValueError(f"unknown workload {name!r} (have: {', '.join(WORKLOADS)})")


def spin() -> float:
    """Seconds this machine takes, right now, for a fixed piece of pure-Python
    work shaped like the simulator's (heap pushes and pops, dict stores).

    It runs twice immediately before and twice after every timed window
    (the mean is reported).  The sandbox's speed swings by tens of percent
    for seconds to minutes at a time; a host-time number divided by the spin
    measured next to it swings far less.
    """
    started = time.perf_counter()
    for _ in range(2):
        heap: List[list] = []
        table: Dict[int, tuple] = {}
        for i in range(100000):
            heappush(heap, [(i * 7919) % 10007, i, None])
            table[i & 4095] = (i, i)
            if len(heap) > 512:  # bounded, so the spin does not move peak RSS
                heappop(heap)
    return (time.perf_counter() - started) / 2.0


_CHECKERS = ("check_linearizable", "check_linearizable_streaming")


@contextmanager
def _checker_clock() -> Iterator[List[float]]:
    """Accumulates, in a one-element list, the seconds ``run_scenario``
    spends in the linearizability checker.

    The checker is one call per pass, so the two clock reads cost nothing
    next to the window; the names are restored when the pass ends.
    """
    seconds = [0.0]
    saved = {name: getattr(scenario_module, name) for name in _CHECKERS}

    def timed(inner: Callable) -> Callable:
        def call(*args, **kwargs):
            started = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                seconds[0] += time.perf_counter() - started
        return call

    for name, inner in saved.items():
        setattr(scenario_module, name, timed(inner))
    try:
        yield seconds
    finally:
        for name, inner in saved.items():
            setattr(scenario_module, name, inner)


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in sorted(path.rglob("*")) if f.is_file())


def _dir_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    for f in sorted(path.rglob("*")):
        if f.is_file():
            digest.update(f.name.encode("utf-8"))
            digest.update(f.read_bytes())
    return digest.hexdigest()


def _latency_metrics(read: LatencyRecorder, write: LatencyRecorder) -> Dict[str, Any]:
    """Simulated latency quantiles; a side with no samples reports ``None``."""
    both = LatencyRecorder()
    both.merge(read)
    both.merge(write)
    out: Dict[str, Any] = {"sim_read_samples": read.count(),
                           "sim_write_samples": write.count()}
    for prefix, recorder in (("sim_read", read), ("sim_write", write), ("sim", both)):
        has = recorder.count() > 0
        out[f"{prefix}_p50_us"] = recorder.percentile(50.0) * 1e6 if has else None
        out[f"{prefix}_p99_us"] = recorder.percentile(99.0) * 1e6 if has else None
    return out


def _outage_ms(result, window_end: float) -> Optional[float]:
    """Longest gap between successful completions inside the window."""
    times = sorted(op.returned_at for op in result.history.iter_ops()
                   if op.ok and op.returned_at is not None and op.returned_at <= window_end)
    if len(times) < 2:
        return None
    return max(b - a for a, b in pairwise(times)) * 1e3


def _scenario_counters(result, check_s: float, history_bytes: int,
                       trace_bytes: int) -> Dict[str, float]:
    """Public per-layer counters of a finished scenario (all bit-stable
    except ``check_s`` and the rate derived from it)."""
    deployment = result.deployment
    topology = deployment.topology
    switches = list(topology.switches.values())
    cluster = getattr(deployment, "cluster", None)
    controller = getattr(cluster, "controller", None)
    programs = list(controller.programs.values()) if controller is not None else []
    agents = cluster.agent_list() if controller is not None else []
    events = deployment.sim.processed_events
    ops = result.completed_ops
    history_ops = len(result.history) if result.history is not None else 0
    return {
        "netsim.engine.events": events,
        "netsim.engine.events_per_op": events / ops if ops else 0.0,
        "netsim.link.delivered": sum(link.delivered for link in topology.links),
        "netsim.link.dropped": sum(link.dropped for link in topology.links),
        "netsim.host.tx_dropped": sum(h.tx_dropped for h in topology.hosts.values()),
        "netsim.switch.pipeline_passes": sum(s.pipeline_passes for s in switches),
        "netsim.switch.dropped_capacity": sum(s.dropped_capacity for s in switches),
        "core.switch_program.reads": sum(p.stats.reads for p in programs),
        "core.switch_program.writes_applied": sum(p.stats.writes_applied for p in programs),
        "core.agent.retransmissions": sum(a.retransmissions for a in agents),
        "core.agent.timeouts": sum(a.timeouts for a in agents),
        "core.history.check_s": check_s,
        "core.history.checked_ops_per_s": history_ops / check_s if check_s else 0.0,
        "core.history_store.bytes": history_bytes,
        "core.trace.spans": (result.metrics or {}).get("spans", 0),
        "core.trace.bytes_per_op": trace_bytes / ops if ops else 0.0,
    }


def _peak_rss_mib() -> float:
    """High-water mark of this process and of any worker it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _timed_window(call: Callable[[], Any]):
    """Set-up ends here: spin, collect, the timed call, spin again.

    Returns the call's value and the pass's timing fields.
    """
    ready = time.monotonic()
    spin_before = spin()
    gc.collect()
    started = time.perf_counter()
    value = call()
    wall_s = time.perf_counter() - started
    spin_after = spin()
    return value, {"ready_monotonic": ready, "spin_before_s": spin_before,
                   "spin_s": (spin_before + spin_after) / 2.0, "wall_s": wall_s}


def _run_scenario_pass(name: str, seed: int, scale: float, work_dir: Path,
                       span: Callable) -> Dict[str, Any]:
    spec, workload, checks = _scenario(name, seed, scale, work_dir)
    deployment = build_deployment(spec)
    deployment.clients(workload.num_clients)
    window_end = deployment.sim.now + workload.warmup + workload.duration
    timed_run = span("deploy.scenario", "run_scenario", run_scenario)
    with _checker_clock() as check_seconds:
        result, timing = _timed_window(
            lambda: timed_run(spec, workload, checks, deployment=deployment))

    history_dir, trace_dir = work_dir / "history", work_dir / "trace"
    history_bytes = _dir_bytes(history_dir) if history_dir.exists() else 0
    trace_bytes = _dir_bytes(trace_dir) if trace_dir.exists() else 0
    sim = {"sim_qps": result.success_qps,
           "sim_outage_ms": _outage_ms(result, window_end) if spec.faults else None}
    sim.update(_latency_metrics(result.read_latency, result.write_latency))

    failures: List[str] = list(result.failures)
    if not spec.faults and result.failed_ops:
        failures.append(f"{result.failed_ops} failed ops on a fault-free workload")
    if not result.consistent():
        failures.append("history not linearizable, invariant violated or key lost")

    replay = {"completed_ops": result.completed_ops, "failed_ops": result.failed_ops,
              "processed_events": deployment.sim.processed_events,
              "history": signature_digest(result),
              "read_latency": result.read_latency.state_dict(),
              "write_latency": result.write_latency.state_dict(),
              "trace": _dir_sha256(trace_dir) if trace_dir.exists() else None}
    return {
        **timing,
        "completed_ops": result.completed_ops,
        "failed_ops": result.failed_ops,
        "processed_events": deployment.sim.processed_events,
        "artifact_mib": (history_bytes + trace_bytes) / _MIB,
        "sim": sim,
        "counters": _scenario_counters(result, check_seconds[0],
                                       history_bytes, trace_bytes),
        "digest": hashlib.sha256(
            json.dumps(replay, sort_keys=True).encode("utf-8")).hexdigest(),
        "failures": failures,
    }


def _run_matrix_pass(seed: int, scale: float, span: Callable,
                     workers: int) -> Dict[str, Any]:
    matrix = default_matrix(seeds=(seed, seed + 1, seed + 2, seed + 3),
                            duration=0.6 * scale)
    timed_run = span("deploy.matrix", "run_matrix", run_matrix)
    report, timing = _timed_window(lambda: timed_run(matrix, workers=workers))

    totals, cells = report["totals"], report["cells"]
    read, write = LatencyRecorder(), LatencyRecorder()
    for cell in cells:
        read.merge(LatencyRecorder.from_state(cell["read_latency"]))
        write.merge(LatencyRecorder.from_state(cell["write_latency"]))
    sim = {"sim_qps": sum(c["success_qps"] for c in cells) / len(cells),
           "sim_outage_ms": None}
    sim.update(_latency_metrics(read, write))
    failures = [f"cell {cell_id} failed" for cell_id in totals["failed_cells"]]
    return {
        **timing,
        "completed_ops": totals["completed_ops"],
        "failed_ops": totals["failed_ops"],
        # Cell summaries carry no event count; the replay digest covers it.
        "processed_events": None,
        "artifact_mib": 0.0,
        "sim": sim,
        "counters": {
            "deploy.matrix.cells_per_s": totals["cells_per_sec"],
            "deploy.matrix.speedup": totals["speedup"],
            "deploy.matrix.worker_busy_share":
                totals["cell_wall_clock_s"] / (workers * totals["wall_clock_s"]),
        },
        "digest": report["signature_sha256"],
        "failures": failures,
    }


def _no_span(layer: str, name: str, fn: Callable) -> Callable:
    return fn


def run_pass(name: str, seed: int, work_dir: Path, scale: float = 1.0,
             span: Callable = _no_span, matrix_workers: int = MATRIX_WORKERS
             ) -> Dict[str, Any]:
    """Run workload ``name`` once and return its measurements.

    ``span(layer, name, fn)`` wraps the timed call; the traced pass hands in
    the ledger's wrapper so the window is the root span, and runs the
    matrix serially so every cell's spans land in this process.
    """
    if name == "matrix_grid":
        out = _run_matrix_pass(seed, scale, span, matrix_workers)
    else:
        out = _run_scenario_pass(name, seed, scale, work_dir, span)
    out["peak_rss_mib"] = _peak_rss_mib()
    return out
