"""Names, units and bounds of everything hostbench reports.

``BENCHMARK.json`` at the repository root lists the subset the driver
gates on; ``test_hostbench_smoke.py`` checks the two agree.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple


#: name -> the one-line reason the workload exists (BENCHMARK.json repeats it).
WORKLOADS: Dict[str, str] = {
    "chain_read": "tail-only reads: the agent is the largest layer after the engine, "
                  "the switch program is nearly idle",
    "chain_write": "every op walks the whole chain: link, switch and switch program dominate",
    "verified_failover": "switch failure under spilled history: checker, controller and "
                         "detector do the work",
    "telemetry_on": "mixed ops with trace/v1 spans and metrics written: "
                    "tracing is the largest share",
    "server_chain": "server-hosted chain over TCP: same engine, link and host, "
                    "no switch program or agent",
    "matrix_grid": "32 short checked cells of all five backends over a 2-worker pool: "
                   "per-cell set-up, fork, JSON, merge",
}


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the baseline median a later run may lose before ``compare``
    #: calls it worse.  0 means simulated: same seed, same commit behaviour,
    #: identical to the last digit.
    bound: float


#: End-to-end metrics, reported per workload (``None`` where a workload has
#: no such quantity: no reads, no writes, no injected fault).
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.10),
    Metric("wall_s", "s", "lower", 0.10),
    Metric("ops_per_host_s", "1/s", "higher", 0.10),
    Metric("peak_rss_mib", "MiB", "lower", 0.10),
    Metric("artifact_mib", "MiB", "lower", 0.0),
    Metric("failed_ops_share", "ratio", "lower", 0.0),
    # The same count as a share that is never 0, for BENCHMARK.json.
    Metric("ok_ops_share", "ratio", "higher", 0.0),
    Metric("sim_qps", "1/sim-s", "higher", 0.0),
    Metric("sim_p50_us", "sim-us", "lower", 0.0),
    Metric("sim_p99_us", "sim-us", "lower", 0.0),
    Metric("sim_read_p50_us", "sim-us", "lower", 0.0),
    Metric("sim_read_p99_us", "sim-us", "lower", 0.0),
    Metric("sim_write_p50_us", "sim-us", "lower", 0.0),
    Metric("sim_write_p99_us", "sim-us", "lower", 0.0),
    Metric("sim_outage_ms", "sim-ms", "lower", 0.0),
]

#: Layers whose ``calls`` / ``self_s`` / ``self_share`` the traced pass reports.
LAYERS: List[str] = [
    "netsim.engine", "netsim.link", "netsim.host", "netsim.switch", "netsim.tcp",
    "netsim.faults", "netsim.telemetry", "core.switch_program", "core.agent",
    "core.controller", "core.history", "core.history_store", "core.trace",
    "workloads.clients", "workloads.generators", "baselines.chain_server",
    "deploy.scenario", "deploy.matrix",
]

#: Public counters read after an untraced pass: name -> (unit, better).
COUNTERS: Dict[str, tuple] = {
    "netsim.engine.events": ("count", "lower"),
    "netsim.engine.events_per_op": ("count", "lower"),
    "netsim.link.delivered": ("count", "lower"),
    "netsim.link.dropped": ("count", "lower"),
    "netsim.host.tx_dropped": ("count", "lower"),
    "netsim.switch.pipeline_passes": ("count", "lower"),
    "netsim.switch.dropped_capacity": ("count", "lower"),
    "core.switch_program.reads": ("count", "lower"),
    "core.switch_program.writes_applied": ("count", "lower"),
    "core.agent.retransmissions": ("count", "lower"),
    "core.agent.timeouts": ("count", "lower"),
    "core.history.check_s": ("s", "lower"),
    "core.history.checked_ops_per_s": ("1/s", "higher"),
    "core.history_store.bytes": ("B", "lower"),
    "core.trace.spans": ("count", "lower"),
    "core.trace.bytes_per_op": ("B", "lower"),
    "deploy.matrix.cells_per_s": ("1/s", "higher"),
    "deploy.matrix.speedup": ("ratio", "higher"),
    "deploy.matrix.worker_busy_share": ("ratio", "higher"),
}

TRACE_OVERHEAD = "hostbench.trace_overhead_ratio"

#: Isolated drivers (``isolated.DRIVERS`` has the same keys), all in ns per call.
ISOLATED: List[str] = [
    "netsim.engine.iso_ns", "netsim.link.iso_ns", "netsim.host.iso_send_ns",
    "netsim.host.iso_receive_ns", "netsim.switch.iso_ns",
    "core.switch_program.iso_read_ns", "core.switch_program.iso_write_ns",
    "core.switch_program.iso_cas_ns", "core.agent.iso_ns",
    "workloads.generators.iso_ns", "core.history.iso_ns",
    "core.history.iso_check_ns", "core.history_store.iso_ns",
    "core.trace.iso_ns", "netsim.stats.iso_ns",
]


def per_layer() -> List[Metric]:
    """Every per-layer metric, in the order ``--trace 1`` prints them."""
    out = []
    for layer in LAYERS:
        out += [Metric(f"{layer}.calls", "count", "lower", 0.0),
                Metric(f"{layer}.self_s", "s", "lower", 0.0),
                Metric(f"{layer}.self_share", "ratio", "lower", 0.0)]
    out += [Metric(name, unit, better, 0.0)
            for name, (unit, better) in COUNTERS.items()]
    out.append(Metric(TRACE_OVERHEAD, "ratio", "lower", 0.0))
    out += [Metric(name, "ns", "lower", 0.0) for name in ISOLATED]
    return out
