"""Failure handling experiments: Figure 10 and arbitrary fault scenarios.

The paper fails the middle switch S1 of the chain ``[S0, S1, S2]`` on the
4-switch testbed, with a 50% write workload, and plots one client server's
throughput over time:

* a one-second dip when the failure is injected (the failure-detection
  delay before the controller's failover routine makes the dip visible),
  after which **fast failover** restores full throughput with the
  two-switch chain ``[S0, S2]``;
* a longer **failure recovery** phase in which S3 is synchronized and
  spliced into the chain; with a single virtual group, write queries cannot
  be served while the group is synchronized, so throughput drops by the
  write fraction (half, at 50% writes); with 100 virtual groups only one
  group is unavailable at a time, so the drop is ~0.5%.

Unlike the original analytic driver, the timeline here is produced end to
end by the fault subsystem: the failure is armed on a
:class:`repro.netsim.faults.FaultSchedule`, the controller reacts through
its :class:`repro.core.detector.FailureDetector` (it is never called
directly), and every phase boundary is *observed* from the controller's
event log and recovery reports rather than computed from the input knobs.

:func:`fault_scenario` generalizes the same setup to arbitrary schedules:
it builds the ``(spec, workload, checks)`` triple that
:func:`repro.deploy.run_scenario` runs -- a paced mixed workload records a
full operation history, the chain invariants are sampled at every fault
boundary, and the history is checked for per-key linearizability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.controller import ControllerConfig
from repro.core.detector import DetectorConfig
from repro.deploy import DeploymentSpec, ScenarioChecks, WorkloadSpec, build_deployment
from repro.netsim.faults import FaultEvent
from repro.netsim.stats import ThroughputTimeSeries
from repro.workloads.clients import LoadClient
from repro.workloads.generators import KeyValueWorkload, WorkloadConfig


@dataclass
class FailureTimeline:
    """Result of one failure-handling run."""

    virtual_groups: int
    scale: float
    #: (time, queries-per-second in simulated units) per bin.
    series: List[Tuple[float, float]] = field(default_factory=list)
    fail_time: float = 0.0
    failover_complete_time: float = 0.0
    recovery_start_time: float = 0.0
    recovery_end_time: float = 0.0
    baseline_qps: float = 0.0
    failover_window_qps: float = 0.0
    recovery_window_qps: float = 0.0
    post_recovery_qps: float = 0.0
    groups_recovered: int = 0
    #: The injector's replayable fault trace for this run.
    fault_trace: List[FaultEvent] = field(default_factory=list)

    def scaled(self, qps: float) -> float:
        """Map a simulated rate back to the paper's absolute units."""
        return qps * self.scale

    def recovery_drop_fraction(self) -> float:
        """Fractional throughput drop during recovery relative to baseline."""
        if self.baseline_qps <= 0:
            return 0.0
        return max(0.0, 1.0 - self.recovery_window_qps / self.baseline_qps)


def failure_experiment(virtual_groups: int = 1,
                       write_ratio: float = 0.5,
                       store_size: int = 1000,
                       scale: float = 20000.0,
                       fail_at: float = 5.0,
                       detection_delay: float = 1.0,
                       recovery_start_delay: float = 5.0,
                       run_after_recovery: float = 5.0,
                       sync_items_per_sec: float = 140.0,
                       bin_width: float = 0.5,
                       concurrency: int = 16,
                       seed: int = 0,
                       max_duration: float = 120.0) -> FailureTimeline:
    """Fail S1 in the chain [S0, S1, S2], recover onto S3, track throughput.

    The failure is injected through a seeded :class:`FaultSchedule` and the
    controller reacts through its failure detector, whose probe interval is
    ``detection_delay`` -- the controller notices the failure at the first
    probe after the injection, within one interval, exactly like the
    deliberately slowed detection of the paper's methodology.  All phase
    boundaries in the returned timeline are observed, not assumed.
    """
    controller_config = ControllerConfig(replication=3,
                                         vnodes_per_switch=virtual_groups,
                                         store_slots=max(1024, store_size + 64),
                                         sync_items_per_sec=sync_items_per_sec,
                                         seed=seed)
    from repro.experiments.throughput import adaptive_retry_timeout
    deployment = build_deployment(DeploymentSpec(
        backend="netchain", scale=scale, store_size=store_size,
        vnodes_per_switch=virtual_groups,
        retry_timeout=adaptive_retry_timeout(concurrency, scale), seed=seed,
        options={"controller_config": controller_config}))
    cluster = deployment.cluster
    timeline = FailureTimeline(virtual_groups=virtual_groups, scale=scale)
    series = ThroughputTimeSeries(bin_width=bin_width)
    workload = KeyValueWorkload(WorkloadConfig(store_size=store_size, value_size=64,
                                               write_ratio=write_ratio, seed=seed))
    client = LoadClient(cluster.agent("H0"), workload, concurrency=concurrency,
                        time_series=series)

    injector = cluster.faults(seed)
    cluster.fault_schedule().at(fail_at, "fail_switch", "S1").arm()
    cluster.start_failure_detector(DetectorConfig(
        probe_interval=detection_delay,
        suspicion_threshold=1,
        auto_recover=True,
        recovery_start_delay=recovery_start_delay,
        new_switch="S3"))

    client.start()
    # Run in slices until the controller reports the recovery finished.
    now = 0.0
    recovery_end: Optional[float] = None
    while now < max_duration:
        now = min(now + 1.0, max_duration)
        cluster.run(until=now)
        reports = cluster.controller.recovery_reports
        if reports and reports[-1].finished_at > 0:
            recovery_end = reports[-1].finished_at
            break
    if recovery_end is None:
        recovery_end = now
    cluster.run(until=recovery_end + run_after_recovery)
    client.stop()
    cluster.run(until=recovery_end + run_after_recovery + 0.05)

    # Observed phase boundaries: injection from the fault trace, failover
    # from the controller's event log, recovery from its report.
    fail_events = [e for e in injector.trace if e.kind == "switch_fail"]
    timeline.fail_time = fail_events[0].time if fail_events else fail_at
    failovers = [t for t, message in cluster.controller.events
                 if message.startswith("fast failover")]
    timeline.failover_complete_time = failovers[0] if failovers else timeline.fail_time
    reports = cluster.controller.recovery_reports
    if reports:
        timeline.recovery_start_time = reports[-1].started_at
        timeline.groups_recovered = reports[-1].groups_recovered
    else:
        # No recovery happened within max_duration: leave the window empty
        # (rate_between over an empty window is 0) instead of letting the
        # 0.0 default span the healthy baseline.
        timeline.recovery_start_time = recovery_end
    timeline.recovery_end_time = recovery_end
    timeline.fault_trace = list(injector.trace)

    timeline.series = series.series()
    fail_time = timeline.fail_time
    timeline.baseline_qps = client.successes.rate_between(fail_time * 0.5, fail_time)
    failover_end = max(timeline.failover_complete_time, fail_time + 1e-9)
    timeline.failover_window_qps = client.successes.rate_between(fail_time, failover_end)
    timeline.recovery_window_qps = client.successes.rate_between(
        timeline.recovery_start_time, recovery_end)
    timeline.post_recovery_qps = client.successes.rate_between(
        recovery_end + 0.5, recovery_end + run_after_recovery)
    return timeline


# --------------------------------------------------------------------- #
# Generic fault scenarios with consistency checking.
# --------------------------------------------------------------------- #

def fault_scenario(seed: int = 0,
                   duration: float = 3.0,
                   num_clients: int = 3,
                   concurrency: int = 2,
                   think_time: float = 1e-3,
                   store_size: int = 24,
                   write_ratio: float = 0.4,
                   virtual_groups: int = 2,
                   sync_items_per_sec: float = 2000.0,
                   detector_config: Optional[DetectorConfig] = None,
                   drain: float = 0.5,
                   value_size: int = 32,
                   history_mode: str = "memory",
                   run_dir=None,
                   faults: Optional[List[Tuple]] = None,
                   ) -> Tuple[DeploymentSpec, WorkloadSpec, ScenarioChecks]:
    """The ``(spec, workload, checks)`` triple of one seeded fault scenario.

    Hand it to :func:`repro.deploy.run_scenario`::

        run_scenario(*fault_scenario(seed=s, duration=2.0,
                                     faults=[(0.4, "fail_switch", "S1")]))

    The scenario arms ``faults`` on the deployment's injector, starts the
    failure detector, drives paced load clients on every host, samples the
    chain invariants at every fault boundary, and checks the recorded
    history for linearizability.  Schedules that need live objects
    (trigger predicates over the cluster) pass
    ``schedule_builder=lambda schedule, cluster: ...`` to ``run_scenario``.

    Everything stochastic -- workload key/op choices, fault models,
    controller replacement choices -- derives from ``seed``, so the whole
    scenario (including the fault trace) replays byte-identically, and the
    triple is the same one a matrix cell serializes.
    """
    controller_config = ControllerConfig(replication=3,
                                         vnodes_per_switch=virtual_groups,
                                         store_slots=max(1024, store_size + 64),
                                         sync_items_per_sec=sync_items_per_sec,
                                         seed=seed)
    spec = DeploymentSpec(
        backend="netchain", scale=1000.0, store_size=store_size,
        value_size=value_size, vnodes_per_switch=virtual_groups,
        retry_timeout=200e-6, seed=seed, faults=list(faults or []),
        options={"controller_config": controller_config,
                 "detector_config": detector_config or DetectorConfig(
                     probe_interval=50e-3, suspicion_threshold=2)})
    workload = WorkloadSpec(num_clients=num_clients, concurrency=concurrency,
                            write_ratio=write_ratio, think_time=think_time,
                            duration=duration, drain=drain)
    checks = ScenarioChecks(history_mode=history_mode, run_dir=run_dir,
                            require_progress=False, chain_invariants=True)
    return spec, workload, checks
