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

The timeline is one :func:`repro.deploy.run_scenario` run: the failure is
a ``spec.faults`` event, the controller reacts through the
:class:`repro.core.detector.FailureDetector` configured by
``options["detector_config"]`` (it is never called directly), and every
phase boundary is *observed* from the fault trace, the controller's event
log and its recovery report rather than computed from the input knobs.

:func:`fault_scenario` generalizes the same setup to arbitrary schedules:
it builds the ``(spec, workload, checks)`` triple that
:func:`repro.deploy.run_scenario` runs -- a paced mixed workload records a
full operation history, the chain invariants are sampled at every fault
boundary, and the history is checked for per-key linearizability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.detector import DetectorConfig
from repro.deploy import DeploymentSpec, ScenarioChecks, WorkloadSpec
from repro.experiments.throughput import adaptive_retry_timeout, measure
from repro.netsim.faults import FaultEvent
from repro.netsim.stats import IntervalCounter


def netchain_testbed_spec(seed: int, scale: float, store_size: int,
                          virtual_groups: int, sync_items_per_sec: float,
                          retry_timeout: float,
                          value_size: int = 64) -> DeploymentSpec:
    """The NetChain testbed every failure and elasticity driver runs on:
    chains of three with ``virtual_groups`` per switch and a controller
    that copies ``sync_items_per_sec`` items during state synchronization.
    Callers add ``faults`` and the ``detector_config`` / ``reconfig``
    options."""
    return DeploymentSpec(
        backend="netchain", scale=scale, replication=3, store_size=store_size,
        value_size=value_size, vnodes_per_switch=virtual_groups,
        store_slots=max(1024, store_size + 64),
        sync_items_per_sec=sync_items_per_sec, retry_timeout=retry_timeout,
        seed=seed)


def phase_rate(successes: IntervalCounter, start: float, end: float,
               phase: str) -> float:
    """Successful queries per second over one phase window; an empty
    window is an error of the run's ``duration``, not a rate of zero."""
    if end <= start:
        raise ValueError(
            f"the {phase} window [{start:.3f}, {end:.3f}) s is empty: "
            f"the run must last beyond t={start:.3f} s")
    return successes.rate_between(start, end)


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
                       sync_items_per_sec: float = 140.0,
                       bin_width: float = 0.5,
                       concurrency: int = 16,
                       seed: int = 0,
                       duration: float = 21.5) -> FailureTimeline:
    """Fail S1 in the chain [S0, S1, S2], recover onto S3, track throughput.

    The failure detector's probe interval is ``detection_delay`` -- the
    controller notices the failure at the first probe after the
    injection, within one interval, exactly like the deliberately slowed
    detection of the paper's methodology.  All phase boundaries in the
    returned timeline are observed, not assumed; the run lasts
    ``duration`` seconds and must outlast the recovery by more than the
    0.5 s the post-recovery window skips, or :class:`ValueError` names
    the time that is missing.
    """
    spec = netchain_testbed_spec(seed, scale, store_size, virtual_groups,
                                 sync_items_per_sec,
                                 adaptive_retry_timeout(concurrency, scale))
    spec.faults = [(fail_at, "fail_switch", "S1")]
    spec.options["detector_config"] = DetectorConfig(
        probe_interval=detection_delay, suspicion_threshold=1,
        recovery_start_delay=recovery_start_delay, new_switch="S3")
    result = measure(spec, num_clients=1, concurrency=concurrency,
                     write_ratio=write_ratio, duration=duration)
    (successes,) = result.successes

    controller = result.deployment.cluster.controller
    fail_times = [e.time for e in result.fault_trace if e.kind == "switch_fail"]
    failovers = [t for t, kind, _fields in controller.event_log.events
                 if kind == "fast_failover"]
    reports = controller.recovery_reports
    if not fail_times or not failovers:
        raise ValueError(
            f"no switch failure and fast failover within duration={duration} s "
            f"(fail_at={fail_at} s, detection_delay={detection_delay} s)")
    if not reports or reports[-1].finished_at <= 0:
        raise ValueError(
            f"failure recovery had not finished at duration={duration} s "
            f"(failover completed at t={failovers[0]:.3f} s, recovery starts "
            f"{recovery_start_delay} s later)")
    report = reports[-1]
    fail_time, failover_end = fail_times[0], failovers[0]
    return FailureTimeline(
        virtual_groups=virtual_groups, scale=scale,
        series=successes.series(bin_width),
        fail_time=fail_time, failover_complete_time=failover_end,
        recovery_start_time=report.started_at,
        recovery_end_time=report.finished_at,
        groups_recovered=report.groups_recovered,
        fault_trace=result.fault_trace,
        baseline_qps=phase_rate(successes, fail_time * 0.5, fail_time,
                                "baseline"),
        failover_window_qps=phase_rate(successes, fail_time, failover_end,
                                       "failover"),
        recovery_window_qps=phase_rate(successes, report.started_at,
                                       report.finished_at, "recovery"),
        post_recovery_qps=phase_rate(successes, report.finished_at + 0.5,
                                     duration, "post-recovery"))


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
    spec = netchain_testbed_spec(seed, 1000.0, store_size, virtual_groups,
                                 sync_items_per_sec, retry_timeout=200e-6,
                                 value_size=value_size)
    spec.faults = list(faults or [])
    spec.options["detector_config"] = detector_config or DetectorConfig(
        probe_interval=50e-3, suspicion_threshold=2)
    workload = WorkloadSpec(num_clients=num_clients, concurrency=concurrency,
                            write_ratio=write_ratio, think_time=think_time,
                            duration=duration, drain=drain)
    checks = ScenarioChecks(history_mode=history_mode, run_dir=run_dir,
                            require_progress=False, chain_invariants=True)
    return spec, workload, checks
