"""The scenario runner: one workload, any backend, declarative checks.

The paper's evaluation is a matrix -- one workload swept over NetChain,
ZooKeeper and server-based variants.  :func:`run_scenario` is that matrix
as a function: it builds any backend from a
:class:`~repro.deploy.spec.DeploymentSpec`, drives closed-loop recorded
load through the unified :class:`repro.core.client.KVClient` protocol,
arms the spec's declarative fault schedule, and applies history and
linearizability checks at the end.  Everything stochastic derives from
``spec.seed``, so a scenario replays byte-identically: the same spec,
workload and seed produce the same operation history on every run.

Usage::

    spec = DeploymentSpec(backend="netchain", store_size=32, seed=7)
    result = run_scenario(spec, WorkloadSpec(duration=0.5, write_ratio=0.5))
    assert result.ok(), result.failures
    for name in available_backends():            # the whole matrix
        run_scenario(spec.with_backend(name), WorkloadSpec(duration=0.5))
"""

from __future__ import annotations

import dataclasses
import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.core.history import History, LinearizabilityReport, check_linearizable
from repro.core.history_store import (
    SpillingHistory,
    VerdictCache,
    check_linearizable_streaming,
    default_verdict_cache,
)
from repro.deploy.backends import build_deployment
from repro.deploy.base import Capabilities, Deployment
from repro.deploy.spec import DeploymentSpec, check_unknown_fields
from repro.netsim.faults import FaultEvent, FaultSchedule
from repro.netsim.stats import IntervalCounter, LatencyRecorder
from repro.netsim.telemetry import TelemetryConfig, peak_rss_bytes
from repro.workloads.clients import LoadClient
from repro.workloads.generators import KeyValueWorkload, WorkloadConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.trace import TelemetryPlane


@dataclass
class WorkloadSpec:
    """Declarative description of the load a scenario drives."""

    #: Logical closed-loop clients (spread over the deployment's hosts).
    num_clients: int = 2
    #: Outstanding queries per client.
    concurrency: int = 2
    #: Fraction of operations that are writes.
    write_ratio: float = 0.5
    #: Pause between a completion and the next issue (0 = closed loop).
    think_time: float = 0.0
    #: Zipf skew of key popularity (0 = uniform).
    zipf_theta: float = 0.0
    #: Seconds of simulated load before the measurement window.
    warmup: float = 0.0
    #: Seconds of measured simulated load.
    duration: float = 0.5
    #: Seconds to let outstanding queries drain after the window.
    drain: float = 0.25
    #: Distinguishable values per write (required for linearizability).
    unique_values: bool = True

    def validate(self) -> "WorkloadSpec":
        if self.num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {self.num_clients}")
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")
        if not 0.0 <= self.write_ratio <= 1.0:
            raise ValueError(f"write_ratio must be in [0, 1], got {self.write_ratio}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.drain < 0:
            raise ValueError(f"drain must be >= 0, got {self.drain}")
        if self.think_time < 0:
            raise ValueError(f"think_time must be >= 0, got {self.think_time}")
        return self

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict; :meth:`from_dict` round-trips it exactly."""
        self.validate()
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WorkloadSpec":
        """Rebuild a validated workload spec; unknown keys raise
        :class:`ValueError` naming them, invalid values raise naming the
        offending field (eager -- at construction, not mid-scenario)."""
        if not isinstance(data, dict):
            raise ValueError(f"WorkloadSpec.from_dict needs a dict, "
                             f"got {type(data).__name__}")
        check_unknown_fields(cls, data, "WorkloadSpec")
        return cls(**data).validate()


@dataclass
class ScenarioChecks:
    """Which checks to apply to a finished scenario."""

    #: Check the recorded history for per-key linearizability.
    linearizability: bool = True
    #: ``"memory"`` buffers the whole history in RAM (the default, as
    #: before); ``"spill"`` streams completed operations to an NDJSON run
    #: directory and verifies through the bounded-memory streaming checker
    #: (:mod:`repro.core.history_store`), so run size no longer dictates
    #: peak RSS.
    history_mode: str = "memory"
    #: Run directory for ``history_mode="spill"``; a temporary directory
    #: is created (and reported on the result) when unset.
    run_dir: Optional[Union[str, Path]] = None
    #: Worker processes searching the keys the version witness deferred
    #: (0 = in-process).
    verify_workers: int = 0
    #: Verdict memoization for the keys the version witness deferred:
    #: ``"default"`` shares the process-wide cache (repeated seed x backend
    #: x fault scenarios skip re-searching unchanged key streams), ``None``
    #: disables caching, or pass an explicit
    #: :class:`~repro.core.history_store.VerdictCache`.  A witnessed key
    #: never looks it up.
    verdict_cache: Any = "default"
    #: Require at least one *successful* operation per load client (a
    #: wedged or all-failing client must not hide behind the others).
    require_progress: bool = True
    #: Fail when more than this fraction of completed operations failed
    #: (1.0 disables the threshold; ``require_progress`` still rejects
    #: clients with zero successes).
    max_failed_fraction: float = 1.0
    #: Sample the NetChain chain invariants at every fault boundary and
    #: migration step, plus once at the end of the run (requires a backend
    #: exposing a controller -- the NetChain family).  Violations land on
    #: ``ScenarioResult.invariant_violations`` and fail the scenario.
    chain_invariants: bool = False
    #: Verify at the end of the run that every preloaded key is still
    #: readable from its current chain tail (the reconfiguration
    #: harness's "migration loses no keys" check; NetChain family only).
    no_lost_keys: bool = False

    def validate(self) -> "ScenarioChecks":
        if self.history_mode not in ("memory", "spill"):
            raise ValueError(f"history_mode must be 'memory' or 'spill', "
                             f"got {self.history_mode!r}")
        if self.verify_workers < 0:
            raise ValueError(
                f"verify_workers must be >= 0, got {self.verify_workers}")
        if not 0.0 <= self.max_failed_fraction <= 1.0:
            raise ValueError(f"max_failed_fraction must be in [0, 1], "
                             f"got {self.max_failed_fraction}")
        if (self.verdict_cache not in ("default", None)
                and not isinstance(self.verdict_cache, VerdictCache)):
            raise TypeError(f"verdict_cache must be 'default', None or a "
                            f"VerdictCache, got "
                            f"{type(self.verdict_cache).__name__}")
        return self

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict; raises :class:`ValueError` naming a field that
        cannot cross a process boundary (a live ``VerdictCache`` instance)."""
        self.validate()
        if isinstance(self.verdict_cache, VerdictCache):
            raise ValueError(
                "ScenarioChecks.verdict_cache is a live VerdictCache "
                "instance; serialize 'default' or None instead")
        data = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        if data["run_dir"] is not None:
            data["run_dir"] = str(data["run_dir"])
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioChecks":
        """Rebuild validated checks; unknown keys raise :class:`ValueError`
        naming them."""
        if not isinstance(data, dict):
            raise ValueError(f"ScenarioChecks.from_dict needs a dict, "
                             f"got {type(data).__name__}")
        check_unknown_fields(cls, data, "ScenarioChecks")
        return cls(**data).validate()


@dataclass
class ScenarioResult:
    """Outcome of one scenario run."""

    spec: DeploymentSpec
    workload: WorkloadSpec
    backend: str
    capabilities: Capabilities
    completed_ops: int = 0
    failed_ops: int = 0
    #: Completed / successful rates over the measurement window (simulated
    #: units; multiply by ``scale`` -> ``scaled_qps``).
    qps: float = 0.0
    success_qps: float = 0.0
    scaled_qps: float = 0.0
    #: Successful read/write completions over the whole run (drain
    #: included); their ratio splits ``success_qps`` into per-op rates.
    read_ops: int = 0
    write_ops: int = 0
    mean_read_latency: float = 0.0
    mean_write_latency: float = 0.0
    #: 99th-percentile read latency (0.0 when no reads completed).
    read_latency_p99: float = 0.0
    history: Optional[Union[History, SpillingHistory]] = None
    linearizability: Optional[LinearizabilityReport] = None
    #: Run directory holding the spilled NDJSON history (spill mode only);
    #: re-check offline with ``python -m repro history check <run_dir>``.
    run_dir: Optional[Path] = None
    #: The *process-wide high-water mark* of resident set size, in bytes,
    #: read after verification so spill-mode runs report what the pipeline
    #: peaked at (0 when unavailable).  This is a per-process maximum, not
    #: a per-scenario delta: when cells run across a worker pool, merging
    #: takes the **max across workers** -- summing high-water marks would
    #: fabricate memory nobody allocated (see
    #: :func:`repro.deploy.matrix.run_matrix`).
    peak_rss_bytes: int = 0
    #: Keys whose linearizability verdict was served from the memoized
    #: verdict cache instead of a fresh search (spill mode only).
    verdict_cache_hits: int = 0
    #: The injector's replayable trace (empty without a fault schedule).
    fault_trace: List[FaultEvent] = field(default_factory=list)
    #: Human-readable check failures (empty == all checks passed).
    failures: List[str] = field(default_factory=list)
    #: Chain-invariant violations sampled at fault boundaries, migration
    #: steps and once at the end (``checks.chain_invariants`` only).
    invariant_violations: List[str] = field(default_factory=list)
    #: A client seeing a key's version go back (:class:`ClientVersions`,
    #: checked as the ops complete; ``checks.linearizability`` only).
    version_violations: List[str] = field(default_factory=list)
    #: Per-link delivery/drop counters, keyed by link name (populated
    #: whenever the deployment's fault injector was engaged).
    drop_report: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: One report per executed membership change, in order
    #: (``spec.options["reconfig"]`` scenarios only).
    migrations: List[Any] = field(default_factory=list)
    #: Keys unreadable from their chain tail at the end of the run
    #: (``checks.no_lost_keys`` only; must be empty).
    lost_keys: List[str] = field(default_factory=list)
    #: Merged per-operation latency recorders across all load clients
    #: (serializable via ``state_dict()``; matrix workers ship them back
    #: so the merged report can :meth:`~LatencyRecorder.merge` exactly).
    read_latency: Optional[LatencyRecorder] = None
    write_latency: Optional[LatencyRecorder] = None
    #: Each load client's successful-completion times, by reference: a
    #: timeline figure reads its phase-window rates and binned series here.
    successes: List[IntervalCounter] = field(default_factory=list)
    #: The deployment the scenario ran on (clients, cluster, topology).
    deployment: Optional[Deployment] = None
    #: Whether the adaptive hot-key tier was running during the scenario
    #: (``spec.hotkey_tier`` requested it *and* the backend supports it).
    hotkey_tier_active: bool = False
    #: Deterministic telemetry summary (``telemetry/v1`` dict) when the
    #: spec enabled the telemetry plane; ``None`` otherwise.
    metrics: Optional[dict] = None
    #: ``trace/v2`` run directory holding spilled traces / metric series /
    #: control events (telemetry-enabled runs only).
    telemetry_dir: Optional[Path] = None

    def ok(self) -> bool:
        """All requested checks passed."""
        return not self.failures

    def trace_signature(self) -> List[Tuple[float, str, str, str]]:
        """The fault trace as hashable tuples (replay-identity assertions)."""
        return [event.signature() for event in self.fault_trace]

    def migration_signature(self) -> List[Tuple[int, str, str, int]]:
        """Hashable per-migration-step outcomes (replay-identity assertions)."""
        return [(step.vgroup, step.kind, step.status, step.keys_moved)
                for report in self.migrations for step in report.steps]

    def consistent(self) -> bool:
        """No invariant violation, no lost key, no client seeing a version
        go back, a linearizable history."""
        if self.invariant_violations or self.lost_keys or self.version_violations:
            return False
        if self.linearizability is None:
            return True
        return self.linearizability.ok \
            and not self.linearizability.exhausted_keys()

    def iter_signature(self) -> Iterator[Tuple]:
        """The per-operation replay trace, one hashable tuple per op.

        Two runs of the same spec+workload+seed must produce *identical*
        tuples -- operation order, values, outcomes and timestamps --
        whether the history was buffered in memory or spilled to NDJSON:
        both yield in op-id (invocation) order, which both recording modes
        assign identically.  A spilled history is re-read a chunk at a
        time, never loaded whole; :func:`repro.deploy.matrix.signature_digest`
        hashes the stream.
        """
        history = self.history
        if history is None:
            return iter(())
        ops = history.ops if isinstance(history, History) else history.iter_ops_by_id()
        return ((op.client, op.op, op.key, op.value, op.output, op.ok,
                 op.invoked_at, op.returned_at) for op in ops)


def run_scenario(spec: DeploymentSpec,
                 workload: Optional[WorkloadSpec] = None,
                 checks: Optional[ScenarioChecks] = None,
                 deployment: Optional[Deployment] = None,
                 schedule_builder: Optional[Callable] = None) -> ScenarioResult:
    """Run one workload against one deployment spec and check the outcome.

    This is the single scenario entry point, and the only place a
    :class:`~repro.workloads.clients.LoadClient` is built: every
    experiment driver -- the Figure 9 sweeps, the Figure 10 and scale-out
    timelines, :func:`repro.experiments.failures.fault_scenario` and
    :func:`repro.experiments.elasticity.reconfig_scenario` -- constructs
    its three inputs and reads its numbers off the result, and
    :mod:`repro.deploy.matrix` workers reconstruct the inputs from JSON
    alone.  Planned membership changes ride
    ``spec.options["reconfig"]`` (``{"changes": [(at, joins, leaves),
    ...], "link_new_to": [...]}``)
    and a failure detector config rides ``spec.options["detector_config"]``
    -- both serializable, so a fault/reconfig cell is still a plain spec.

    Args:
        spec: the declarative deployment (validated eagerly).
        workload: the load to drive; defaults to a small mixed workload.
        checks: which checks to apply; defaults to linearizability +
            progress.
        deployment: reuse an already-built deployment instead of building
            ``spec`` (the spec is still used for seeds and fault events).
        schedule_builder: escape hatch for fault schedules that need live
            objects (trigger predicates over the cluster):
            ``schedule_builder(schedule, cluster)`` receives the un-armed
            :class:`FaultSchedule` -- with ``spec.faults`` already added --
            plus the cluster (the deployment itself for backends without
            one) and returns the schedule with its events added.  Not
            serializable; matrix cells use ``spec.faults`` instead.
    """
    workload = (workload or WorkloadSpec()).validate()
    checks = (checks or ScenarioChecks()).validate()
    if spec.store_size < 1:
        raise ValueError(
            "run_scenario needs a preloaded store (store_size >= 1): the "
            "workload targets the preloaded keys, so an empty store would "
            "measure nothing but KEY_NOT_FOUND failures")
    if deployment is None:
        deployment = build_deployment(spec)
    sim = deployment.sim

    # The NetChain-family control plane, where the chain-invariant and
    # lost-key checks (and live reconfiguration) live.
    cluster = getattr(deployment, "cluster", None)
    controller = getattr(cluster, "controller", None)
    reconfig = spec.options.get("reconfig") or {}
    if reconfig and not deployment.capabilities.supports_reconfig:
        raise ValueError(f"backend {deployment.backend_name!r} does not "
                         f"support reconfiguration")
    if (checks.chain_invariants or checks.no_lost_keys) and controller is None:
        raise ValueError(
            f"chain_invariants/no_lost_keys checks need a backend exposing "
            f"a chain controller; {deployment.backend_name!r} does not")

    plane: Optional[TelemetryPlane] = None
    telemetry_config = TelemetryConfig.coerce(spec.telemetry)
    if telemetry_config is not None:
        from repro.core.trace import TelemetryPlane
        telemetry_dir = Path(telemetry_config.run_dir) \
            if telemetry_config.run_dir is not None \
            else Path(tempfile.mkdtemp(prefix="telemetry-run-"))
        plane = TelemetryPlane(
            sim, telemetry_config, telemetry_dir,
            meta={"backend": spec.backend, "seed": spec.seed,
                  "sample_interval": telemetry_config.sample_interval,
                  "trace_sample": telemetry_config.trace_sample})
        deployment.attach_telemetry(plane)
        plane.start()

    initial = deployment.initial_values() if checks.linearizability else None
    history: Optional[Union[History, SpillingHistory]] = None
    run_dir: Optional[Path] = None
    if checks.linearizability:
        if checks.history_mode == "spill":
            run_dir = Path(checks.run_dir) if checks.run_dir is not None \
                else Path(tempfile.mkdtemp(prefix="scenario-run-"))
            history = SpillingHistory(
                sim, run_dir, initial=initial,
                meta={"backend": spec.backend, "seed": spec.seed})
        else:
            history = History(sim)

    clients = deployment.clients(workload.num_clients)
    load_clients: List[LoadClient] = []
    for index, client in enumerate(clients):
        tag = f"c{index}"
        generator = KeyValueWorkload(
            WorkloadConfig(store_size=spec.store_size,
                           value_size=spec.value_size,
                           write_ratio=workload.write_ratio,
                           zipf_theta=workload.zipf_theta,
                           key_prefix=spec.key_prefix,
                           unique_values=workload.unique_values),
            rng=random.Random((spec.seed << 8) + index + 1), tag=tag)
        load_clients.append(LoadClient(client, generator,
                                       concurrency=workload.concurrency,
                                       history=history,
                                       think_time=workload.think_time,
                                       name=tag))

    schedule: Optional[FaultSchedule] = None
    injector = None
    if spec.faults or schedule_builder is not None:
        if not deployment.capabilities.supports_fault_injection:
            raise ValueError(f"backend {deployment.backend_name!r} does not "
                             f"support fault injection")
        schedule = deployment.fault_schedule()
        for event in spec.faults:
            schedule.at(event[0], event[1], *event[2:])
        if schedule_builder is not None:
            schedule = schedule_builder(
                schedule, cluster if cluster is not None else deployment)
        injector = schedule.injector

    violations: List[str] = []
    observer = None
    if checks.chain_invariants \
            and deployment.capabilities.supports_fault_injection:
        from repro.core.invariants import invariant_observer
        if injector is None:
            injector = deployment.fault_injector
        observer = invariant_observer(controller, violations)
        injector.observers.append(observer)

    if schedule is not None:
        schedule.arm()
    if (schedule is not None or reconfig
            or "detector_config" in spec.options):
        deployment.start_fault_reaction(spec.options)

    migrations: List[Any] = []
    if reconfig.get("changes"):
        from repro.core.invariants import sample_chain_invariants
        link_new_to = reconfig.get("link_new_to")

        def start_change(joins: List[str], leaves: List[str]) -> None:
            for name in joins:
                if name not in cluster.topology.switches:
                    cluster.add_switch(name, link_to=link_new_to)
            target = [m for m in controller.ring.switch_names
                      if m not in leaves]
            target += [j for j in joins if j not in target and j not in leaves]
            coordinator = cluster.migrate(target)
            if checks.chain_invariants:
                coordinator.observers.append(
                    lambda _step: violations.extend(sample_chain_invariants(
                        controller, raise_on_violation=False)))
            migrations.append(coordinator.report)

        for change in reconfig["changes"]:
            at, joins, leaves = change[0], change[1], change[2]
            sim.schedule_at(
                at, lambda j=list(joins), l=list(leaves): start_change(j, l))

    start = sim.now
    window_start = start + workload.warmup
    window_end = window_start + workload.duration
    for load_client in load_clients:
        load_client.start()
    sim.run(until=window_end)
    for load_client in load_clients:
        load_client.stop()
    sim.run(until=window_end + workload.drain)
    if schedule is not None:
        schedule.cancel()
    telemetry_summary: Optional[dict] = None
    if plane is not None:
        telemetry_summary = plane.finish()

    result = ScenarioResult(spec=spec, workload=workload,
                            backend=deployment.backend_name,
                            capabilities=deployment.capabilities,
                            history=history, deployment=deployment,
                            hotkey_tier_active=getattr(
                                deployment, "hotkey_tier_active", False))
    result.completed_ops = sum(c.completions.total() for c in load_clients)
    result.failed_ops = sum(c.failed_queries for c in load_clients)
    result.qps = sum(c.completions.rate_between(window_start, window_end)
                     for c in load_clients)
    result.successes = [c.successes for c in load_clients]
    result.success_qps = sum(counter.rate_between(window_start, window_end)
                             for counter in result.successes)
    result.scaled_qps = result.success_qps * (
        deployment.scale if deployment.capabilities.scaled_throughput else 1.0)
    read_latency = LatencyRecorder()
    write_latency = LatencyRecorder()
    for load_client in load_clients:
        read_latency.merge(load_client.read_latency)
        write_latency.merge(load_client.write_latency)
    result.read_latency = read_latency
    result.write_latency = write_latency
    result.read_ops = read_latency.count()
    result.write_ops = write_latency.count()
    if result.read_ops:
        result.mean_read_latency = read_latency.mean()
        result.read_latency_p99 = read_latency.percentile(99.0)
    if result.write_ops:
        result.mean_write_latency = write_latency.mean()
    if injector is not None:
        result.fault_trace = list(injector.trace)
        result.drop_report = injector.drop_report()
    result.migrations = migrations
    if observer is not None:
        # Detach this run's observer so a reused deployment does not keep
        # appending later runs' findings into this (already returned) result.
        injector.observers.remove(observer)
    if plane is not None:
        result.metrics = telemetry_summary
        result.telemetry_dir = plane.run_dir

    # -- checks ---------------------------------------------------------- #

    if checks.require_progress:
        # Per-client and success-based, not aggregate completions: a
        # wedged client, or one whose every operation fails, must not
        # hide behind the other clients' throughput.
        for load_client in load_clients:
            if load_client.successes.total() == 0:
                result.failures.append(
                    f"client {load_client.name} completed no successful "
                    f"operations")
    # completed_ops counts every completion, failed ones included, so it
    # is the denominator -- not completed + failed, which double-counts.
    if (result.completed_ops
            and result.failed_ops / result.completed_ops > checks.max_failed_fraction):
        result.failures.append(
            f"{result.failed_ops}/{result.completed_ops} operations failed "
            f"(max_failed_fraction={checks.max_failed_fraction})")
    if checks.chain_invariants:
        from repro.core.invariants import sample_chain_invariants
        violations.extend(sample_chain_invariants(
            controller, raise_on_violation=False))
        result.invariant_violations = violations
        if violations:
            result.failures.append(
                f"{len(violations)} chain invariant violation(s): "
                f"{violations[0]}")
    if checks.no_lost_keys:
        # Zero lost keys: every key registered in the directory is
        # readable from its current chain tail.
        for key in deployment.keys:
            vgroup = controller.ring.vgroup_for_key(key)
            info = controller.chain_table.get(vgroup)
            store = controller.stores.get(info.switches[-1]) \
                if info is not None else None
            item = store.read(key) if store is not None else None
            if item is None:
                result.lost_keys.append(key)
        if result.lost_keys:
            result.failures.append(
                f"{len(result.lost_keys)} key(s) unreadable after the run: "
                f"{result.lost_keys[:5]}")
    if checks.linearizability and history is not None:
        if checks.history_mode == "spill":
            # Spilling the tail and the index is recording, not checking.
            history.finish()
            cache = checks.verdict_cache
            if cache == "default":
                cache = default_verdict_cache()
            report = check_linearizable_streaming(
                history, initial=initial, workers=checks.verify_workers,
                cache=cache)
            result.run_dir = run_dir
            result.verdict_cache_hits = report.cache_hits
        else:
            report = check_linearizable(history, initial=initial)
        result.linearizability = report
        result.version_violations = history.versions.violations
        if result.version_violations:
            result.failures.append(f"{len(result.version_violations)} version "
                                   f"regression(s): {result.version_violations[0]}")
        if not report.ok:
            result.failures.append(report.summary())
        elif report.exhausted_keys():
            result.failures.append(
                f"linearizability check exhausted on "
                f"{[r.key for r in report.exhausted_keys()]}")
    for link in deployment.topology.links:  # conservation, checked always
        sent = link.port_a.tx_packets + link.port_b.tx_packets
        if sent != link.delivered + link.dropped:
            result.failures.append(f"link {link.name}: {sent} packets sent but "
                                   f"{link.delivered} delivered + {link.dropped} dropped")
    # The process high-water mark, read after verification so spill-mode
    # runs report what the pipeline peaked at.
    result.peak_rss_bytes = peak_rss_bytes()

    deployment.teardown()
    return result
