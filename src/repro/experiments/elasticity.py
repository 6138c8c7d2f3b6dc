"""Elasticity experiments: online scale-out/scale-in under live traffic.

The paper evaluates NetChain's scalability with a static model (Figure
9(f): throughput grows linearly with the number of switches); this module
measures the *dynamic* side of the same claim with the reconfiguration
subsystem (:mod:`repro.core.reconfig`): how a running cluster behaves
while switches join or leave.

Two drivers:

* :func:`reconfig_scenario` -- the consistency scenario, mirroring
  :func:`repro.experiments.failures.fault_scenario`: paced recorded
  load on every host, one or more planned membership changes (optionally
  combined with a fault schedule, e.g. fail-stopping the joining switch
  mid-migration), chain invariants sampled at every migration commit and
  fault boundary, and a per-key linearizability check over the recorded
  history.  Everything derives from one seed and replays byte-identically.

* :func:`elasticity_experiment` -- the scale-out timeline: throughput
  before/during/after growing the membership, with per-group freeze
  windows and the volume of moved keys, which is the operational cost the
  paper's "scale-free" claim hides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.reconfig import MigrationReport
from repro.deploy import DeploymentSpec, ScenarioChecks, WorkloadSpec
from repro.experiments.failures import fault_scenario, netchain_testbed_spec, phase_rate
from repro.experiments.throughput import adaptive_retry_timeout, measure

#: One planned membership change: (time, joins, leaves).
MembershipChange = Tuple[float, Sequence[str], Sequence[str]]


def reconfig_scenario(changes: Sequence[MembershipChange],
                      link_new_to: Optional[List[str]] = None,
                      **scenario,
                      ) -> Tuple[DeploymentSpec, WorkloadSpec, ScenarioChecks]:
    """The ``(spec, workload, checks)`` triple of planned membership
    changes under a recorded mixed workload.

    ``changes`` is a list of ``(time, joins, leaves)``: at each ``time``
    the listed switches are hot-plugged (joins) and a live migration to the
    new membership starts.  The plan rides ``spec.options["reconfig"]``
    (fully serializable, so matrix cells can carry it); every other
    keyword is :func:`repro.experiments.failures.fault_scenario`'s, and a
    fault schedule combines with the plan exactly as there -- fail-stopping
    a switch mid-migration is the interesting combination::

        run_scenario(*reconfig_scenario([(0.5, ["S4"], [])], seed=s),
                     schedule_builder=kill_joiner)

    Everything stochastic derives from ``seed``; two runs with the same
    arguments produce identical fault traces, migration step outcomes and
    operation histories.
    """
    spec, workload, checks = fault_scenario(**scenario)
    spec.options["reconfig"] = {
        "changes": [(at, list(joins), list(leaves))
                    for at, joins, leaves in changes],
        "link_new_to": list(link_new_to) if link_new_to is not None else None,
    }
    checks.no_lost_keys = True
    return spec, workload, checks


# --------------------------------------------------------------------- #
# The scale-out timeline.
# --------------------------------------------------------------------- #

@dataclass
class ElasticityTimeline:
    """Throughput and migration cost of one planned membership change."""

    joins: List[str]
    leaves: List[str]
    scale: float
    #: (time, queries-per-second in simulated units) per bin.
    series: List[Tuple[float, float]] = field(default_factory=list)
    migration_started: float = 0.0
    migration_finished: float = 0.0
    before_qps: float = 0.0
    during_qps: float = 0.0
    after_qps: float = 0.0
    keys_moved: int = 0
    items_copied: int = 0
    total_freeze_time: float = 0.0
    max_freeze_window: float = 0.0
    groups_migrated: int = 0
    report: Optional[MigrationReport] = None

    def scaled(self, qps: float) -> float:
        return qps * self.scale

    def during_drop_fraction(self) -> float:
        """Fractional throughput dip while the migration ran."""
        if self.before_qps <= 0:
            return 0.0
        return max(0.0, 1.0 - self.during_qps / self.before_qps)


def elasticity_experiment(joins: Sequence[str] = ("S4", "S5", "S6", "S7"),
                          leaves: Sequence[str] = (),
                          store_size: int = 200,
                          write_ratio: float = 0.5,
                          scale: float = 4000.0,
                          migrate_at: float = 1.0,
                          virtual_groups: int = 4,
                          sync_items_per_sec: float = 20000.0,
                          concurrency: int = 16,
                          bin_width: float = 0.1,
                          seed: int = 0,
                          duration: float = 2.1,
                          ) -> ElasticityTimeline:
    """Grow (or shrink) the cluster under closed-loop load and measure the
    cost: throughput before/during/after, keys moved, freeze windows.

    The run lasts ``duration`` seconds and must outlast the migration by
    more than the 0.2 s the after window skips, or :class:`ValueError`
    names the time that is missing."""
    spec = netchain_testbed_spec(seed, scale, store_size, virtual_groups,
                                 sync_items_per_sec,
                                 adaptive_retry_timeout(concurrency, scale))
    spec.options["reconfig"] = {
        "changes": [(migrate_at, list(joins), list(leaves))]}
    result = measure(spec, num_clients=1, concurrency=concurrency,
                     write_ratio=write_ratio, duration=duration)
    (successes,) = result.successes
    if not result.migrations or not result.migrations[0].done:
        raise ValueError(
            f"the migration had not finished at duration={duration} s "
            f"(migrate_at={migrate_at} s)")
    report = result.migrations[0]
    return ElasticityTimeline(
        joins=list(joins), leaves=list(leaves), scale=scale,
        series=successes.series(bin_width), report=report,
        migration_started=report.started_at,
        migration_finished=report.finished_at,
        keys_moved=report.total_keys_moved(),
        items_copied=report.total_items_copied(),
        total_freeze_time=report.total_freeze_time(),
        max_freeze_window=report.max_freeze_window(),
        groups_migrated=len(report.committed_steps()),
        before_qps=phase_rate(successes, migrate_at * 0.5, migrate_at,
                              "before"),
        during_qps=phase_rate(successes, report.started_at,
                              report.finished_at, "during"),
        after_qps=phase_rate(successes, report.finished_at + 0.2, duration,
                             "after"))
