"""Control-plane failure detection (Section 5, "failure handling").

The paper's controller learns about switch failures from the network
(neighbor reports / routing withdrawals) rather than by being told by an
experiment harness.  This module closes that loop in the simulator: a
:class:`FailureDetector` runs as a periodic control-plane process, probes
every member switch over the management channel, and drives
:meth:`NetChainController.handle_switch_failure` when a switch stops
answering -- whether it fail-stopped, gray-failed (forwards but no longer
serves), or was cut off by link faults or a partition.

The detector also notices previously failed switches answering probes
again (a healed partition, a repaired device) and reintroduces them as
empty members, which is what makes partition-heal scenarios run without
any scripted controller calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.controller import NetChainController


#: Consecutive healthy probes before a failed switch that answers probes
#: again is reintroduced (hysteresis).
REINTRODUCE_THRESHOLD = 2


@dataclass
class DetectorConfig:
    """Failure-detection knobs.

    A probe models one management-channel health check: it succeeds iff the
    device is up, its service agent answers (gray failures fail this), and
    at least one of its links is alive (a fully cut-off switch cannot serve
    chains even if its control channel is out of band).
    """

    #: Seconds between probe rounds.  The first round runs half an
    #: interval in, so probes interleave rather than collide with
    #: scheduled fault times.
    probe_interval: float = 50e-3
    #: Consecutive failed probes before the controller reacts: fast
    #: failover (Algorithm 2), then failure recovery (Algorithm 3).
    suspicion_threshold: int = 1
    #: Delay between failover and the start of recovery.
    recovery_start_delay: float = 0.0
    #: Preferred replacement switch handed to recovery (None = controller
    #: chooses).
    new_switch: Optional[str] = None


class FailureDetector:
    """Periodic health prober that drives the controller's failure handling."""

    def __init__(self, controller: NetChainController,
                 config: Optional[DetectorConfig] = None) -> None:
        self.controller = controller
        self.topology = controller.topology
        self.sim = controller.sim
        self.config = config or DetectorConfig()
        self.misses: Dict[str, int] = {}
        self.heals: Dict[str, int] = {}
        #: (time, switch) pairs, appended at detection / reintroduction.
        self.detections: List[Tuple[float, str]] = []
        self.reintroductions: List[Tuple[float, str]] = []
        self._handled: Set[str] = set()
        self._cancel = None

    # ------------------------------------------------------------------ #
    # Lifecycle.
    # ------------------------------------------------------------------ #

    def start(self) -> "FailureDetector":
        """Begin probing (idempotent)."""
        if self._cancel is None:
            interval = self.config.probe_interval
            self._cancel = self.sim.every(interval, self._probe_round,
                                          start=interval * 0.5)
        return self

    def stop(self) -> None:
        """Stop probing."""
        if self._cancel is not None:
            self._cancel()
            self._cancel = None

    # ------------------------------------------------------------------ #
    # Probing.
    # ------------------------------------------------------------------ #

    def probe(self, name: str) -> bool:
        """One health check of a member switch."""
        switch = self.topology.switches[name]
        if switch.failed or not switch.serving:
            return False
        links = [link for link in self.topology.links
                 if switch in (link.port_a.node, link.port_b.node)]
        if links and not any(link.up for link in links):
            return False
        return True

    def _probe_round(self) -> None:
        cfg = self.config
        controller = self.controller
        for name in controller.members:
            healthy = self.probe(name)
            if name in self._handled or name in controller.failed_switches:
                self._watch_for_reintroduction(name, healthy)
                continue
            if healthy:
                self.misses[name] = 0
                continue
            self.misses[name] = self.misses.get(name, 0) + 1
            if self.misses[name] >= cfg.suspicion_threshold:
                self._handled.add(name)
                self.detections.append((self.sim.now, name))
                controller.event_log.emit("failure_detected", switch=name,
                                          misses=self.misses[name])
                controller.handle_switch_failure(
                    name, new_switch=cfg.new_switch,
                    recovery_start_delay=cfg.recovery_start_delay)

    def _watch_for_reintroduction(self, name: str, healthy: bool) -> None:
        controller = self.controller
        if not healthy:
            self.heals[name] = 0
            return
        if name in controller.recovering:
            # Do not flap membership while Algorithm 3 is splicing chains.
            self.heals[name] = 0
            return
        self.heals[name] = self.heals.get(name, 0) + 1
        if self.heals[name] >= REINTRODUCE_THRESHOLD:
            controller.reintroduce_switch(name)
            self._handled.discard(name)
            self.heals[name] = 0
            self.misses[name] = 0
            self.reintroductions.append((self.sim.now, name))
            controller.event_log.emit("reintroduced", switch=name)
