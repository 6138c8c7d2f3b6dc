"""Deterministic fault injection: link faults, partitions, gray failures.

The paper's correctness story (Section 4.5 and the TLA+ appendix) is about
what happens *between* the happy paths: packets are lost and reordered,
switches fail and are replaced, and the chain protocol must keep per-key
consistency through all of it.  The simulator previously only modelled a
fail-stop switch; this module adds the rest of the failure vocabulary and
makes every stochastic choice replayable:

* :class:`LinkFaultModel` -- a per-link loss / corruption / reorder / delay
  model driven by a seeded ``random.Random``.
* :class:`FaultInjector` -- an imperative API over a topology: take links
  down and up, partition the network into groups and heal it, fail-stop or
  gray-fail switches.  Every action is appended to a :class:`FaultEvent`
  trace, so two runs with the same seed produce byte-identical traces.
* :class:`FaultSchedule` -- a declarative script of timed (``at``) and
  trigger-based (``when``) fault events armed on the simulator, which is
  what experiments and the scenario-matrix tests replay.

Determinism contract: the injector derives one child RNG per fault model
from its own seeded RNG, in installation order, and never consumes
randomness outside those derivations.  Combined with the deterministic
event engine this makes whole failure scenarios replay byte-identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.netsim.link import Link
from repro.netsim.packet import Packet
from repro.netsim.topology import Topology


def derive_rng(parent: random.Random) -> random.Random:
    """A child ``random.Random`` deterministically derived from ``parent``.

    Children are independent streams: consuming one does not perturb the
    others, which keeps scenarios replayable even when fault models fire in
    load-dependent order.
    """
    return random.Random(parent.getrandbits(64))


@dataclass
class FaultVerdict:
    """What a fault model decided about one packet traversal."""

    drop: bool = False
    #: ``"loss"`` or ``"corrupt"`` when ``drop`` is set.
    reason: str = ""
    extra_delay: float = 0.0
    reordered: bool = False


class LinkFaultModel:
    """Seeded per-packet loss / corruption / reordering / delay on one link.

    The one way a link impairs traffic (``Link.set_faults``): installed and
    removed at runtime by a schedule, or up front by a caller, and drawing
    from an injectable RNG so scenarios replay.
    """

    def __init__(self, rng: random.Random, loss_rate: float = 0.0,
                 corrupt_rate: float = 0.0, reorder_jitter: float = 0.0,
                 extra_delay: float = 0.0) -> None:
        self.rng = rng
        self.loss_rate = loss_rate
        self.corrupt_rate = corrupt_rate
        self.reorder_jitter = reorder_jitter
        self.extra_delay = extra_delay

    def on_transmit(self, packet: Packet) -> FaultVerdict:
        """Judge one traversal; called by :meth:`Link.transmit`."""
        if self.loss_rate > 0 and self.rng.random() < self.loss_rate:
            return FaultVerdict(drop=True, reason="loss")
        if self.corrupt_rate > 0 and self.rng.random() < self.corrupt_rate:
            # Corrupted frames fail the receiver's FCS check and are
            # discarded there; the observable effect is a (separately
            # counted) drop.
            return FaultVerdict(drop=True, reason="corrupt")
        delay = self.extra_delay
        reordered = False
        if self.reorder_jitter > 0:
            delay += self.rng.uniform(0.0, self.reorder_jitter)
            reordered = True
        return FaultVerdict(extra_delay=delay, reordered=reordered)

    def describe(self) -> str:
        return (f"loss={self.loss_rate} corrupt={self.corrupt_rate} "
                f"jitter={self.reorder_jitter} delay={self.extra_delay}")


@dataclass
class FaultEvent:
    """One entry of the injector's replayable trace."""

    time: float
    kind: str
    target: str
    detail: str = ""

    def signature(self) -> Tuple[float, str, str, str]:
        """Hashable form used by replay-identity assertions."""
        return (round(self.time, 12), self.kind, self.target, self.detail)


class FaultInjector:
    """Imperative fault API over one topology, with a deterministic trace.

    All stochastic fault behaviour flows through ``random.Random(seed)``:
    the injector's own RNG is only used to derive child RNGs for the link
    fault models it installs, in installation order.
    """

    def __init__(self, topology: Topology, seed: int = 0) -> None:
        """Args:
            topology: the simulated network to inject faults into.
            seed: seed for all fault-model randomness.
        """
        self.topology = topology
        self.sim = topology.sim
        self.seed = seed
        self.rng = random.Random(seed)
        self.trace: List[FaultEvent] = []
        #: Observers called with each :class:`FaultEvent` as it happens
        #: (used to sample invariants at fault boundaries).
        self.observers: List[Callable[[FaultEvent], None]] = []
        self._partitioned_links: List[Link] = []

    # ------------------------------------------------------------------ #
    # Trace plumbing.
    # ------------------------------------------------------------------ #

    def _record(self, kind: str, target: str, detail: str = "") -> FaultEvent:
        event = FaultEvent(time=self.sim.now, kind=kind, target=target, detail=detail)
        self.trace.append(event)
        for observer in self.observers:
            observer(event)
        return event

    def trace_signature(self) -> List[Tuple[float, str, str, str]]:
        """The trace in hashable form; identical across same-seed replays."""
        return [event.signature() for event in self.trace]

    # ------------------------------------------------------------------ #
    # Link faults.
    # ------------------------------------------------------------------ #

    def link(self, a: str, b: str) -> Link:
        """The physical link between two named nodes."""
        link = self.topology.link_between(self.topology.node(a), self.topology.node(b))
        if link is None:
            raise KeyError(f"no link between {a!r} and {b!r}")
        return link

    def link_down(self, a: str, b: str) -> None:
        """Cut the link; packets in flight still arrive, new ones drop."""
        link = self.link(a, b)
        link.set_down()
        self._record("link_down", link.name)

    def link_up(self, a: str, b: str) -> None:
        """Restore a previously downed link."""
        link = self.link(a, b)
        link.set_up()
        self._record("link_up", link.name)

    def set_link_faults(self, a: str, b: str, loss_rate: float = 0.0,
                        corrupt_rate: float = 0.0, reorder_jitter: float = 0.0,
                        extra_delay: float = 0.0) -> LinkFaultModel:
        """Install a seeded loss/corruption/reorder/delay model on a link."""
        link = self.link(a, b)
        model = LinkFaultModel(derive_rng(self.rng), loss_rate=loss_rate,
                               corrupt_rate=corrupt_rate,
                               reorder_jitter=reorder_jitter,
                               extra_delay=extra_delay)
        link.set_faults(model)
        self._record("link_faults", link.name, model.describe())
        return model

    def clear_link_faults(self, a: str, b: str) -> None:
        """Remove the fault model from a link."""
        link = self.link(a, b)
        link.set_faults(None)
        self._record("link_faults_cleared", link.name)

    # ------------------------------------------------------------------ #
    # Switch faults.
    # ------------------------------------------------------------------ #

    def fail_switch(self, name: str) -> None:
        """Fail-stop a switch (it stops processing and forwarding)."""
        self.topology.switches[name].fail()
        self._record("switch_fail", name)

    def recover_switch(self, name: str) -> None:
        """Bring a fail-stopped or gray-failed switch device back up."""
        self.topology.switches[name].recover_device()
        self._record("switch_recover", name)

    def gray_fail_switch(self, name: str) -> None:
        """Gray-fail a switch: it keeps forwarding but stops serving."""
        self.topology.switches[name].fail_gray()
        self._record("switch_gray_fail", name)

    def fail_host(self, name: str) -> None:
        """Fail-stop a host."""
        self.topology.hosts[name].fail()
        self._record("host_fail", name)

    def recover_host(self, name: str) -> None:
        """Recover a failed host."""
        self.topology.hosts[name].recover_device()
        self._record("host_recover", name)

    # ------------------------------------------------------------------ #
    # Partitions.
    # ------------------------------------------------------------------ #

    def partition(self, *groups: Iterable[str]) -> List[Link]:
        """Split the network: links between different groups go down.

        Nodes not named in any group form one implicit final group, so
        ``partition({"S3"})`` isolates S3 from everything else.  Returns the
        links that were cut.  Nested partitions are not supported: heal the
        current one first.
        """
        if self._partitioned_links:
            raise RuntimeError("a partition is already active; heal it first")
        named: List[Set[str]] = [set(group) for group in groups]
        assigned = set().union(*named) if named else set()
        rest = {node.name for node in self.topology.all_nodes()} - assigned
        if rest:
            named.append(rest)

        def group_of(name: str) -> int:
            for index, group in enumerate(named):
                if name in group:
                    return index
            return -1

        cut: List[Link] = []
        for link in self.topology.links:
            ga = group_of(link.port_a.node.name)
            gb = group_of(link.port_b.node.name)
            if ga != gb and link.up:
                link.set_down()
                cut.append(link)
        self._partitioned_links = cut
        label = " | ".join(",".join(sorted(g)) for g in named)
        self._record("partition", label, detail=f"{len(cut)} links cut")
        return cut

    def heal_partition(self) -> None:
        """Restore every link the active partition cut."""
        for link in self._partitioned_links:
            link.set_up()
        count = len(self._partitioned_links)
        self._partitioned_links = []
        self._record("partition_heal", "", detail=f"{count} links restored")

    # ------------------------------------------------------------------ #
    # Reporting.
    # ------------------------------------------------------------------ #

    def drop_report(self) -> Dict[str, Dict[str, int]]:
        """Per-link drop/delivery counters, keyed by link name."""
        report: Dict[str, Dict[str, int]] = {}
        for link in self.topology.links:
            stats = link.stats
            report[link.name] = {
                "delivered": stats.delivered,
                "dropped_down": stats.dropped_down,
                "dropped_loss": stats.dropped_loss,
                "dropped_corrupt": stats.dropped_corrupt,
                "delayed": stats.delayed,
                "reordered": stats.reordered,
            }
        return report


#: A schedule action: the name of a :class:`FaultInjector` method, or any
#: zero-argument callable for custom events.
Action = Union[str, Callable[[], None]]


@dataclass
class _ScheduleEntry:
    when: str  # "at" or "when"
    time: float
    predicate: Optional[Callable[[], bool]]
    action: Action
    args: tuple
    kwargs: dict
    label: str
    fired: bool = False


class FaultSchedule:
    """A replayable script of timed and trigger-based fault events.

    Usage::

        injector = FaultInjector(topology, seed=7)
        schedule = (FaultSchedule(injector)
                    .at(0.5, "set_link_faults", "S0", "S1", loss_rate=0.02)
                    .at(1.0, "fail_switch", "S1")
                    .at(2.0, "partition", {"S3"})
                    .at(2.5, "heal_partition")
                    .when(lambda: controller.recovery_reports,
                          "fail_switch", "S2", label="fail during recovery"))
        schedule.arm()
        sim.run(until=10.0)

    String actions name :class:`FaultInjector` methods, which keeps scripts
    declarative and serializable; callables are accepted for anything else.
    ``when`` triggers poll their predicate on the simulator (deterministic
    polling, default every millisecond) and fire exactly once.
    """

    def __init__(self, injector: FaultInjector, poll_interval: float = 1e-3) -> None:
        self.injector = injector
        self.sim = injector.sim
        self.poll_interval = poll_interval
        self.entries: List[_ScheduleEntry] = []
        self._armed = False
        self._cancels: List[Callable[[], None]] = []

    def at(self, time: float, action: Action, *args, label: str = "", **kwargs
           ) -> "FaultSchedule":
        """Arm ``action`` at absolute simulation time ``time`` (chainable)."""
        self.entries.append(_ScheduleEntry("at", time, None, action, args, kwargs,
                                           label or self._describe(action, args)))
        return self

    def after(self, delay: float, action: Action, *args, label: str = "", **kwargs
              ) -> "FaultSchedule":
        """Arm ``action`` ``delay`` seconds after :meth:`arm` is called."""
        self.entries.append(_ScheduleEntry("after", delay, None, action, args, kwargs,
                                           label or self._describe(action, args)))
        return self

    def when(self, predicate: Callable[[], bool], action: Action, *args,
             label: str = "", **kwargs) -> "FaultSchedule":
        """Arm ``action`` to fire once, the first time ``predicate()`` is
        truthy (polled every ``poll_interval`` seconds)."""
        self.entries.append(_ScheduleEntry("when", 0.0, predicate, action, args,
                                           kwargs, label or self._describe(action, args)))
        return self

    @staticmethod
    def _describe(action: Action, args: tuple) -> str:
        name = action if isinstance(action, str) else getattr(action, "__name__", "custom")
        return f"{name}({', '.join(repr(a) for a in args)})"

    def _fire(self, entry: _ScheduleEntry) -> None:
        if entry.fired:
            return
        entry.fired = True
        if isinstance(entry.action, str):
            getattr(self.injector, entry.action)(*entry.args, **entry.kwargs)
        else:
            entry.action(*entry.args, **entry.kwargs)

    def arm(self) -> "FaultSchedule":
        """Schedule every entry on the simulator; call once."""
        if self._armed:
            raise RuntimeError("a FaultSchedule can only be armed once")
        self._armed = True
        for entry in self.entries:
            if entry.when == "at":
                self.sim.schedule_at(entry.time, lambda e=entry: self._fire(e))
            elif entry.when == "after":
                self.sim.schedule(entry.time, lambda e=entry: self._fire(e))
            else:
                self._arm_trigger(entry)
        return self

    def _arm_trigger(self, entry: _ScheduleEntry) -> None:
        def poll() -> None:
            if entry.fired:
                cancel()
                return
            if entry.predicate():
                self._fire(entry)
                cancel()

        cancel = self.sim.every(self.poll_interval, poll, start=self.poll_interval)
        self._cancels.append(cancel)

    def cancel(self) -> None:
        """Stop polling triggers (timed entries that already fired stay fired)."""
        for cancel in self._cancels:
            cancel()
        self._cancels = []
