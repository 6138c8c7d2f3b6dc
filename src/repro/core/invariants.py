"""Executable correctness invariants (Section 4.5 and the TLA+ appendix).

The paper proves NetChain's per-key consistency by model-checking two
properties; this module provides the same checks as runtime assertions so
that unit, integration and property-based tests can verify them on the
simulated system after arbitrary interleavings of queries, losses,
reorderings and failures:

* **Invariant 1 / UpdatePropagation** -- for any key assigned to a chain
  ``[S1..Sn]``, an upstream switch's stored version is at least the
  downstream switch's version.
* **Consistency** -- a client only ever observes versions of a key with
  non-decreasing ``(session, seq)`` tags, even across failover and recovery.
* **Value agreement** -- two replicas holding the same version of a key hold
  the same value (a sanity property implied by the protocol).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.client import canonical_key
from repro.core.kvstore import SwitchKVStore


class InvariantViolation(AssertionError):
    """Raised when a correctness invariant does not hold."""


def chain_versions(stores: Sequence[SwitchKVStore], key) -> List[Optional[Tuple[int, int]]]:
    """The (session, seq) version of ``key`` on each chain switch, head first.

    ``None`` marks switches that do not hold the key (e.g. not yet synced).
    """
    raw = canonical_key(key)
    versions: List[Optional[Tuple[int, int]]] = []
    for store in stores:
        item = store.read(raw)
        versions.append(None if item is None else item.version())
    return versions


def check_chain_invariant(stores: Sequence[SwitchKVStore], keys: Iterable,
                          raise_on_violation: bool = True) -> List[str]:
    """Check Invariant 1 for every key over an ordered chain of stores.

    Args:
        stores: the per-switch stores in chain order (head first).
        keys: keys to check.
        raise_on_violation: raise :class:`InvariantViolation` on the first
            violation instead of collecting them.

    Returns:
        A list of human-readable violation descriptions (empty when the
        invariant holds).
    """
    violations: List[str] = []
    for key in keys:
        versions = chain_versions(stores, key)
        present = [(i, v) for i, v in enumerate(versions) if v is not None]
        for (i, vi), (j, vj) in zip(present, present[1:], strict=False):
            if vi < vj:
                message = (f"Invariant 1 violated for key {key!r}: "
                           f"position {i} has version {vi} < position {j} version {vj}")
                if raise_on_violation:
                    raise InvariantViolation(message)
                violations.append(message)
    return violations


def check_value_agreement(stores: Sequence[SwitchKVStore], keys: Iterable,
                          raise_on_violation: bool = True) -> List[str]:
    """Replicas that share a key's version must share its value."""
    violations: List[str] = []
    for key in keys:
        raw = canonical_key(key)
        by_version: Dict[Tuple[int, int], bytes] = {}
        for store in stores:
            item = store.read(raw)
            if item is None or not item.valid:
                continue
            version = item.version()
            if version in by_version and by_version[version] != item.value:
                message = (f"replicas disagree on key {key!r} at version {version}: "
                           f"{by_version[version]!r} vs {item.value!r}")
                if raise_on_violation:
                    raise InvariantViolation(message)
                violations.append(message)
            by_version.setdefault(version, item.value)
    return violations


def sample_chain_invariants(controller, raise_on_violation: bool = True) -> List[str]:
    """Check Invariant 1 and value agreement over every virtual group.

    Intended as a whole-system sample at fault boundaries: the fault
    injector calls this (through an observer) every time it fires an event,
    so a schedule that breaks the chain protocol is caught at the moment of
    the fault rather than at the end of the run.  Failed switches and
    not-yet-spliced replacements are excluded, matching what clients can
    observe.
    """
    violations: List[str] = []
    for vgroup, info in controller.chain_table.items():
        keys = controller.keys_by_vgroup.get(vgroup)
        if not keys:
            continue
        stores = [controller.stores[name] for name in info.switches
                  if name not in controller.failed_switches
                  and name in controller.stores]
        if len(stores) < 2:
            continue
        violations.extend(check_chain_invariant(stores, keys,
                                                raise_on_violation=raise_on_violation))
        violations.extend(check_value_agreement(stores, keys,
                                                raise_on_violation=raise_on_violation))
    return violations


def invariant_observer(controller, violations: Optional[List[str]] = None):
    """An observer for :attr:`repro.netsim.faults.FaultInjector.observers`
    that samples the chain invariants at every fault event.

    When ``violations`` is given, findings are collected there instead of
    raising, so tests can assert emptiness after the run.
    """
    raise_on_violation = violations is None

    def observe(_event) -> None:
        found = sample_chain_invariants(controller,
                                        raise_on_violation=raise_on_violation)
        if violations is not None:
            violations.extend(found)

    return observe


@dataclass
class ClientObservationChecker:
    """Tracks the versions a client observes and enforces monotonicity.

    This is the ``Consistency`` safety property of the TLA+ specification:
    ``prevKVs[k].version <= currentKVs[k].version`` for every observation.
    Feed it every successful read/write reply a client receives.
    """

    raise_on_violation: bool = True
    last_seen: Dict[bytes, Tuple[int, int]] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    observations: int = 0

    def observe(self, key, session: int, seq: int) -> bool:
        """Record an observed version; returns ``True`` if it is consistent."""
        raw = canonical_key(key)
        version = (session, seq)
        previous = self.last_seen.get(raw)
        self.observations += 1
        if previous is not None and version < previous:
            message = (f"client observed key {key!r} going backwards: "
                       f"{previous} -> {version}")
            if self.raise_on_violation:
                raise InvariantViolation(message)
            self.violations.append(message)
            return False
        self.last_seen[raw] = version
        return True

    def observe_result(self, result) -> bool:
        """Observe the version a :class:`~repro.core.client.KVResult` carries."""
        if not result.ok:
            return True
        return self.observe(result.key, *result.version)

    def ok(self) -> bool:
        """Whether no violation has been recorded."""
        return not self.violations
