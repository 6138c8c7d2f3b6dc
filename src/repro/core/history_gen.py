"""Seeded synthetic operation histories, linearizable by construction.

The streaming checker (:mod:`repro.core.history_store`) and the in-memory
checker (:mod:`repro.core.history`) must agree on *every* history, not
just the ones the simulator happens to produce.  This module generates
adversarial concurrent histories with a known ground truth:

* Operations are applied to a sequential register/CAS specification at a
  *linearization instant* drawn inside each operation's real-time window,
  and their responses are taken from that sequential application -- so by
  construction a valid linearization exists and the checkers must say OK.
* ``corruption_rate`` flips completed reads to values that were never
  written, destroying every linearization of the affected key -- so the
  checkers must say NOT OK, and must agree on which keys violate.
* ``timeout_rate`` makes operations ambiguous (lost replies); half of
  those take effect anyway, half never do -- the latitude the checker must
  grant either way.
* Ground-truth versions: each effect on a key's register is version
  ``(1, n)`` of it (the preloaded value is ``(0, 0)``), and every op that
  read or produced one has it noted in ``GeneratedHistory.versions``.  The
  emitted ops stay unversioned, so the spilled bytes do not depend on it;
  a test stamps the versions onto copies to drive the version witness.

Generation is event-driven with bounded memory: per-client clocks advance
monotonically, pending linearization instants sit in a heap, and an
operation is emitted (response filled in) as soon as its instant falls
behind every client's clock -- no future invocation can precede it.  The
generator therefore streams histories of any size (the CI
``verify-at-scale`` job pushes ~1M operations through a spilled run) while
holding only in-flight operations.

Everything is driven by one :class:`random.Random` seed; the same
parameters replay byte-identically.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.history import MISSING, HistoryOp

#: Simulated client-side timeout: ambiguous ops "return" (locally) this
#: long after invocation, with ``timed_out`` set.
TIMEOUT_AFTER = 5.0


def initial_values(keys: int) -> Dict[bytes, Optional[bytes]]:
    """The deterministic preloaded state for a ``keys``-key history."""
    return {_key_name(k): b"init-%d" % k for k in range(keys)}


def _key_name(index: int) -> bytes:
    return b"k%d" % index


@dataclass
class GeneratedHistory:
    """A fully materialized synthetic history plus its ground truth."""

    ops: List[HistoryOp]
    initial: Dict[bytes, Optional[bytes]]
    #: Keys whose reads were corrupted -- exactly the keys a correct
    #: checker must flag (no corruption => linearizable).
    corrupted_keys: List[bytes] = field(default_factory=list)
    #: op id -> the version the op read or produced (absent for a lost op
    #: that never took effect).
    versions: Dict[int, Tuple[int, int]] = field(default_factory=dict)


def iter_history(seed: int, *, clients: int = 4, keys: int = 8,
                 ops: int = 1000, timeout_rate: float = 0.02,
                 corruption_rate: float = 0.0, cas_rate: float = 0.15,
                 delete_rate: float = 0.05,
                 corrupted_keys: Optional[List[bytes]] = None,
                 versions: Optional[Dict[int, Tuple[int, int]]] = None
                 ) -> Iterator[HistoryOp]:
    """Stream a seeded synthetic history, in linearization order.

    Emitted operations have their responses filled in (completed), except
    ambiguous ones which carry ``timed_out``.  Pass ``corrupted_keys`` (a
    list) to collect which keys had a read corrupted, and ``versions`` (a
    dict) to collect each op's ground-truth version.
    """
    rng = random.Random(seed)
    state: Dict[bytes, Optional[bytes]] = dict(initial_values(keys))
    version_of: Dict[bytes, Tuple[int, int]] = dict.fromkeys(state, (0, 0))
    corrupted: set = set()
    # (next-free-time, client-id): pop the earliest-free client each step.
    clocks = [(0.0, c) for c in range(clients)]
    heapq.heapify(clocks)
    # (linearization instant, op_id, op, takes_effect): applied -- response
    # computed against the sequential state -- once every client clock has
    # passed the instant, so no future invocation can be ordered before it.
    pending: List = []
    issued = 0

    def put(key: bytes, value: Optional[bytes]) -> None:
        """One effect on the register: a new value and the next version."""
        if value is MISSING:
            state.pop(key, None)
        else:
            state[key] = value
        version_of[key] = (1, version_of[key][1] + 1)

    def apply(op: HistoryOp, takes_effect: bool) -> None:
        key = op.key
        value = state.get(key, MISSING)
        if op.ambiguous:
            # Lost reply: the response fields stay "timed out"; only the
            # state effect depends on whether the op actually landed.
            if not takes_effect:
                return
            if op.op in ("write", "insert"):
                put(key, op.value)
            elif op.op == "cas" and value == op.expected:
                put(key, op.value)
            elif op.op == "delete":
                put(key, MISSING)
            return
        if op.op == "read":
            if value is MISSING:
                op.ok, op.not_found = False, True
            else:
                op.ok = True
                op.output = value
                if rng.random() < corruption_rate:
                    # A value nobody ever wrote: no linearization survives.
                    op.output = b"corrupt-%d" % op.op_id
                    corrupted.add(key)
        elif op.op == "write":
            if value is MISSING:
                op.ok, op.not_found = False, True
            else:
                op.ok = True
                put(key, op.value)
        elif op.op == "insert":
            op.ok = True
            put(key, op.value)
        elif op.op == "cas":
            if value is MISSING:
                op.ok, op.not_found = False, True
            elif value == op.expected:
                op.ok = True
                put(key, op.value)
            else:
                op.ok, op.cas_failed = False, True
        elif op.op == "delete":
            if value is MISSING:
                op.ok, op.not_found = False, True
            else:
                op.ok = True
                put(key, MISSING)

    def drain(until: float) -> Iterator[HistoryOp]:
        while pending and pending[0][0] <= until:
            _instant, _op_id, op, takes_effect = heapq.heappop(pending)
            apply(op, takes_effect)
            if versions is not None and takes_effect:
                versions[op.op_id] = version_of[op.key]
            yield op

    while issued < ops:
        now, client = heapq.heappop(clocks)
        # Every later invocation happens at >= now: all earlier
        # linearization instants are final and can be applied.
        yield from drain(now)
        key = _key_name(rng.randrange(keys))
        roll = rng.random()
        if roll < cas_rate:
            op_name = "cas"
        elif roll < cas_rate + delete_rate:
            op_name = "delete"
        elif roll < cas_rate + delete_rate + 0.45:
            op_name = "read"
        elif state.get(key, MISSING) is MISSING and rng.random() < 0.8:
            op_name = "insert"
        else:
            op_name = "write"
        value = expected = None
        if op_name in ("write", "insert", "cas"):
            value = b"v%d" % issued  # unique per op: echoes stay decidable
        if op_name == "cas":
            # Mostly propose the value that is actually there (a success),
            # sometimes a value that never was (a clean cas_failed).
            current = state.get(key, MISSING)
            if current is not MISSING and rng.random() < 0.7:
                expected = current
            else:
                expected = b"absent-%d" % issued
        duration = rng.uniform(0.2, 2.0)
        timed_out = rng.random() < timeout_rate
        op = HistoryOp(op_id=issued, client=f"c{client}", op=op_name,
                       key=key, value=value, expected=expected,
                       invoked_at=now)
        if timed_out:
            op.returned_at = now + TIMEOUT_AFTER
            op.ok = False
            op.timed_out = True
            takes_effect = rng.random() < 0.5
            instant = rng.uniform(now, op.returned_at)
        else:
            op.returned_at = now + duration
            takes_effect = True
            instant = rng.uniform(now, op.returned_at)
        heapq.heappush(pending, (instant, op.op_id, op, takes_effect))
        heapq.heappush(clocks,
                       (op.returned_at + rng.uniform(0.05, 0.5), client))
        issued += 1

    yield from drain(float("inf"))
    if corrupted_keys is not None:
        corrupted_keys.extend(sorted(corrupted))


def generate_history(seed: int, **params) -> GeneratedHistory:
    """Materialize one synthetic history with its ground-truth verdict."""
    corrupted: List[bytes] = []
    versions: Dict[int, Tuple[int, int]] = {}
    keys = params.get("keys", 8)
    ops = list(iter_history(seed, corrupted_keys=corrupted, versions=versions, **params))
    return GeneratedHistory(ops=ops, initial=initial_values(keys),
                            corrupted_keys=corrupted, versions=versions)
