"""Operation histories and a per-key linearizability checker.

The paper model-checks NetChain's per-key consistency; this module brings
the same obligation to the simulator at full scale: clients driven through
the :class:`repro.core.client.KVClient` protocol log every invocation and
response into a :class:`History`, arbitrary fault schedules run underneath
(:mod:`repro.netsim.faults`), and :func:`check_linearizable` then decides
whether the recorded concurrent history is linearizable per key.

The checker is the Wing & Gong algorithm with Lowe's memoization: search
for a total order of the operations on one key that (a) respects real-time
order -- an operation that returned before another was invoked must be
ordered first -- and (b) steps a sequential register/CAS specification
through every response.  Operations that never produced a definite
response (client-side retry exhaustion, still in flight at the end of the
run) are *ambiguous*: the search may linearize them at any point after
their invocation or drop them entirely, which is exactly the latitude a
lost-reply gives a real system.

One refinement matches NetChain's retry protocol (Section 4.3: clients
retry over UDP and "because writes are idempotent, retrying is benign").
Every retransmission of a write is re-sequenced by the chain head as a
fresh version, so a single client-visible write operation can take effect
*several times*, interleaved with other writers -- the stored value can
legitimately oscillate A, B, A while versions only grow.  The spec
therefore lets a retried write (``retries > 0``) re-impose its value after
its linearization point ("echo"), and an ambiguous write apply any number
of times.  Single-transmission writes (``retries == 0``) keep the strict
exactly-once semantics, and version monotonicity -- the property the
paper's TLA+ spec checks -- is enforced separately by
:meth:`History.version_violations`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.client import KVClient, KVFuture, KVResult, canonical_key

#: Sentinel state for "the key does not exist".
MISSING = None


@dataclass
class HistoryOp:
    """One invocation/response pair (response fields empty until completed)."""

    op_id: int
    client: str
    op: str  # "read" | "write" | "cas" | "delete" | "insert"
    key: bytes
    #: Written value (write/insert) or proposed new value (cas).
    value: Optional[bytes] = None
    #: Expected value for cas.
    expected: Optional[bytes] = None
    invoked_at: float = 0.0
    returned_at: Optional[float] = None
    ok: Optional[bool] = None
    #: Value observed by a read (empty for other ops).
    output: Optional[bytes] = None
    not_found: bool = False
    cas_failed: bool = False
    timed_out: bool = False
    #: Client-side retransmissions of this op (NetChain's UDP retries).
    retries: int = 0
    #: (session, seq) when the backend exposes versions (NetChain).
    version: Optional[Tuple[int, int]] = None

    @property
    def completed(self) -> bool:
        return self.returned_at is not None

    @property
    def ambiguous(self) -> bool:
        """No definite response: the op may or may not have taken effect."""
        if not self.completed:
            return True
        return bool(self.timed_out)

    def describe(self) -> str:
        outcome = "pending"
        if self.completed:
            if self.timed_out:
                outcome = "timeout"
            elif self.ok:
                outcome = f"ok<-{self.output!r}" if self.op == "read" else "ok"
            elif self.cas_failed:
                outcome = "cas_failed"
            elif self.not_found:
                outcome = "not_found"
            else:
                outcome = "error"
        window = (f"[{self.invoked_at:.6f}, "
                  f"{self.returned_at:.6f}]" if self.completed else
                  f"[{self.invoked_at:.6f}, ...]")
        detail = ""
        if self.op in ("write", "insert"):
            detail = f"({self.value!r})"
        elif self.op == "cas":
            detail = f"({self.expected!r} -> {self.value!r})"
        return f"{self.client} {self.op}{detail} {window} {outcome}"


def fill_response(record: HistoryOp, result: KVResult, now: float) -> None:
    """Copy a backend response into its invocation record: the one
    result -> record mapping every recording surface shares."""
    record.returned_at = now
    record.ok = bool(result.ok)
    record.not_found = bool(result.not_found)
    record.cas_failed = bool(result.cas_failed)
    record.timed_out = bool(result.timed_out)
    record.retries = int(getattr(result, "retries", 0) or 0)
    if record.op == "read" and result.ok:
        record.output = bytes(result.value)
    raw = result.raw
    if raw is not None and hasattr(raw, "session") and hasattr(raw, "seq"):
        record.version = (raw.session, raw.seq)
    elif raw is not None and hasattr(raw, "version") and result.ok:
        record.version = (0, raw.version)


class History:
    """A concurrent history of key-value operations, in invocation order."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.ops: List[HistoryOp] = []
        self._ids = itertools.count()
        self._anonymous_clients = itertools.count(1)

    def anonymous_client_name(self) -> str:
        """A deterministic name for a client that did not pick one.

        Names derived from ``id()`` differ between processes, which makes
        recorded histories of identical runs diff dirty; a per-history
        counter is stable across replays.
        """
        return f"client-{next(self._anonymous_clients):04d}"

    # -- recording ------------------------------------------------------- #

    def invoke(self, client: str, op: str, key, value=None, expected=None) -> HistoryOp:
        """Record an invocation; returns the record to complete later.

        Keys are canonicalized here, once, by :func:`canonical_key`: a
        padded wire spelling and the original string land in the same
        per-key stream, and every downstream consumer (the checker,
        :meth:`version_violations`, spilled NDJSON runs) sees one spelling.
        """
        record = HistoryOp(op_id=next(self._ids), client=client, op=op,
                           key=canonical_key(key),
                           value=None if value is None else bytes(value),
                           expected=None if expected is None else bytes(expected),
                           invoked_at=self.sim.now)
        self.ops.append(record)
        return record

    def complete(self, record: HistoryOp, result: KVResult) -> None:
        """Attach the response to a previously recorded invocation."""
        fill_response(record, result, self.sim.now)

    # -- views ----------------------------------------------------------- #

    def per_key(self) -> Dict[bytes, List[HistoryOp]]:
        """Operations grouped by key, in invocation order."""
        grouped: Dict[bytes, List[HistoryOp]] = {}
        for op in self.ops:
            grouped.setdefault(op.key, []).append(op)
        return grouped

    def completed_ops(self) -> List[HistoryOp]:
        return [op for op in self.ops if op.completed]

    def pending_ops(self) -> List[HistoryOp]:
        return [op for op in self.ops if not op.completed]

    def __len__(self) -> int:
        return len(self.ops)

    # -- checks ---------------------------------------------------------- #

    def check(self, initial: Optional[Dict[bytes, Optional[bytes]]] = None,
              state_budget: int = 500_000) -> "LinearizabilityReport":
        """Run :func:`check_linearizable` over this history."""
        return check_linearizable(self, initial=initial, state_budget=state_budget)

    def version_violations(self) -> List[str]:
        """Per-(client, key) monotonicity of backend-reported versions.

        See :func:`version_violations_of`; this is that check over the
        in-memory operation list.
        """
        return version_violations_of(self.ops)


def version_violations_of(ops: Iterable[HistoryOp]) -> List[str]:
    """Per-(client, key) monotonicity of backend-reported versions.

    This is the TLA+ ``Consistency`` property over a recorded history (a
    cheap necessary condition that complements the full linearizability
    search when versions are available).  Only real-time-ordered
    observations are compared: an operation that *overlapped* another
    (pipelined slots of one client) may observe an older version without
    any inconsistency, exactly as two overlapping ops may linearize in
    either order.

    Accepts any operation iterator -- the in-memory list of a
    :class:`History` or the record stream of a spilled NDJSON run -- and
    never re-encodes keys: grouping uses the canonical spelling fixed at
    record time.
    """
    grouped: Dict[Tuple[str, bytes], List[HistoryOp]] = {}
    for op in ops:
        if op.version is None or not op.ok or not op.completed:
            continue
        grouped.setdefault((op.client, op.key), []).append(op)
    violations: List[str] = []
    for (client, key), key_ops in grouped.items():
        key_ops.sort(key=lambda op: op.invoked_at)
        for i, op in enumerate(key_ops):
            settled = [prev.version for prev in key_ops[:i]
                       if prev.returned_at <= op.invoked_at]
            if settled and op.version < max(settled):
                violations.append(
                    f"{client} observed {key!r} going backwards: "
                    f"{max(settled)} -> {op.version}")
    return violations


class RecordingClient(KVClient):
    """A :class:`KVClient` decorator that logs every op into a history.

    Wrap any backend client; the returned futures are the backend's own,
    with the history completion registered as the first callback.
    """

    def __init__(self, inner: KVClient, history: History,
                 name: Optional[str] = None) -> None:
        self.inner = inner
        self.history = history
        self.sim = inner.sim
        self.backend = inner.backend
        self.name = name or history.anonymous_client_name()

    def _recorded(self, op: str, key, *args, value=None, expected=None) -> KVFuture:
        """Record the invocation, then submit ``inner.<op>(key, *args)``."""
        record = self.history.invoke(self.name, op, key, value=value,
                                     expected=expected)
        return getattr(self.inner, op)(key, *args).then(
            lambda result: self.history.complete(record, result))

    def read(self, key) -> KVFuture:
        return self._recorded("read", key)

    def write(self, key, value) -> KVFuture:
        return self._recorded("write", key, value, value=value)

    def cas(self, key, expected, new_value) -> KVFuture:
        return self._recorded("cas", key, expected, new_value,
                              value=new_value, expected=expected)

    def delete(self, key) -> KVFuture:
        return self._recorded("delete", key)

    def insert(self, key, value=b"") -> KVFuture:
        return self._recorded("insert", key, value, value=value)


# --------------------------------------------------------------------- #
# The checker.
# --------------------------------------------------------------------- #

@dataclass
class KeyReport:
    """Linearizability verdict for one key."""

    key: bytes
    ok: bool
    ops: int
    ambiguous_ops: int
    states_explored: int = 0
    #: The search ran out of its state budget before deciding; ``ok`` is
    #: then vacuously true and tests should assert ``not exhausted``.
    exhausted: bool = False
    message: str = ""


@dataclass
class LinearizabilityReport:
    """Aggregate verdict over every key of a history."""

    ok: bool
    keys: Dict[bytes, KeyReport] = field(default_factory=dict)
    total_ops: int = 0
    #: Keys whose verdict came out of a memoized verdict cache instead of a
    #: fresh search (streaming checker only; see
    #: :func:`repro.core.history_store.check_linearizable_streaming`).
    cache_hits: int = 0

    def violations(self) -> List[KeyReport]:
        return [report for report in self.keys.values() if not report.ok]

    def exhausted_keys(self) -> List[KeyReport]:
        return [report for report in self.keys.values() if report.exhausted]

    def summary(self) -> str:
        bad = self.violations()
        if not bad:
            return (f"linearizable: {len(self.keys)} keys, "
                    f"{self.total_ops} operations")
        lines = [f"NOT linearizable: {len(bad)}/{len(self.keys)} keys violate"]
        for report in bad[:5]:
            lines.append(f"  key {report.key!r}: {report.message}")
        return "\n".join(lines)


_FAIL = object()


def _step(op: HistoryOp, state: Optional[bytes]):
    """Step the sequential register/CAS spec with ``op``'s actual response.

    Returns the new state, or ``_FAIL`` when the response is impossible
    from ``state``.
    """
    if op.op == "read":
        if op.ok:
            return state if op.output == state else _FAIL
        if op.not_found:
            return state if state is MISSING else _FAIL
        return state  # reads with other definite errors observe nothing
    if op.op == "write":
        if op.ok:
            return op.value
        if op.not_found:
            return state if state is MISSING else _FAIL
        return state
    if op.op == "cas":
        if op.ok:
            return op.value if state == op.expected else _FAIL
        if op.cas_failed:
            return state if state != op.expected else _FAIL
        if op.not_found:
            return state if state is MISSING else _FAIL
        return state
    if op.op == "delete":
        if op.ok:
            return MISSING
        if op.not_found:
            return state if state is MISSING else _FAIL
        return state
    if op.op == "insert":
        if op.ok:
            return op.value if op.value is not None else b""
        return state
    return state


def _step_ambiguous_success(op: HistoryOp, state: Optional[bytes]):
    """State transition if an ambiguous (lost-reply) op *did* take effect."""
    if op.op == "read":
        return state
    if op.op in ("write", "insert"):
        return op.value if op.value is not None else b""
    if op.op == "cas":
        # A lost CAS took effect only if it would have succeeded.
        return op.value if state == op.expected else _FAIL
    if op.op == "delete":
        return MISSING
    return state


def _check_key(ops: List[HistoryOp], initial: Optional[bytes],
               state_budget: int) -> KeyReport:
    key = ops[0].key if ops else b""
    has_cas = any(op.op == "cas" for op in ops)
    observed = {op.output for op in ops
                if op.op == "read" and op.completed and op.ok}
    relevant: List[HistoryOp] = []
    for op in ops:
        if op.ambiguous and op.op == "read":
            continue  # an unanswered read constrains nothing
        if (op.ambiguous and op.op == "write" and not has_cas
                and op.value not in observed):
            # A lost write whose value no completed read ever returned can
            # always be linearized as "never took effect": with unique
            # values and no CAS on the key, applying it could only be
            # observed through a read of its value, and there is none.
            # Dropping these up front keeps the search polynomial even
            # when an outage times out hundreds of writes.
            continue
        relevant.append(op)
    ambiguous_count = sum(1 for op in relevant if op.ambiguous)
    n = len(relevant)
    report = KeyReport(key=key, ok=True, ops=n, ambiguous_ops=ambiguous_count)
    if n == 0:
        return report

    relevant.sort(key=lambda op: (op.invoked_at, op.op_id))
    invoked = [op.invoked_at for op in relevant]
    returned = [op.returned_at if not op.ambiguous else float("inf")
                for op in relevant]
    full_mask = (1 << n) - 1
    certain_mask = 0
    for i, op in enumerate(relevant):
        if not op.ambiguous:
            certain_mask |= 1 << i
    #: Certain retried writes may "echo" (re-impose their value through a
    #: straggler retransmission) after their linearization point.  Echoes
    #: of values no read observed are invisible (without CAS) and pruned.
    echoes: List[Tuple[int, Optional[bytes]]] = [
        (1 << i, op.value) for i, op in enumerate(relevant)
        if (not op.ambiguous and op.op == "write" and op.retries > 0
            and (has_cas or op.value in observed))]
    seen: set = set()
    explored = 0

    # Iterative depth-first search over (remaining-ops bitmask, state).
    # Ambiguous ops (lost replies) may take effect at any point after their
    # invocation -- several times for writes, since every retry is a fresh
    # application -- or never; "never" is canonicalized by simply leaving
    # them in the mask: their return time is +inf, so they never constrain
    # another op's candidacy, and a mask holding only ambiguous ops is a
    # completed linearization.  This avoids branching on explicit drops,
    # which would blow the state space up exponentially in the number of
    # timed-out operations.
    def candidates_for(mask: int) -> List[int]:
        remaining = [i for i in range(n) if mask & (1 << i)]
        horizon = min(returned[i] for i in remaining)
        return [i for i in remaining if invoked[i] <= horizon]

    def successors(index: int, mask: int, state) -> List[Tuple[int, Any]]:
        op = relevant[index]
        outcomes = []
        if op.ambiguous:
            applied = _step_ambiguous_success(op, state)
            if applied is not _FAIL:
                if op.op == "write":
                    # Zero-or-more applications: stays in the mask so it can
                    # re-apply; success ignores ambiguous ops anyway.
                    outcomes.append((mask, applied))
                else:
                    outcomes.append((mask & ~(1 << index), applied))
        else:
            stepped = _step(op, state)
            if stepped is not _FAIL:
                outcomes.append((mask & ~(1 << index), stepped))
        return outcomes

    stack: List[List[Any]] = [[full_mask, initial]]
    while stack:
        mask, state = stack.pop()
        if mask & certain_mask == 0:
            report.states_explored = explored
            return report
        marker = (mask, state)
        if marker in seen:
            continue
        seen.add(marker)
        explored += 1
        if explored > state_budget:
            report.exhausted = True
            report.states_explored = explored
            report.message = (f"state budget {state_budget} exhausted over "
                              f"{n} operations")
            return report
        for index in candidates_for(mask):
            for next_mask, next_state in successors(index, mask, state):
                stack.append([next_mask, next_state])
        for bit, value in echoes:
            # A straggler retry of an already linearized retried write.
            if not (mask & bit) and state != value:
                stack.append([mask, value])

    report.ok = False
    report.states_explored = explored
    shown = "\n    ".join(op.describe() for op in relevant[:25])
    more = f"\n    ... {n - 25} more" if n > 25 else ""
    report.message = (f"no valid linearization of {n} operations "
                      f"(explored {explored} states):\n    {shown}{more}")
    return report


def check_key_linearizable(ops: List[HistoryOp],
                           initial: Optional[bytes] = MISSING,
                           state_budget: int = 500_000) -> KeyReport:
    """Decide linearizability of one key's operation stream.

    This is the unit of work the streaming pipeline
    (:mod:`repro.core.history_store`) fans out to worker processes: a plain
    list of operations on a single key, order-insensitive (the search sorts
    by invocation time), no :class:`History` required.
    """
    return _check_key(list(ops), initial, state_budget)


def group_ops_by_key(ops: Iterable[HistoryOp]) -> Dict[bytes, List[HistoryOp]]:
    """Group an operation iterator per key, preserving encounter order.

    Keys are grouped exactly as recorded -- normalization happened once at
    record time (:meth:`History.invoke` / the NDJSON loader), so the
    grouping never re-encodes.
    """
    grouped: Dict[bytes, List[HistoryOp]] = {}
    for op in ops:
        grouped.setdefault(op.key, []).append(op)
    return grouped


def check_linearizable(history,
                       initial: Optional[Dict[bytes, Optional[bytes]]] = None,
                       state_budget: int = 500_000) -> LinearizabilityReport:
    """Decide per-key linearizability of a recorded history.

    Args:
        history: the recorded invocations/responses -- a :class:`History`,
            anything exposing ``per_key()``, or a plain iterable of
            :class:`HistoryOp` (the op-iterator form the spilled-NDJSON
            pipeline loads fixtures and run directories into).
        initial: starting value per (canonical) key; keys absent from the
            mapping start as missing.  Populated deployments pass ``b""``
            (or the loaded value) for every preloaded key.
        state_budget: cap on search states per key; exceeding it marks the
            key ``exhausted`` instead of deciding.
    """
    initial = {canonical_key(key): value
               for key, value in (initial or {}).items()}
    if hasattr(history, "per_key"):
        grouped = history.per_key()
        total = len(history)
    else:
        grouped = group_ops_by_key(history)
        total = sum(len(ops) for ops in grouped.values())
    report = LinearizabilityReport(ok=True, total_ops=total)
    for key, ops in grouped.items():
        key_report = _check_key(ops, initial.get(key, MISSING), state_budget)
        report.keys[key] = key_report
        if not key_report.ok:
            report.ok = False
    return report
