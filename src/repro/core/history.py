"""Operation histories and a per-key linearizability checker.

The paper model-checks NetChain's per-key consistency; this module brings
the same obligation to the simulator at full scale: clients driven through
the :class:`repro.core.client.KVClient` protocol log every invocation and
response into a :class:`History`, arbitrary fault schedules run underneath
(:mod:`repro.netsim.faults`), and :func:`check_linearizable` then decides
whether the recorded concurrent history is linearizable per key.

The checker is the Wing & Gong search with Lowe's memoization -- find a
total order of one key's operations that (a) respects real-time order and
(b) steps a sequential register/CAS specification through every response
-- run over *quiescent-cut windows* instead of the whole key.  In
invocation order, a window closes before the first operation invoked
strictly after every *certain* operation in it returned, so everything in
it precedes everything after it and only a window's own operations are
ever permuted: O(n * w) for n operations in windows of w, not O(n^2).
Operations with no definite response (retry exhaustion, still in flight at
the end) are *ambiguous*: they may take effect at any point after their
invocation, or never -- the latitude a lost reply gives a real system --
so they close no window and float across cuts.  What crosses a cut is a
configuration: the register state, the lost cas/delete/insert operations
not yet spent, and the values lost writes and retry echoes can still
impose.  Each configuration is followed into the next window depth-first,
as it is reached; a violation names the deepest window entered.

Lost operations are applied *on demand*.  Offered as ordinary candidates
(the whole-key search this replaced did that) every lost operation still
floating multiplies the states behind each dead end -- 5 states per op on
500 ops of one ``history_gen`` key, 50 on 4,000 -- so the cost would grow
with the stream again.  Two facts make on-demand exact.  *Dominance*: lost
operations are optional and stay available once they are, so what a
configuration can do, the same state with more of them unspent can do too.
*Postponement*: an imposed value, a lost delete and a lost insert apply
from any state, so each can be applied later instead, up to the operation
that observes what it leaves; a lost CAS can wait for as long as the
register holds the value it expects.  Hence a lost operation is spent only
to hand an operation the state it observes (``reach``), or to move a
failed CAS off the value it expected -- the one step where the register
must leave a value and is free where to go, while a lost CAS expecting
that value is spent now or never, so every lost operation that applies
there is tried.  Each branch of the search states which fact it uses;
``tests/test_history_properties.py`` holds the whole-key search as the
differential oracle and a hand-written history per branch.

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
paper's TLA+ spec checks -- is enforced separately, as a scenario
records by :class:`ClientVersions` and afterwards by
:func:`version_violations_of`.

The search runs only on doubt.  The backends report the version each
reply carries, and :class:`VersionWitness` first checks whether that
reported order is itself a linearization; only the keys it cannot vouch
for are searched.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field, replace
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
    #: The version the reply carried (:attr:`KVResult.version`).
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
    record.retries = result.retries
    if record.op == "read" and result.ok:
        record.output = bytes(result.value)
    record.version = result.version


class History:
    """A concurrent history of key-value operations, in invocation order."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.ops: List[HistoryOp] = []
        self._ids = itertools.count()
        self._anonymous_clients = itertools.count(1)
        #: The per-client version check, fed as ops invoke and complete.
        self.versions = ClientVersions()

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

        Keys are canonicalized here, once, by :func:`canonical_key`, so
        every downstream consumer (the checker, :meth:`version_violations`,
        spilled NDJSON runs) sees one spelling.
        """
        record = HistoryOp(op_id=next(self._ids), client=client, op=op,
                           key=canonical_key(key),
                           value=None if value is None else bytes(value),
                           expected=None if expected is None else bytes(expected),
                           invoked_at=self.sim.now)
        self.ops.append(record)
        self.versions.invoke(record)
        return record

    def complete(self, record: HistoryOp, result: KVResult) -> None:
        """Attach the response to a previously recorded invocation."""
        fill_response(record, result, self.sim.now)
        self.versions.complete(record)

    # -- views ----------------------------------------------------------- #

    def per_key(self) -> Dict[bytes, List[HistoryOp]]:
        """Operations grouped by key, in invocation order."""
        grouped: Dict[bytes, List[HistoryOp]] = {}
        for op in self.ops:
            grouped.setdefault(op.key, []).append(op)
        return grouped

    def completed_ops(self) -> List[HistoryOp]:
        return [op for op in self.ops if op.completed]

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
        returning: List[Tuple[float, Tuple[int, int]]] = []  # heap, earlier ops
        settled: tuple = ()  # newest version already returned; () sorts first
        for op in key_ops:
            while returning and returning[0][0] <= op.invoked_at:
                settled = max(settled, heapq.heappop(returning)[1])
            if op.version < settled:
                violations.append(
                    f"{client} observed {key!r} going backwards: "
                    f"{settled} -> {op.version}")
            heapq.heappush(returning, (op.returned_at, op.version))
    return violations


class ClientVersions:
    """:func:`version_violations_of`, fed each op as it is invoked and as it
    completes, O(1) per op: an op's floor is the newest version its client
    got back on its key by its invocation, same-instant returns included.
    Op ids grow in invocation order, as a history assigns them."""

    def __init__(self) -> None:
        #: ``(client, key) -> [newest version, {op id: floor}, time of the
        #: latest invocation, the first op id invoked then]``.
        self._keys: Dict[Tuple[str, bytes], list] = {}
        self.violations: List[str] = []

    def invoke(self, op: HistoryOp) -> None:
        state = self._keys.get((op.client, op.key))
        if state is None:
            state = self._keys[(op.client, op.key)] = [(), {}, None, 0]
        if op.invoked_at != state[2]:
            state[2], state[3] = op.invoked_at, op.op_id
        state[1][op.op_id] = state[0]

    def complete(self, op: HistoryOp) -> None:
        state = self._keys[(op.client, op.key)]
        floors, version = state[1], op.version
        floor = floors.pop(op.op_id)
        if version is not None and op.ok:
            if version < floor:
                self.violations.append(f"{op.client} observed {op.key!r} going "
                                       f"backwards: {floor} -> {version}")
            if version > state[0]:
                state[0] = version
            if op.returned_at == state[2]:  # ops invoked this instant see it too
                for op_id, other in floors.items():
                    if op_id >= state[3] and other < version:
                        floors[op_id] = version


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
    #: Keys the :class:`VersionWitness` decided, so no search ran for them.
    witnessed: int = 0

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


#: In a transition: any state will do / no state to avoid / state unchanged.
_ANY = object()


def _transition(op: HistoryOp):
    """The sequential register/CAS spec of ``op``'s actual response, as data.

    Returns ``(want, avoid, result)``: the op can be linearized at register
    state ``s`` iff ``want in (_ANY, s)`` and ``s != avoid``, and leaves
    ``result`` behind (``s`` itself when ``_ANY``).  An ambiguous op is
    described as if it took effect -- a lost CAS only from a matching state.
    """
    kind = op.op
    if op.ambiguous or op.ok:
        if kind == "read":
            return op.output, _ANY, _ANY
        if kind == "cas":
            return op.expected, _ANY, op.value
        if kind == "delete":
            return _ANY, _ANY, MISSING
        if kind == "write" and not op.ambiguous:
            return _ANY, _ANY, op.value
        if kind in ("write", "insert"):
            return _ANY, _ANY, op.value if op.value is not None else b""
    elif kind == "cas" and op.cas_failed:
        return _ANY, op.expected, _ANY
    elif op.not_found and kind in ("read", "write", "cas", "delete"):
        return MISSING, _ANY, _ANY
    return _ANY, _ANY, _ANY  # other definite errors observe nothing


def check_key_linearizable(ops: List[HistoryOp],
                           initial: Optional[bytes] = MISSING,
                           state_budget: int = 500_000) -> KeyReport:
    """Decide linearizability of one key's operation stream.

    This is the unit of work the streaming pipeline
    (:mod:`repro.core.history_store`) fans out to worker processes: a plain
    list of operations on a single key, order-insensitive (the search sorts
    by invocation time), no :class:`History` required.
    """
    # An unanswered read constrains nothing.
    relevant = [op for op in ops if not (op.ambiguous and op.op == "read")]
    relevant.sort(key=lambda op: (op.invoked_at, op.op_id))
    n = len(relevant)
    report = KeyReport(key=relevant[0].key if relevant else b"", ok=True, ops=n,
                       ambiguous_ops=sum(1 for op in relevant if op.ambiguous))
    #: Values lost writes and retry echoes impose, any number of times (every
    #: retransmission is a fresh write), by the first window inheriting each.
    carried: Dict[Optional[bytes], int] = {}
    #: Lost cas/delete/insert ops as (want, result, op).  They take effect at
    #: most once: a search state's ``floating`` mask says which it still has.
    once: List[Tuple[Any, Any, HistoryOp]] = []
    producers: Dict[Optional[bytes], List[int]] = {}  # result -> indices in once

    # Cut the stream into windows (the rule is in the module docstring).  A
    # window's certain ops get the bits of a search state's ``todo`` mask; its
    # lost writes and retry echoes go to ``local`` and its other lost ops to
    # ``once``, each usable once the certain ops in its guard mask are done.
    windows: List[tuple] = []
    end = 0
    while end < n:
        start, closes, fresh = end, None, 0
        invoked, returned, steps, local, guards = [], [], [], [], {}
        while end < n and (closes is None or relevant[end].invoked_at <= closes):
            op = relevant[end]
            end += 1
            want, _avoid, result = step = _transition(op)
            if not op.ambiguous:
                if closes is None or op.returned_at > closes:
                    closes = op.returned_at
                if op.op == "write" and op.retries > 0:
                    local.append((1 << len(steps), op.value))
                invoked.append(op.invoked_at)
                returned.append(op.returned_at)
                steps.append(step)
                continue
            guard = sum(1 << j for j, at in enumerate(returned) if at < op.invoked_at)
            if op.op == "write":
                local.append((guard, result))
            else:
                guards[len(once)] = guard
                fresh |= 1 << len(once)
                producers.setdefault(result, []).append(len(once))
                once.append((want, result, op))
        for _guard, value in local:
            carried.setdefault(value, len(windows) + 1)
        windows.append(((1 << len(steps)) - 1, fresh, invoked, returned, steps,
                        local, guards, start, end))

    # The two helpers read the search state being expanded from the loop below.
    def imposable(value, todo):
        """Can a lost write or retry echo impose ``value`` in this state?"""
        return (carried.get(value, len(windows)) <= k
                or any(v == value and not todo & guard for guard, v in local))

    def reach(value, todo, floating):
        """Make the register hold ``value``: yields the ``floating`` mask
        left by each way that spends no lost op it does not have to."""
        chains = [(value, floating)]
        while chains:
            value, floating = chains.pop()
            if state == value or imposable(value, todo):
                yield floating
                continue
            tried = set()  # equal lost ops are interchangeable: spend the earliest
            for rank in producers.get(value, ()):
                want = once[rank][0]
                if (floating >> rank & 1 and not todo & guards.get(rank, 0)
                        and want not in tried):
                    tried.add(want)
                    if want is _ANY:
                        yield floating ^ (1 << rank)
                    else:  # a lost CAS: first make the register hold what it expects
                        chains.append((want, floating ^ (1 << rank)))

    # Depth-first over (window, todo, floating, register state), memoized.
    # Lost ops are applied on demand (dominance and postponement, module
    # docstring), so no cut has to forget anything: a value no later read
    # returns is never asked for.
    stack: List[tuple] = [(-1, 0, 0, initial)]
    seen: set = set()
    while stack:
        marker = stack.pop()
        k, todo, floating, state = marker
        while not todo:  # window linearized: carry the configuration over the cut
            k += 1
            if k == len(windows):
                return report
            todo, fresh = windows[k][:2]
            floating |= fresh
            marker = (k, todo, floating, state)
        if marker in seen:
            continue
        seen.add(marker)
        report.states_explored += 1
        if report.states_explored > state_budget:
            report.exhausted = True
            report.message = f"state budget {state_budget} exhausted over {n} operations"
            return report
        invoked, returned, steps, local, guards = windows[k][2:7]
        # Candidates: invoked no later than the earliest return among the
        # ops still to do -- both scans stop early, in invocation order.
        horizon = float("inf")
        rest = todo
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            if invoked[j] > horizon:
                break
            rest ^= low
            horizon = min(horizon, returned[j])
        rest ^= todo
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            if invoked[j] > horizon:
                break
            want, avoid, result = steps[j]
            after = todo ^ low
            if want is not _ANY:
                # Observes ``want``.  Holding it, spending anything first is
                # dominated; otherwise each cheapest way there is a successor.
                for left in (floating,) if state == want else reach(want, todo, floating):
                    stack.append((k, after, left, want if result is _ANY else result))
            elif state != avoid:
                # Objects to nothing here.  Lost ops applied just before it are
                # overwritten if it sets the state and can wait if it does not.
                stack.append((k, after, floating, state if result is _ANY else result))
            else:
                # A failed CAS on exactly the value it expected: the register must
                # leave ``avoid`` first and stays where it went.  The step that
                # leaves is an imposed value -- one stands for all, any other can
                # replace it for free later -- or a lost op applying at ``avoid``;
                # every one is tried, since a lost CAS expecting ``avoid`` cannot
                # be spent once the register has left it.  Further steps can wait.
                moved = next((v for v in [*carried, *(v for _g, v in local)]
                              if v != avoid and imposable(v, todo)), _ANY)
                if moved is not _ANY:
                    stack.append((k, after, floating, moved))
                for rank, (needs, leaves, _op) in enumerate(once):
                    if (floating >> rank & 1 and not todo & guards.get(rank, 0)
                            and needs in (_ANY, avoid) and leaves != avoid):
                        stack.append((k, after, floating ^ (1 << rank), leaves))

    # A violation: name the deepest window entered, which nothing got through.
    report.ok = False
    k = max(marker[0] for marker in seen)
    full, fresh, _invoked, returned, *_rest, start, end = windows[k]
    entries = sorted({(state, floating & ~fresh) for at, todo, floating, state
                      in seen if at == k and todo == full}, key=repr)
    floats = [op.describe() for rank, (_w, _r, op) in enumerate(once)
              if any(floating >> rank & 1 for _state, floating in entries)]
    shown = [op.describe() for op in relevant[start:end][:25]]
    if end - start > 25:
        shown.append(f"... {end - start - 25} more")
    report.message = (
        f"no valid linearization of window [{relevant[start].invoked_at:.6f}, "
        f"{max(returned):.6f}] (ops {start + 1}-{end} of {n}, explored "
        f"{report.states_explored} states) from carried values "
        f"{sorted({state for state, _ in entries}, key=repr)}"
        + (f" with {floats} still floating" if floats else "")
        + "".join(f"\n    {line}" for line in shown))
    return report


# --------------------------------------------------------------------- #
# The version witness.
# --------------------------------------------------------------------- #

#: Older / newer than every reported version.
_OLDEST: tuple = ()
_NEWEST = (float("inf"),)


class _KeyWitness:
    """One key's witness state; the fields are explained where they are set."""

    __slots__ = ("initial", "reason", "ops", "lost_reads", "lost", "floors", "writes", "claims",
                 "echoes", "values", "settled", "before", "stamp", "low", "initial_max", "limit")

    def __init__(self, initial: Optional[bytes]) -> None:
        self.initial = initial
        #: Why the key goes to the search; ``None`` while the witness holds.
        self.reason: Optional[str] = None
        #: Ops invoked, and of those the timed-out reads / other timed-out ops.
        self.ops = self.lost_reads = self.lost = 0
        #: Each outstanding op's floor: the newest version returned before it
        #: was invoked.
        self.floors: Dict[int, tuple] = {}
        #: Outstanding writes' values, and versions credited to them so far.
        self.writes: Dict[int, Optional[bytes]] = {}
        self.claims: Dict[int, List[tuple]] = {}
        #: Per value, the lowest floor of a retried or timed-out write of it.
        self.echoes: Dict[Optional[bytes], tuple] = {}
        #: version -> value, for every version at or above some live floor.
        self.values: Dict[tuple, Optional[bytes]] = {}
        #: The newest version returned, and the newest returned before ``stamp``
        #: (the sim time ``settled`` last rose): an op invoked at ``stamp``
        #: only follows ops that returned strictly earlier.
        self.settled = self.before = _OLDEST
        self.stamp = float("-inf")
        #: Oldest version a write or echo produced; newest credited to ``initial``.
        self.low, self.initial_max = _NEWEST, _OLDEST
        #: ``values`` is pruned when it grows past this.
        self.limit = 64

    def defer(self, reason: str) -> None:
        self.reason = reason
        self.floors = self.writes = self.claims = self.echoes = self.values = {}

    def credit(self, version: tuple, value: Optional[bytes]) -> None:
        """Attribute a version no ok write produced (yet), or defer."""
        if value == self.initial and version < self.low:
            self.initial_max = max(self.initial_max, version)
        elif version <= self.initial_max:
            return self.defer(f"version {version} read {_shown(value)} below "
                              f"{self.initial_max}, which was read as the initial value")
        elif self.echoes.get(value, _NEWEST) < version:
            self.low = min(self.low, version)
        else:
            floors = self.floors
            for op_id, written in self.writes.items():
                if written == value and floors[op_id] < version:
                    self.claims.setdefault(op_id, []).append(version)
                    self.low = min(self.low, version)
                    break
            else:
                return self.defer(
                    f"version {version} read {_shown(value)}, which no write produced")
        self.values[version] = value
        if len(self.values) > self.limit:
            self.prune()

    def fail(self, op: HistoryOp, floor: Optional[tuple]) -> None:
        """An op that is not ok: a timed-out one may have taken effect (a
        write any number of times, above its floor), a definite failure of a
        read or write observed nothing -- unless it says the key is missing."""
        if op.timed_out:
            if floor is None:
                self.lost_reads += 1
            else:
                self.lost += 1
                self.echoes[op.value] = min(self.echoes.get(op.value, _NEWEST), floor)
        elif op.not_found or op.cas_failed:
            self.defer(f"a {op.op} answered {'not_found' if op.not_found else 'cas_failed'}")
        elif op.op_id in self.claims:
            self.defer(f"version {self.claims[op.op_id][0]} read {_shown(op.value)} "
                       f"of a write that failed")

    def prune(self) -> None:
        """Forget the versions below every live floor: an op still to return
        with one of them fails the real-time rule without looking it up."""
        horizon = min(self.floors.values(), default=self.before)
        horizon = min(horizon, self.before)
        self.values = {v: x for v, x in self.values.items() if v >= horizon}
        self.limit = 2 * len(self.values) + 64


class VersionWitness:
    """Per-key linearizability from the versions the backend reports.

    NetChain's head stamps every write with a ``(session, seq)`` version and
    every reply carries the version it read or wrote (the server-hosted
    backends report ``(0, version)``).  Fed each op's invocation and
    completion in time order, the witness checks, per key, that the
    reported order is a linearization:

    (i) one value per version among ok writes;
    (ii) each ok read returns its version's value;
    (iii) real time: no op returns a version older than one already
         returned before it was invoked, and a write's is strictly newer.

    A version no ok write produced is attributed to the initial value when
    it is older than every write version of the key, or to a timed-out,
    still outstanding or retried write of the same value -- the echo
    latitude :func:`check_key_linearizable` grants -- whose floor (the
    newest version returned before it was invoked) it exceeds.  An ok write
    sent once must produce exactly the versions credited to it.  Anything
    else *defers* the key to the search: a CAS, delete or insert, a
    ``not_found`` result, an ok op without a version, or any rule failing.
    Versions on ops that are not ok are ignored (a timed-out NetChain op
    reports ``(0, 0)``).  The witness never rejects: a deferred key gets the
    search's verdict.

    Why a witnessed key is linearizable.  Order the ok ops by version;
    within a version the write (or the echo or initial value credited with
    it) first, then the reads by invocation time.  Each read follows the
    last write before it, whose value it returned by (i) and (ii); a
    version credited to the initial value precedes every write.  If x
    returned before y was invoked, y's version is at least x's by (iii),
    strictly when y is a write, and reads of one version are ordered by
    invocation -- so the order respects real time.  A retried write is
    linearized at the oldest version credited to it, after everything that
    returned before it was invoked (its floor) and before anything invoked
    after it returned (whose versions are at least its own); its other
    versions are echoes after it.  A timed-out or outstanding write applies
    at each credited version and nowhere else, again above its floor.
    Timed-out reads constrain nothing, and ops that failed definitely
    observe nothing and fit anywhere in their window.

    State per key is the outstanding ops, the retried and timed-out writes'
    values, and the versions at or above the oldest outstanding op's floor.
    """

    def __init__(self, initial: Optional[Dict[bytes, Optional[bytes]]] = None) -> None:
        self.initial = {canonical_key(key): value for key, value in (initial or {}).items()}
        self._keys: Dict[bytes, _KeyWitness] = {}

    def invoke(self, op: HistoryOp) -> None:
        state = self._keys.get(op.key)
        if state is None:
            state = self._keys[op.key] = _KeyWitness(self.initial.get(op.key, MISSING))
        elif state.reason is not None:
            return
        state.ops += 1
        kind = op.op
        if kind == "write":
            state.writes[op.op_id] = op.value
        elif kind != "read":
            return state.defer(f"a {kind}, which the witness does not order")
        state.floors[op.op_id] = state.before if op.invoked_at == state.stamp else state.settled

    def complete(self, op: HistoryOp) -> None:
        state = self._keys[op.key]
        floor = state.floors.pop(op.op_id, None)
        if floor is None:  # deferred (or completed twice)
            return
        version = op.version
        if op.op == "read":
            if not op.ok:
                return state.fail(op, None)
            if version is None or version < floor:
                return state.defer("an ok read without a version" if version is None
                                   else f"read went back {floor} -> {version}")
            value = op.output
            known = state.values.get(version, _NEWEST)
            if known != value:
                if known is not _NEWEST:
                    return state.defer(
                        f"version {version} read {_shown(value)}, not {_shown(known)}")
                state.credit(version, value)
                if state.reason is not None:
                    return
        else:
            value = state.writes.pop(op.op_id)
            if not op.ok:
                return state.fail(op, floor)
            if version is None or version <= floor:
                return state.defer("an ok write without a version" if version is None
                                   else f"write went back {floor} -> {version}")
            if version <= state.initial_max:
                return state.defer(f"write version {version} is not newer than "
                                   f"{state.initial_max}, read as the initial value")
            values = state.values
            known = values.get(version, value)
            if known != value:
                return state.defer(f"version {version} has two values, "
                                   f"{_shown(known)} and {_shown(value)}")
            values[version] = value
            if version < state.low:
                state.low = version
            if op.retries:
                state.echoes[value] = min(state.echoes.get(value, _NEWEST), floor)
            if op.op_id in state.claims:
                for other in state.claims.pop(op.op_id):
                    if other != version and not op.retries:
                        return state.defer(f"version {other} read {_shown(value)} of a write "
                                           f"sent once, as {version}")
            if len(values) > state.limit:
                state.prune()
        if version > state.settled:
            if op.returned_at != state.stamp:
                state.before, state.stamp = state.settled, op.returned_at
            state.settled = version

    def feed(self, ops: Iterable[HistoryOp]) -> None:
        """Feed finished ops (one key's, or a whole history's) in time
        order: at equal times invocations first, so an op invoked as
        another returns does not count as following it."""
        events = []
        for index, op in enumerate(ops):
            events.append((op.invoked_at, 0, index, op))
            if op.returned_at is not None:
                events.append((op.returned_at, 1, index, op))
        events.sort()
        invoke, complete = self.invoke, self.complete
        for _at, kind, _index, op in events:
            if kind:
                complete(op)
            else:
                invoke(op)

    def decide(self, key: bytes) -> Tuple[Optional[KeyReport], str]:
        """The key's verdict: a :class:`KeyReport` when witnessed, else
        ``None`` and why it needs the search."""
        state = self._keys.get(key)
        if state is None:
            return None, "no operations"
        if state.reason is not None:
            return None, state.reason
        pending_reads = len(state.floors) - len(state.writes)
        return KeyReport(key=key, ok=True,
                         ops=state.ops - state.lost_reads - pending_reads,
                         ambiguous_ops=state.lost + len(state.writes)), ""


def _shown(value: Optional[bytes]) -> str:
    """A value as a witness reason spells it: its first 16 bytes."""
    return repr(value) if value is None or len(value) <= 16 else f"{value[:16]!r}..."


def witness_key(ops: List[HistoryOp],
                initial: Optional[bytes] = MISSING) -> Tuple[Optional[KeyReport], str]:
    """One key's ops through a fresh :class:`VersionWitness`
    (:meth:`VersionWitness.decide`'s answer).  An op no order can vouch
    for -- a CAS, delete or insert, an ok op without a version -- defers
    the key before its ops are sorted (the objection named may then be a
    later one than the witness fed in time order would name)."""
    if not ops:
        return None, "no operations"
    for op in ops:
        if op.op != "read" and op.op != "write":
            return None, f"a {op.op}, which the witness does not order"
        if op.ok and op.version is None:
            return None, f"an ok {op.op} without a version"
    witness = VersionWitness({ops[0].key: initial})
    witness.feed(ops)
    return witness.decide(ops[0].key)


def searched(report: KeyReport, reason: str) -> KeyReport:
    """A search verdict on a key the witness deferred: a violation names the
    witness's objection (where the reported order and real time part) first."""
    if report.ok or not reason:
        return report
    return replace(report, message=f"{reason}; {report.message}")


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

    Each key's ops go through the :class:`VersionWitness` first and through
    :func:`check_key_linearizable` only when it defers.

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
        verdict, reason = witness_key(ops, initial.get(key, MISSING))
        if verdict is not None:
            report.witnessed += 1
        else:
            verdict = searched(check_key_linearizable(
                ops, initial.get(key, MISSING), state_budget), reason)
        report.keys[key] = verdict
    report.ok = not report.violations()
    return report
