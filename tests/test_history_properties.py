"""Property tests: window checker ≡ whole-key search ≡ brute force.

Independent implementations must agree on every history:

* :func:`repro.core.history.check_linearizable` -- the quiescent-cut
  window search over in-memory per-key lists;
* :func:`repro.core.history_store.check_linearizable_streaming` -- the
  same per-key search driven over spilled NDJSON per-key streams;
* :func:`reference_whole_key_check` (below) -- the whole-key Wing & Gong
  search the window checker replaced, kept verbatim with its own copy of
  the sequential spec: the oracle for everything, retry echoes included;
* a brute-force permutation search (below) with no memoization and no
  pruning, feasible for tiny histories without echoes.

Histories come from the seeded generator
(:mod:`repro.core.history_gen`), which produces concurrent histories that
are linearizable by construction -- and, with ``corruption_rate``, flips
read outputs so exactly the corrupted keys must be rejected -- and from
hypothesis, which perturbs those (retried writes, reads moved onto echoed
and lost values) and also draws small histories over a three-value
alphabet where every response is arbitrary.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Any, List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.history import (
    MISSING,
    HistoryOp,
    KeyReport,
    check_key_linearizable,
    check_linearizable,
    group_ops_by_key,
)
from repro.core.history_gen import generate_history
from repro.core.history_store import HistoryStore, HistoryWriter, check_linearizable_streaming

# --------------------------------------------------------------------- #
# The reference: the parent commit's sequential spec and whole-key search.
# --------------------------------------------------------------------- #

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


def reference_whole_key_check(ops: List[HistoryOp], initial: Optional[bytes],
                              state_budget: int = 500_000) -> KeyReport:
    """The whole-key bitmask search this repo shipped before the window
    checker, verbatim: the differential oracle, and the only one that
    knows retry echoes."""
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


def brute_force_key_ok(ops: List[HistoryOp], initial: Optional[bytes],
                       ) -> bool:
    """Exhaustive linearization search for one key's tiny history.

    Mirrors the checker's semantics for non-retried histories: certain
    operations apply exactly once in an order respecting real-time
    precedence; ambiguous (lost-reply) reads constrain nothing; ambiguous
    writes may apply any number of times (capped at ``n + 1`` -- more
    applications than distinct intervening states cannot matter);
    ambiguous CAS/delete/insert apply at most once, and a CAS only from a
    matching state.  No Lowe memoization of the *search order*, no
    relevance pruning -- only a visited set over exact configurations so
    revisiting the identical (state, remaining, counts) triple is not
    re-explored, which changes nothing about what is searched.  Feasible
    only because the histories are <= 7 operations.
    """
    assert all(op.retries == 0 for op in ops), \
        "echo semantics are out of scope for the brute-force model"
    certain = [op for op in ops if not op.ambiguous]
    ambiguous = [op for op in ops if op.ambiguous and op.op != "read"]
    budget = len(ops) + 1
    visited = set()

    def horizon(remaining: Tuple[int, ...]) -> float:
        return min((certain[i].returned_at for i in remaining),
                   default=float("inf"))

    def search(state, remaining: Tuple[int, ...],
               amb_counts: Tuple[int, ...]) -> bool:
        if not remaining:
            return True
        marker = (state, remaining, amb_counts)
        if marker in visited:
            return False
        visited.add(marker)
        limit = horizon(remaining)
        for i in remaining:
            if certain[i].invoked_at <= limit:
                stepped = _step(certain[i], state)
                if stepped is not _FAIL and search(
                        stepped, tuple(j for j in remaining if j != i),
                        amb_counts):
                    return True
        for j, count in enumerate(amb_counts):
            if count == 0 or ambiguous[j].invoked_at > limit:
                continue
            applied = _step_ambiguous_success(ambiguous[j], state)
            if applied is _FAIL:
                continue
            next_counts = tuple(
                (count - 1 if k == j else c)
                if ambiguous[k].op in ("write", "insert") else
                (0 if k == j else c)
                for k, c in enumerate(amb_counts))
            if search(applied, remaining, next_counts):
                return True
        return False

    return search(initial, tuple(range(len(certain))),
                  tuple(budget for _ in ambiguous))


def spill(tmp_path, ops, tag: str) -> HistoryStore:
    run_dir = tmp_path / tag
    with HistoryWriter(run_dir) as writer:
        for op in ops:
            writer.append(op)
    return HistoryStore(run_dir)


# Seed ranges per regime: 300 clean + 120 corrupted + 80 timeout-heavy =
# 500 randomized histories, every one checked by both implementations.
REGIMES = [
    ("clean", range(0, 300),
     dict(clients=3, keys=3, ops=40, timeout_rate=0.05)),
    ("corrupted", range(1000, 1120),
     dict(clients=3, keys=3, ops=40, timeout_rate=0.05,
          corruption_rate=0.08)),
    ("timeout-heavy", range(2000, 2080),
     dict(clients=4, keys=2, ops=30, timeout_rate=0.35)),
]


@pytest.mark.parametrize("name,seeds,params", REGIMES,
                         ids=[regime[0] for regime in REGIMES])
def test_streaming_equals_memory_on_generated_histories(
        name, seeds, params, tmp_path):
    mismatches = []
    for seed in seeds:
        gen = generate_history(seed, **params)
        memory = check_linearizable(gen.ops, initial=gen.initial)
        store = spill(tmp_path, gen.ops, f"s{seed}")
        streaming = check_linearizable_streaming(store, initial=gen.initial)
        if memory.ok != streaming.ok or \
                {k: r.ok for k, r in memory.keys.items()} != \
                {k: r.ok for k, r in streaming.keys.items()}:
            mismatches.append(seed)
            continue
        # Ground truth: exactly the corrupted keys violate.
        flagged = sorted(k for k, r in memory.keys.items() if not r.ok)
        if flagged != sorted(gen.corrupted_keys):
            mismatches.append(seed)
        assert not memory.exhausted_keys()
    assert not mismatches, \
        f"{name}: checkers disagree (or miss ground truth) on seeds {mismatches}"


def test_total_property_histories_at_least_500():
    assert sum(len(regime[1]) for regime in REGIMES) >= 500


@pytest.mark.parametrize("regime,seeds,corruption", [
    ("tiny-clean", range(3000, 3250), 0.0),
    ("tiny-corrupted", range(4000, 4150), 0.25),
], ids=["tiny-clean", "tiny-corrupted"])
def test_brute_force_agrees_on_tiny_histories(regime, seeds, corruption):
    """<= 7-op histories: the memoized DFS must match pure permutation
    search key for key (retry echoes excluded -- the generator emits
    ``retries=0`` only; the golden corpus covers echoes)."""
    checked = 0
    for seed in seeds:
        ops_count = 2 + seed % 6  # 2..7 operations
        gen = generate_history(seed, clients=2, keys=1 + seed % 2,
                               ops=ops_count, timeout_rate=0.3,
                               corruption_rate=corruption)
        report = check_linearizable(gen.ops, initial=gen.initial)
        for key, key_ops in group_ops_by_key(gen.ops).items():
            expected = brute_force_key_ok(key_ops, gen.initial.get(key, MISSING))
            assert report.keys[key].ok == expected, \
                (f"{regime} seed {seed} key {key!r}: DFS said "
                 f"{report.keys[key].ok}, brute force said {expected}:\n"
                 + "\n".join(op.describe() for op in key_ops))
            checked += 1
    assert checked > len(seeds)  # multiple keys actually exercised


# --------------------------------------------------------------------- #
# Differential: the window checker against the whole-key search.
# --------------------------------------------------------------------- #

def assert_same_verdicts(ops: List[HistoryOp], initial) -> None:
    for key, key_ops in group_ops_by_key(ops).items():
        start = initial.get(key, MISSING)
        expected = reference_whole_key_check(list(key_ops), start)
        got = check_key_linearizable(key_ops, start)
        assert (got.ok, got.exhausted) == (expected.ok, expected.exhausted), \
            (f"key {key!r} from {start!r}: window checker ok={got.ok}, whole-key "
             f"search ok={expected.ok}\n{got.message}\n"
             + "\n".join(f"{op.describe()} r={op.retries}" for op in sorted(
                 key_ops, key=lambda op: (op.invoked_at, op.op_id))))


@pytest.mark.parametrize("name,_seeds,params", REGIMES,
                         ids=[regime[0] for regime in REGIMES])
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**31), perturb=st.integers(0, 2**31),
       retry_rate=st.sampled_from([0.0, 0.3, 1.0]),
       move_rate=st.sampled_from([0.0, 0.1, 0.4]))
def test_window_checker_equals_whole_key_search_on_generated_histories(
        name, _seeds, params, seed, perturb, retry_rate, move_rate):
    """Every ``history_gen`` regime, with writes marked retried and reads
    moved onto values that only an echo or a lost write could explain."""
    gen = generate_history(seed, **params)
    rng = random.Random(perturb)
    for key_ops in group_ops_by_key(gen.ops).values():
        floating = [op.value for op in key_ops if op.op == "write"
                    and (op.ambiguous or rng.random() < retry_rate)]
        for op in key_ops:
            if op.op == "write" and not op.ambiguous and op.value in floating:
                op.retries = rng.randint(1, 3)
            if (op.op == "read" and op.ok and floating
                    and rng.random() < move_rate):
                op.output = rng.choice(floating)
    assert_same_verdicts(gen.ops, gen.initial)


VALUES = [b"a", b"b", b"c"]


@st.composite
def arbitrary_key_history(draw) -> Tuple[List[HistoryOp], Any]:
    """Up to 14 ops on one key with arbitrary responses over three values:
    mostly not linearizable, and about a third of the time it is -- by way
    of CAS chains, lost deletes/inserts, echoes and zero-length ops that no
    by-construction generator emits."""
    ops: List[HistoryOp] = []
    now = 0.0
    for op_id in range(draw(st.integers(1, 14))):
        now += draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]))
        kind = draw(st.sampled_from(
            ["read", "read", "write", "write", "cas", "delete", "insert"]))
        op = HistoryOp(op_id=op_id, client="c", op=kind, key=b"k", invoked_at=now)
        if kind in ("write", "insert", "cas"):
            op.value = draw(st.sampled_from(VALUES))
        if kind == "cas":
            op.expected = draw(st.sampled_from(VALUES))
        fate = draw(st.sampled_from(["pending", "timeout", "ok", "ok", "ok", "error"]))
        if fate != "pending":
            op.returned_at = now + draw(st.sampled_from([0.0, 0.5, 1.0, 3.0, 6.0]))
            op.ok = fate == "ok"
            op.timed_out = fate == "timeout"
        if fate == "ok" and kind == "read":
            op.output = draw(st.sampled_from(VALUES))
        if fate == "ok" and kind == "write":
            op.retries = draw(st.sampled_from([0, 0, 1, 2]))
        if fate == "error":
            op.cas_failed = kind == "cas" and draw(st.booleans())
            op.not_found = not op.cas_failed
        ops.append(op)
    return draw(st.permutations(ops)), draw(st.sampled_from([MISSING, b"a", b""]))


@settings(max_examples=1500, deadline=None)
@given(arbitrary_key_history())
def test_window_checker_equals_whole_key_search_on_arbitrary_histories(case):
    ops, initial = case
    assert_same_verdicts(ops, {b"k": initial})


def random_key_history(rng: random.Random) -> Tuple[List[HistoryOp], Any]:
    """The arbitrary histories above without hypothesis in the loop (20x the
    cases per second), leaning on what the on-demand search has to get
    right: few values, many CAS, many lost ops, zero-length ops and ties."""
    values = VALUES[:rng.choice([2, 3])]
    kinds = rng.choice([["read", "read", "write", "write", "cas", "delete", "insert"],
                        ["read", "write", "cas", "cas", "cas"],
                        ["read", "cas", "cas", "delete", "insert"]])
    fates = rng.choice([["pending", "timeout", "ok", "ok", "ok", "error"],
                        ["pending", "timeout", "ok", "error"]])
    ops: List[HistoryOp] = []
    now = 0.0
    for op_id in range(rng.randint(2, rng.choice([6, 10, 14]))):
        now += rng.choice([0.0, 0.5, 1.0, 2.0, 4.0])
        kind, fate = rng.choice(kinds), rng.choice(fates)
        op = HistoryOp(op_id=op_id, client="c", op=kind, key=b"k", invoked_at=now)
        if kind in ("write", "insert", "cas"):
            op.value = rng.choice(values)
        if kind == "cas":
            op.expected = rng.choice(values)
        if fate != "pending":
            op.returned_at = now + rng.choice([0.0, 0.5, 1.0, 3.0, 6.0])
            op.ok = fate == "ok"
            op.timed_out = fate == "timeout"
        if fate == "ok" and kind == "read":
            op.output = rng.choice(values)
        if fate == "ok" and kind == "write":
            op.retries = rng.choice([0, 0, 1, 2])
        if fate == "error":
            op.cas_failed = kind == "cas" and rng.random() < 0.6
            op.not_found = not op.cas_failed and rng.random() < 0.8
        ops.append(op)
    rng.shuffle(ops)
    return ops, rng.choice([MISSING, b"a", b"b", b""])


@pytest.mark.parametrize("seed", range(2))
def test_window_checker_equals_whole_key_search_on_a_seeded_sweep(seed):
    """25k histories per seed.  Random search is a weak net for a fault that
    takes particular ops in a particular order -- a failed-CAS branch that
    stops at the imposed value shows up once in ~100k of these -- hence the
    exhaustive scope below and the hand-written histories."""
    rng = random.Random(seed)
    for _ in range(25_000):
        ops, initial = random_key_history(rng)
        assert_same_verdicts(ops, {b"k": initial})


def test_window_checker_equals_whole_key_search_on_every_small_history():
    """Small scope, exhaustively: two lost ops, then any certain op, then any
    certain op that observes the register, one after the other over three
    values from ``c`` -- 194k histories, 84 of which fail a failed-CAS
    branch that stops at the imposed value.  (EXPERIMENTS.md: all 25M
    four-op sequential histories were run once, offline.)"""
    lost, certain = [("delete", {})], [
        ("read", dict(not_found=True)), ("delete", dict(not_found=True)), ("delete", {})]
    for value in VALUES:
        lost += [("write", dict(value=value)), ("insert", dict(value=value))]
        certain += [("read", dict(output=value)), ("write", dict(value=value)),
                    ("write", dict(value=value, retries=1)),
                    ("insert", dict(value=value))]
        for expected in VALUES:
            fields = dict(expected=expected, value=value)
            lost.append(("cas", fields))
            certain += [("cas", fields), ("cas", dict(fields, cas_failed=True))]
    observing = [shape for shape in certain
                 if shape[0] in ("read", "cas") or "not_found" in shape[1]]
    checked = 0
    for first, second, third, fourth in itertools.product(lost, lost, certain, observing):
        ops = [op(0, first[0], 0.0, **first[1]), op(1, second[0], 2.0, **second[1]),
               op(2, third[0], 4.0, 5.0, **third[1]), op(3, fourth[0], 6.0, 7.0, **fourth[1])]
        assert_same_verdicts(ops, {b"k": b"c"})
        checked += 1
    assert checked == 16 * 16 * 33 * 23


def test_transition_table_is_the_sequential_spec():
    """The checker holds the register/CAS spec as ``(want, avoid, result)``
    triples, the oracle as ``_step`` functions: same spec, every op shape
    against every state."""
    from repro.core.history import _ANY, _transition
    states = [MISSING, b"", b"a", b"b"]
    compared = 0
    for kind in ("read", "write", "cas", "delete", "insert"):
        for fate in ("ok", "cas_failed", "not_found", "error", "timeout", "pending"):
            for value in (None, b"", b"a"):
                for expected in states:
                    if kind == "read" and fate in ("timeout", "pending"):
                        continue  # dropped before the search
                    op = HistoryOp(
                        op_id=0, client="c", op=kind, key=b"k", value=value,
                        expected=expected, output=value, ok=fate == "ok",
                        returned_at=None if fate == "pending" else 1.0,
                        cas_failed=fate == "cas_failed", not_found=fate == "not_found",
                        timed_out=fate == "timeout")
                    want, avoid, result = _transition(op)
                    for state in states:
                        stepped = (_step_ambiguous_success if op.ambiguous else _step)(op, state)
                        if want in (_ANY, state) and state != avoid:
                            assert stepped == (state if result is _ANY else result), \
                                (op.describe(), state)
                        else:
                            assert stepped is _FAIL, (op.describe(), state)
                        compared += 1
    assert compared == (5 * 6 - 2) * 3 * 4 * 4


def op(op_id, kind, t0, t1=None, *, value=None, expected=None, output=None,
       ok=True, timed_out=False, not_found=False, cas_failed=False,
       retries=0) -> HistoryOp:
    """One hand-written op on key ``k`` (``t1=None``: still pending)."""
    done = t1 is not None
    ok = ok and not (timed_out or not_found or cas_failed)
    return HistoryOp(op_id=op_id, client=f"c{op_id}", op=kind, key=b"k",
                     value=value, expected=expected, invoked_at=t0,
                     returned_at=t1, ok=ok if done else None,
                     output=output, not_found=not_found, cas_failed=cas_failed,
                     timed_out=timed_out, retries=retries)


def lost(op_id, kind, t0, **fields) -> HistoryOp:
    return op(op_id, kind, t0, t0 + 0.5, timed_out=True, **fields)


HAND_WRITTEN = {
    # A lost write nobody sees for two whole windows, then a read returns it.
    "ambiguous write first read two cuts later": (True, [
        lost(0, "write", 0.0, value=b"L"),
        op(1, "write", 1.0, 2.0, value=b"x"), op(2, "read", 3.0, 4.0, output=b"x"),
        op(3, "write", 5.0, 6.0, value=b"y"), op(4, "read", 7.0, 8.0, output=b"y"),
        op(5, "read", 9.0, 10.0, output=b"L")]),
    "ambiguous write cannot precede its own invocation": (False, [
        op(0, "read", 0.0, 1.0, output=b"L"),
        lost(1, "write", 2.0, value=b"L")]),
    # A lost delete and a lost CAS both take effect windows later -- once.
    "ambiguous cas and delete floating across a cut": (True, [
        lost(0, "cas", 0.0, expected=b"y", value=b"z"), lost(1, "delete", 0.2),
        op(2, "write", 1.0, 2.0, value=b"x"), op(3, "read", 3.0, 4.0, output=b"x"),
        op(4, "read", 5.0, 6.0, not_found=True),
        op(5, "insert", 7.0, 8.0, value=b"y"),
        op(6, "read", 9.0, 10.0, output=b"z")]),
    "a floating delete is spent once": (False, [
        lost(0, "delete", 0.0),
        op(1, "write", 1.0, 2.0, value=b"x"),
        op(2, "read", 3.0, 4.0, not_found=True),
        op(3, "insert", 5.0, 6.0, value=b"y"),
        op(4, "read", 7.0, 8.0, not_found=True)]),
    "a floating cas needs the value it expects": (False, [
        lost(0, "cas", 0.0, expected=b"q", value=b"z"),
        op(1, "write", 1.0, 2.0, value=b"x"),
        op(2, "read", 3.0, 4.0, output=b"z")]),
    # A straggler retransmission re-imposes A after B was written and read.
    "retry echo observed two windows after its write": (True, [
        op(0, "write", 0.0, 1.0, value=b"A", retries=2),
        op(1, "write", 2.0, 3.0, value=b"B"), op(2, "read", 4.0, 5.0, output=b"B"),
        op(3, "read", 6.0, 7.0, output=b"A"), op(4, "read", 8.0, 9.0, output=b"A")]),
    "an echo does not bring back what it overwrote": (False, [
        op(0, "write", 0.0, 1.0, value=b"A", retries=2),
        op(1, "write", 2.0, 3.0, value=b"B"), op(2, "read", 4.0, 5.0, output=b"B"),
        op(3, "read", 6.0, 7.0, output=b"A"), op(4, "read", 8.0, 9.0, output=b"B")]),
    "without retries there is no echo": (False, [
        op(0, "write", 0.0, 1.0, value=b"A"),
        op(1, "write", 2.0, 3.0, value=b"B"), op(2, "read", 4.0, 5.0, output=b"B"),
        op(3, "read", 6.0, 7.0, output=b"A")]),
    # invoked_at == returned_at of the previous op: no cut, both orders legal.
    "a tie does not cut (later op first)": (True, [
        op(0, "write", 0.0, 1.0, value=b"x"), op(1, "write", 1.0, 2.0, value=b"y"),
        op(2, "read", 3.0, 4.0, output=b"x")]),
    "a tie does not cut (earlier op first)": (True, [
        op(0, "write", 0.0, 1.0, value=b"x"), op(1, "write", 1.0, 2.0, value=b"y"),
        op(2, "read", 3.0, 4.0, output=b"y")]),
    "just past the tie it does": (False, [
        op(0, "write", 0.0, 1.0, value=b"x"), op(1, "write", 1.001, 2.0, value=b"y"),
        op(2, "read", 3.0, 4.0, output=b"x")]),
    "a window holding only ambiguous ops": (True, [
        op(0, "write", 0.0, 1.0, value=b"x"),
        lost(1, "write", 2.0, value=b"L"), lost(2, "delete", 2.1), op(3, "write", 2.2),
        ]),
    "a pending tail may or may not have happened": (True, [
        op(0, "write", 0.0, 1.0, value=b"x"),
        op(1, "write", 2.0, value=b"P"), op(2, "delete", 2.5),
        op(3, "read", 3.0, 4.0, output=b"P"),
        op(4, "read", 5.0, 6.0, not_found=True),
        op(5, "read", 7.0, 8.0, output=b"P")]),
    # -- one history per branch of the on-demand search -------------------- #
    # ``reach``: a lost CAS is spent to hand a read its result, and first
    # needs the value it expects -- from another lost CAS, or imposed.
    "a chain of two lost cas": (True, [
        op(0, "write", 0.0, 1.0, value=b"x"),
        lost(1, "cas", 2.0, expected=b"x", value=b"y"),
        lost(2, "cas", 2.2, expected=b"y", value=b"z"),
        op(3, "read", 3.0, 4.0, output=b"z")]),
    "a lost cas fed by a lost write": (True, [
        op(0, "write", 0.0, 1.0, value=b"x"),
        lost(1, "write", 2.0, value=b"L"), lost(2, "cas", 2.2, expected=b"L", value=b"z"),
        op(3, "read", 3.0, 4.0, output=b"z")]),
    "a chain with a missing link": (False, [
        op(0, "write", 0.0, 1.0, value=b"x"),
        lost(1, "cas", 2.0, expected=b"w", value=b"y"),
        lost(2, "cas", 2.2, expected=b"y", value=b"z"),
        op(3, "read", 3.0, 4.0, output=b"z")]),
    "two equal lost deletes are two deletes": (True, [
        lost(0, "delete", 0.0), lost(1, "delete", 0.2),
        op(2, "write", 1.0, 2.0, value=b"x"), op(3, "read", 3.0, 4.0, not_found=True),
        op(4, "insert", 5.0, 6.0, value=b"y"), op(5, "read", 7.0, 8.0, not_found=True)]),
    # Inside a window a lost op is usable once what returned before its
    # invocation is linearized (the long write keeps the window open).
    "a lost write seen by a read it overlaps": (True, [
        op(0, "write", 0.0, 5.0, value=b"q"), op(1, "read", 1.0, 3.0, output=b"L"),
        lost(2, "write", 2.0, value=b"L")]),
    "a lost write not seen by a read that returned before it": (False, [
        op(0, "write", 0.0, 5.0, value=b"q"), op(1, "read", 0.0, 1.0, output=b"L"),
        lost(2, "write", 2.0, value=b"L")]),
    "a lost delete seen by a read it overlaps": (True, [
        op(0, "write", 0.0, 5.0, value=b"q"), op(1, "read", 0.0, 1.0, not_found=True),
        lost(2, "delete", 0.5)]),
    "a lost delete not seen by a read that returned before it": (False, [
        op(0, "write", 0.0, 5.0, value=b"q"), op(1, "read", 0.0, 1.0, not_found=True),
        lost(2, "delete", 2.0)]),
    # A failed CAS on exactly the value it expected: the register must leave.
    "a failed cas on the current value has no way out": (False, [
        op(0, "write", 0.0, 1.0, value=b"x"),
        op(1, "cas", 2.0, 3.0, expected=b"x", value=b"q", cas_failed=True)]),
    "a failed cas moved off its value by an imposed one": (True, [
        op(0, "write", 0.0, 1.0, value=b"x"), lost(1, "write", 2.0, value=b"L"),
        op(2, "cas", 3.0, 4.0, expected=b"x", value=b"q", cas_failed=True),
        op(3, "read", 5.0, 6.0, output=b"L")]),
    "it cannot come back": (False, [
        op(0, "write", 0.0, 1.0, value=b"x"), lost(1, "write", 2.0, value=b"L"),
        op(2, "cas", 3.0, 4.0, expected=b"x", value=b"q", cas_failed=True),
        op(3, "read", 5.0, 6.0, output=b"x")]),
    "a failed cas moved off its value by a lost delete": (True, [
        op(0, "write", 0.0, 1.0, value=b"x"), lost(1, "delete", 2.0),
        op(2, "cas", 3.0, 4.0, expected=b"x", value=b"q", cas_failed=True),
        op(3, "read", 5.0, 6.0, not_found=True)]),
    # The imposed way out keeps the lost delete for when it is observed ...
    "a failed cas moved by a value, the lost delete spent later": (True, [
        op(0, "write", 0.0, 1.0, value=b"c"),
        lost(1, "delete", 2.0), lost(2, "write", 2.5, value=b"a"),
        op(3, "cas", 3.0, 4.0, expected=b"c", value=b"q", cas_failed=True),
        op(4, "write", 5.0, 6.0, value=b"z"), op(5, "read", 7.0, 8.0, not_found=True)]),
    # ... but a lost CAS expecting the value is spent now or never, so an
    # imposed way out does not end the search for others.
    "a failed cas moved by the lost cas whose result comes next": (True, [
        op(0, "insert", 1.0, 1.0, value=b"c"),
        op(1, "cas", 3.0, expected=b"c", value=b"b"), op(2, "write", 3.5, value=b"a"),
        op(3, "cas", 5.5, 5.5, expected=b"c", value=b"a", cas_failed=True),
        op(4, "cas", 6.0, 7.0, expected=b"b", value=b"b")]),
    "a failed cas moved by a lost cas invoked as it returns": (True, [
        op(0, "write", 0.0, 1.0, value=b"a"), lost(1, "write", 4.0, value=b"c"),
        op(2, "cas", 5.0, 6.0, expected=b"a", value=b"c", cas_failed=True),
        lost(3, "cas", 6.0, expected=b"a", value=b"b"),
        op(4, "cas", 10.0, 11.0, expected=b"b", value=b"c")]),
}


@pytest.mark.parametrize("name", HAND_WRITTEN)
def test_hand_written_cuts(name):
    expected_ok, ops = HAND_WRITTEN[name]
    report = check_key_linearizable(ops, b"init")
    assert report.ok == expected_ok, report.message
    assert not report.exhausted
    assert_same_verdicts(ops, {b"k": b"init"})


def test_check_time_grows_linearly_with_the_stream():
    """One key, 2k vs 20k ops: the whole-key search went up ~100x (its
    per-state cost was the stream length); cutting at quiescent points
    keeps the cost per op flat.  Linear is 10x; the bound leaves slack for
    a noisy box, not for a quadratic term."""
    def best_of(runs: int, ops: int) -> float:
        gen = generate_history(5, ops=ops, keys=1)
        times = []
        for _ in range(runs):
            started = time.perf_counter()
            report = check_linearizable(gen.ops, initial=gen.initial)
            times.append(time.perf_counter() - started)
            assert report.ok and not report.exhausted_keys()
        return min(times)

    small, large = best_of(5, 2_000), best_of(3, 20_000)
    assert large / small < 30, f"2k ops: {small:.4f}s, 20k ops: {large:.4f}s"
