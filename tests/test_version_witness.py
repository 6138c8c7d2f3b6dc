"""The version witness against the search: witness-ok must imply search-ok.

:class:`repro.core.history.VersionWitness` vouches for a key from the
versions its ops report, and only the keys it defers are searched.  So the
one property it must never break is: wherever it says ok, the search
(:func:`repro.core.history.check_key_linearizable`) says ok too.  Here
``history_gen`` histories get their ground-truth versions stamped onto
copies -- at ``(1, 2n)``, so the odd versions are free for a test to insert
-- and each mode below then plants one kind of lie, on every seed.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Dict, List

import pytest

from repro.core.history import (
    HistoryOp,
    VersionWitness,
    check_key_linearizable,
    group_ops_by_key,
    witness_key,
)
from repro.core.history_gen import generate_history

SEEDS = range(200)
SHAPE = dict(clients=3, keys=2, ops=60, timeout_rate=0.05, cas_rate=0.0, delete_rate=0.0)


def stamped(seed: int, **params):
    """A generated history's ops, copied, each ok op carrying its true
    version (doubled) and each lost one the ``(0, 0)`` a timed-out
    NetChain op reports."""
    generated = generate_history(seed, **{**SHAPE, **params})
    ops = []
    for op in generated.ops:
        op = dataclasses.replace(op)
        truth = generated.versions.get(op.op_id)
        op.version = (truth[0], 2 * truth[1]) if op.ok and truth else (0, 0)
        ops.append(op)
    return ops, generated


def ok_ops(ops: List[HistoryOp], kind: str) -> List[HistoryOp]:
    return [op for op in ops if op.op == kind and op.ok]


def stale_read(ops, rng, initial):
    """A read returns an older version, with that version's value."""
    read = rng.choice(ok_ops(ops, "read"))
    older = [(op.version, op.value if op.op == "write" else op.output)
             for op in ops if op.key == read.key and op.ok and op.version < read.version]
    read.version, read.output = rng.choice(older + [((1, 0), initial[read.key])])


def two_values(ops, rng, _initial):
    """A read keeps its version but returns another write's value, or a
    write reports another write's version."""
    victim = rng.choice([op for op in ops if op.ok])
    other = rng.choice([op for op in ok_ops(ops, "write") if op.key == victim.key] or [victim])
    if victim.op == "read":
        victim.output = other.value
    else:
        victim.version = other.version


def write_regression(ops, rng, _initial):
    """A write reports a version older than its own."""
    write = rng.choice(ok_ops(ops, "write"))
    write.version = (1, max(0, write.version[1] - 2 * rng.randint(1, 3)))


def echo(ops, rng, _initial):
    """A read returns, at a fresh version, the value of a write invoked
    before the read returned -- retried, sent once or lost."""
    read = rng.choice(ok_ops(ops, "read"))
    write = rng.choice([op for op in ops if op.op == "write" and op.key == read.key
                        and op.invoked_at < read.returned_at] or [read])
    if write is not read:
        write.retries = rng.choice([0, 1, 2])
        read.output, read.version = write.value, (1, read.version[1] + 1)


MODES: Dict[str, Callable] = {"clean": lambda *_: None, "stale_read": stale_read,
                              "two_values": two_values, "write_regression": write_regression,
                              "echo_after_return": echo}


def verdicts(ops, initial):
    """Per key: (witness ok, search ok)."""
    return {key: (witness_key(key_ops, initial[key])[0] is not None,
                  check_key_linearizable(key_ops, initial[key]).ok)
            for key, key_ops in group_ops_by_key(ops).items()}


@pytest.mark.parametrize("mode", [*MODES, "corrupted_value"])
def test_witness_ok_implies_search_ok(mode):
    tally = {"witnessed": 0, "deferred": 0, "rejected": 0}
    for seed in SEEDS:
        if mode == "corrupted_value":
            ops, generated = stamped(seed, corruption_rate=0.05)
        else:
            ops, generated = stamped(seed)
            rng = random.Random(seed)
            for _ in range(1 + seed % 3):
                MODES[mode](ops, rng, generated.initial)
        for key, (witnessed, linearizable) in verdicts(ops, generated.initial).items():
            assert linearizable or not witnessed, (mode, seed, key)
            tally["witnessed" if witnessed else "deferred"] += 1
            tally["rejected"] += not linearizable
    if mode == "clean":
        assert tally == {"witnessed": 2 * len(SEEDS), "deferred": 0, "rejected": 0}
    else:  # every mode leaves keys to vouch for and plants lies the witness sees
        assert tally["witnessed"] and tally["deferred"], tally
        # ... and all but a lie about versions alone plant violations too.
        assert tally["rejected"] or mode == "write_regression", tally


def test_versions_decide_without_cas_delete_insert_only():
    """With CAS, delete and insert in the mix the keys that saw one are
    deferred and still searched; the rest are witnessed."""
    for seed in range(20):
        ops, generated = stamped(seed, cas_rate=0.15, delete_rate=0.05)
        for key, key_ops in group_ops_by_key(ops).items():
            verdict, reason = witness_key(key_ops, generated.initial[key])
            others = {op.op for op in key_ops} - {"read", "write"}
            assert (verdict is None) == bool(others), (seed, key, reason)


def test_fed_online_or_offline_the_witness_agrees():
    """:meth:`VersionWitness.feed` (the memory and run-dir paths) and the
    invocation / completion calls a recording makes give one verdict."""
    for seed in range(20):
        ops, generated = stamped(seed, keys=4, ops=200)
        online = VersionWitness(generated.initial)
        events = sorted([(op.invoked_at, 0, op.op_id, op) for op in ops]
                        + [(op.returned_at, 1, op.op_id, op) for op in ops])
        for _at, kind, _id, op in events:
            (online.complete if kind else online.invoke)(op)
        offline = VersionWitness(generated.initial)
        offline.feed(ops)
        for key in generated.initial:
            assert online.decide(key) == offline.decide(key)
            assert online.decide(key)[0] is not None


def test_state_stays_bounded_by_the_outstanding_ops():
    """Versions below every outstanding op's floor are pruned as the run
    goes: a long key keeps tens of versions, not thousands."""
    ops, generated = stamped(5, keys=1, ops=5000, timeout_rate=0.0)
    witness = VersionWitness(generated.initial)
    witness.feed(ops)
    state = witness._keys[b"k0"]
    assert state.reason is None and len(state.values) < 200
    assert witness.decide(b"k0")[0].ops == 5000


def op(op_id, name, inv, ret, *, value=None, out=None, version=None, retries=0, ok=True):
    """One op on key ``k`` (initially ``A``); ``ret=None`` is still outstanding."""
    return HistoryOp(op_id=op_id, client=f"c{op_id}", op=name, key=b"k", value=value,
                     invoked_at=float(inv), returned_at=None if ret is None else float(ret),
                     ok=ok if ret is not None else None, output=out, retries=retries,
                     version=version)


B, C, X = b"B", b"C", b"X"

#: One history per rule: what the witness must say instead of vouching, and
#: the search's verdict (a rule may guard a history the search accepts).
OBJECTIONS = {
    "a read's value is its version's": (
        [op(0, "write", 1, 2, value=B, version=(1, 1)), op(1, "write", 0.5, None, value=C),
         op(2, "read", 3, 4, out=C, version=(1, 1))],
        "version (1, 1) read b'C', not b'B'", True),
    "the initial value is older than every write": (
        [op(0, "write", 1, 2, value=B, version=(1, 1)),
         op(1, "read", 3, 4, out=b"A", version=(1, 2))],
        "version (1, 2) read b'A', which no write produced", False),
    "a write is newer than what was read as the initial value": (
        [op(0, "write", 1, 4, value=B, version=(1, 1)),
         op(1, "read", 2, 3, out=b"A", version=(1, 2)),
         op(2, "read", 5, 6, out=b"A", version=(1, 2))],
        "write version (1, 1) is not newer than (1, 2)", False),
    "an outstanding write is credited only above its floor": (
        [op(0, "write", 1, 2, value=X, version=(1, 2)),
         op(1, "write", 3, 4, value=B, version=(1, 3), retries=1),
         op(2, "read", 1.5, 3.5, out=B, version=(1, 1)),
         op(3, "read", 3.6, 3.8, out=X, version=(1, 2))],
        "version (1, 1) read b'B', which no write produced", False),
    "an echo is credited only above its write's floor": (
        [op(0, "write", 1, 2, value=X, version=(1, 2)),
         op(1, "write", 3, 4, value=B, version=(1, 3), retries=1),
         op(2, "read", 1.5, 4.5, out=B, version=(1, 1)),
         op(3, "read", 4.6, 4.8, out=X, version=(1, 2))],
        "version (1, 1) read b'B', which no write produced", False),
    "a write sent once has exactly one version": (
        [op(0, "write", 1, 6, value=B, version=(1, 5)),
         op(1, "write", 2, 3, value=C, version=(1, 3)),
         op(2, "read", 1.5, 2.5, out=B, version=(1, 1)),
         op(3, "read", 3.5, 4, out=C, version=(1, 3)),
         op(4, "read", 4.5, 5, out=B, version=(1, 5))],
        "version (1, 1) read b'B' of a write sent once, as (1, 5)", False),
    "one value per version among writes": (
        [op(0, "write", 1, 3, value=B, version=(1, 1)),
         op(1, "write", 2, 4, value=C, version=(1, 1)),
         op(2, "read", 2.5, 2.7, out=C, version=(1, 1)),
         op(3, "read", 3.5, 3.8, out=B, version=(1, 1)),
         op(4, "read", 4.5, 5, out=C, version=(1, 1))],
        "version (1, 1) has two values, b'C' and b'B'", False),
    "a write that failed produced nothing": (
        [op(0, "write", 1, 4, value=B, ok=False), op(1, "read", 2, 3, out=B, version=(1, 1))],
        "version (1, 1) read b'B' of a write that failed", False),
}


@pytest.mark.parametrize("rule", OBJECTIONS)
def test_each_rule_objects_to_its_history(rule):
    ops, reason, linearizable = OBJECTIONS[rule]
    verdict, why = witness_key(ops, b"A")
    assert verdict is None and reason in why
    assert check_key_linearizable(ops, b"A").ok is linearizable
