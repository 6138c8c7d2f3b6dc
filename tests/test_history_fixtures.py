"""Golden adversarial history corpus: both checkers vs recorded verdicts.

The fixtures under ``tests/fixtures/histories/`` are standalone
``history/v1`` NDJSON files with known linearizability verdicts (see
``generate.py`` there).  Every fixture is pushed through both checkers --
the in-memory :func:`repro.core.history.check_linearizable` and the
streaming :func:`repro.core.history_store.check_linearizable_streaming`
over a spilled run directory -- and both must agree with the manifest.
Any checker change that silently flips a verdict (echo semantics,
ambiguous-op latitude, CAS atomicity, version monotonicity) fails here, and
so does a version witness that stops vouching for (or starts vouching for)
a fixture the manifest says it does not.
"""

from __future__ import annotations

import json
import random
import types
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.artifacts import read_header, scan
from repro.core.client import KVResult
from repro.core.history import History, HistoryOp, check_linearizable, version_violations_of
from repro.core.history_gen import generate_history
from repro.core.history_store import (
    SCHEMA,
    HistoryStore,
    HistoryWriter,
    SpillingHistory,
    check_linearizable_streaming,
    decode_bytes,
    record_to_op,
)

CORPUS = Path(__file__).parent / "fixtures" / "histories"
MANIFEST = json.loads((CORPUS / "manifest.json").read_text(encoding="utf-8"))
FIXTURES = MANIFEST["fixtures"]


def load_ndjson(path) -> List[HistoryOp]:
    """The operations of one standalone (index-less) fixture file."""
    return [record_to_op(record) for _offset, _line, record in scan(path, SCHEMA)]


def fixture_initial(entry):
    return {decode_bytes(name): decode_bytes(value)
            for name, value in entry["initial"].items()}


def spill(tmp_path, ops):
    """Round-trip ops through a spilled run directory."""
    run_dir = tmp_path / "run"
    with HistoryWriter(run_dir) as writer:
        for op in ops:
            writer.append(op)
    return HistoryStore(run_dir)


def test_corpus_covers_both_verdicts():
    verdicts = {entry["ok"] for entry in FIXTURES}
    assert verdicts == {True, False}
    assert len(FIXTURES) >= 12
    assert any(entry["version_violations"] for entry in FIXTURES)
    assert {entry["witness"] for entry in FIXTURES} == {"ok", "defer"}


@pytest.mark.parametrize("entry", FIXTURES,
                         ids=[entry["file"] for entry in FIXTURES])
def test_fixture_verdicts_agree(entry, tmp_path):
    ops = load_ndjson(CORPUS / entry["file"])
    initial = fixture_initial(entry)

    memory = check_linearizable(ops, initial=initial)
    assert not memory.exhausted_keys()
    assert memory.ok == entry["ok"], \
        f"in-memory checker disagrees with recorded verdict:\n{memory.summary()}"

    streaming = check_linearizable_streaming(
        spill(tmp_path, load_ndjson(CORPUS / entry["file"])), initial=initial)
    assert streaming.ok == entry["ok"], \
        f"streaming checker disagrees with recorded verdict:\n{streaming.summary()}"

    # Same verdict per key, not only in aggregate.
    assert {k: r.ok for k, r in memory.keys.items()} == \
        {k: r.ok for k, r in streaming.keys.items()}

    assert len(version_violations_of(ops)) == entry["version_violations"]

    # The version witness vouches where the manifest says, never against the search.
    witnessed = memory.witnessed == len(memory.keys) == streaming.witnessed
    assert ("ok" if witnessed else "defer") == entry["witness"]
    assert entry["ok"] or not witnessed


@pytest.mark.parametrize("entry", FIXTURES,
                         ids=[entry["file"] for entry in FIXTURES])
def test_fixture_headers_carry_meta(entry):
    meta = read_header(CORPUS / entry["file"], SCHEMA)
    assert meta["initial"] == entry["initial"]
    assert meta["description"] == entry["description"]


@pytest.mark.parametrize("name,interval,window,others", [
    ("bad_stale_read.ndjson", "[5.000000, 6.000000]", ["ok<-b'A'"],
     ["write(b'B')", "ok<-b'B'"]),
    ("bad_split_brain_write.ndjson", "[5.000000, 6.000000]",
     ["c2 read [5.000000, 6.000000] ok<-b'B'"],
     ["write(b'B')", "write(b'C')", "ok<-b'C'", "[9.000000, 10.000000]"]),
])
def test_violation_names_the_failing_window(name, interval, window, others):
    """The message is the window nothing gets through -- its sim-time
    interval, its ops, the register values carried into it -- not the head
    of the key's stream."""
    entry = next(e for e in FIXTURES if e["file"] == name)
    report = check_linearizable(load_ndjson(CORPUS / name),
                                initial=fixture_initial(entry))
    message = report.keys[b"k"].message
    assert f"no valid linearization of window {interval}" in message
    assert "(ops 3-3 of " in message
    assert "from carried values [b'B']" in message or \
        "from carried values [b'C']" in message
    for text in window:
        assert text in message
    for text in others:
        assert text not in message
    assert message in report.summary()


def replay(history, ops, completions_first=True):
    """Record ``ops`` into a scenario's ``history`` as a run does, each
    invocation and completion at its time; at one instant the completions
    go first, or last."""
    clock = history.sim = types.SimpleNamespace(now=0.0)
    events = sorted([(op.invoked_at, completions_first, index, op) for index, op in enumerate(ops)]
                    + [(op.returned_at, not completions_first, index, op)
                       for index, op in enumerate(ops) if op.completed])
    records = {}
    for clock.now, completion, index, op in events:
        if completion == completions_first:
            records[index] = history.invoke(op.client, op.op, op.key, op.value, op.expected)
        else:
            history.complete(records[index], KVResult(
                op.ok, op.op, value=op.output or b"", not_found=op.not_found,
                cas_failed=op.cas_failed, timed_out=op.timed_out, retries=op.retries,
                version=op.version))
    return history


def regressing_histories():
    """The corpus, its version regression with the read invoked as the
    write returns (beside an older read still out, which may see less), and
    generated histories given versions that regress here and there, with
    the pipelined (overlapping) ops of one client."""
    histories = [load_ndjson(CORPUS / entry["file"]) for entry in FIXTURES]
    write, read = load_ndjson(CORPUS / "ver_version_regression.ndjson")
    read.invoked_at = write.returned_at
    older = HistoryOp(2, "c0", "read", b"k", invoked_at=1.5, returned_at=3.5, ok=True,
                      output=b"B", version=(1, 4))
    histories.append([write, older, read])
    for seed in range(40):
        rng = random.Random(seed)
        ops = generate_history(seed, clients=3, keys=2, ops=120).ops
        for op in ops:
            op.client = f"c{rng.randrange(2)}"  # merged clients overlap
            if op.ok:
                op.version = (1, max(0, int(op.invoked_at * 10) + rng.choice([0, 0, 0, -7])))
        histories.append(ops)
    return histories


def quadratic_version_violations(ops) -> List[str]:
    """:func:`version_violations_of` as it was before the heap sweep,
    verbatim: rescans every earlier op of the (client, key) per op."""
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


def test_version_sweep_reports_what_the_rescan_reported():
    """Same messages in the same order: on the corpus, and on generated
    histories given versions that regress here and there, with the
    pipelined (overlapping) ops of one client that must not be compared."""
    flagged = 0
    for ops in regressing_histories():
        expected = quadratic_version_violations(ops)
        assert version_violations_of(ops) == expected
        assert version_violations_of(reversed(ops)) == \
            quadratic_version_violations(reversed(ops))
        flagged += bool(expected)
    assert flagged > 10


@pytest.mark.parametrize("completions_first", [True, False],
                         ids=["completions-first", "invocations-first"])
def test_the_online_version_check_flags_what_the_sweep_flags(completions_first):
    """:class:`ClientVersions`, fed as a scenario's history records the ops,
    reports the violations :func:`version_violations_of` finds afterwards,
    however the ops of one instant are ordered -- a return at an op's
    invocation instant is before it."""
    flagged = 0
    for ops in regressing_histories():
        expected = version_violations_of(ops)
        online = replay(History(None), ops, completions_first).versions.violations
        assert sorted(online) == sorted(expected)
        flagged += bool(expected)
    assert flagged > 10


@pytest.mark.parametrize("spilled", [False, True], ids=["memory", "spill"])
def test_a_version_regression_is_flagged_by_a_scenario_history(spilled, tmp_path):
    """``ver_version_regression`` is linearizable and the witness only defers
    it; recorded as a scenario records it, in memory or spilled, its client
    is still seen reading a version older than the one it wrote."""
    ops = load_ndjson(CORPUS / "ver_version_regression.ndjson")
    history = SpillingHistory(None, tmp_path / "run") if spilled else History(None)
    assert replay(history, ops).versions.violations == \
        ["c0 observed b'k' going backwards: (1, 5) -> (1, 4)"]


def test_retry_echo_is_load_bearing():
    """The echo fixture is only linearizable *because* of the retries: the
    same history with ``retries=0`` must be rejected (it degenerates into
    the split-brain shape)."""
    ops = load_ndjson(CORPUS / "ok_retry_echo_oscillation.ndjson")
    entry = next(e for e in FIXTURES
                 if e["file"] == "ok_retry_echo_oscillation.ndjson")
    for op in ops:
        op.retries = 0
    assert not check_linearizable(ops, initial=fixture_initial(entry)).ok
