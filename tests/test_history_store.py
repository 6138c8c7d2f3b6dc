"""Out-of-core history store: spill format, index, streaming checker.

Covers the storage layer (NDJSON round trips, the templated record line
against its reference spelling, per-key offset index and bulk load,
rebuild, crash safety), the streaming verification pipeline (agreement
with the in-memory checker, worker pool, verdict memoization), the
record-time key canonicalization contract, and the scenario integration
(``history_mode="spill"`` replays byte-identically to memory mode and
bounds peak memory).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifacts import TruncatedArtifactError, record_line, scan
from repro.core import history_store
from repro.core.client import KVResult, canonical_key
from repro.core.history import History, HistoryOp, KeyReport, check_linearizable
from repro.core.history_gen import generate_history, initial_values, iter_history
from repro.core.history_store import (
    HistoryStore,
    HistoryWriter,
    SpillingHistory,
    VerdictCache,
    check_linearizable_streaming,
    decode_bytes,
    encode_bytes,
    op_line,
    op_to_record,
    rebuild_index,
    record_to_op,
    verdict_digest,
)
from repro.deploy import DeploymentSpec, ScenarioChecks, WorkloadSpec, run_scenario
from repro.deploy.matrix import signature_digest
from repro.experiments import fault_scenario

FIXTURES = Path(__file__).parent / "fixtures"


def write_run(run_dir, ops, meta=None):
    with HistoryWriter(run_dir, meta=meta) as writer:
        for op in ops:
            writer.append(op)
    return HistoryStore(run_dir)


# --------------------------------------------------------------------- #
# Record encoding.
# --------------------------------------------------------------------- #

def test_bytes_encoding_round_trips():
    for data in (b"plain", b"", b"\x00\xff\x10", b"hex:dec0y", b" spaces ",
                 b"k\x00\x00"):
        assert decode_bytes(encode_bytes(data)) == data
    assert encode_bytes(None) is None and decode_bytes(None) is None
    # Binary data is hex-escaped; a literal "hex:" prefix must be too,
    # or decoding would misread it.
    assert encode_bytes(b"\x00\x01") == "hex:0001"
    assert encode_bytes(b"hex:dec0y").startswith("hex:")


def test_bytes_encoding_is_the_per_byte_predicate_in_bulk():
    """``encode_bytes`` classifies with ``isascii``/``isprintable`` instead
    of a Python loop over the bytes; the spelling must not move by a byte."""
    def per_byte(data):
        if all(0x20 <= b < 0x7F for b in data) and not data.startswith(b"hex:"):
            return data.decode("ascii")
        return "hex:" + data.hex()

    singles = [bytes([b]) for b in range(256)]
    cases = singles + [b"", b"hex:", b"hex:printable", b"hex", b"Hex:abc",
                       b"mixed \x7f tail", b"tab\there", b"caf\xc3\xa9",
                       b"\x80", b"k00000042", b"~ \x1f"]
    cases += [b"ab" + single + b"yz" for single in singles]
    for data in cases:
        assert encode_bytes(data) == per_byte(data), data
        assert decode_bytes(encode_bytes(data)) == data


def test_op_record_round_trips_every_field():
    op = HistoryOp(op_id=7, client="c1", op="cas", key=b"key-1",
                   value=b"new", expected=b"old", invoked_at=1.25,
                   returned_at=2.5, ok=False, output=None, not_found=False,
                   cas_failed=True, timed_out=False, retries=3,
                   version=(2, 9))
    assert record_to_op(op_to_record(op)) == op
    pending = HistoryOp(op_id=0, client="c0", op="write", key=b"k",
                        value=b"v", invoked_at=0.5)
    back = record_to_op(op_to_record(pending))
    assert back == pending and not back.completed and back.ambiguous


def check_op_line(op):
    line = op_line(op)
    assert line.encode("ascii") == record_line(op_to_record(op))
    assert json.loads(line, parse_constant=str) is not None


#: The optional fields of a record, each with a value that makes it present.
OPTIONAL = {"value": b"v1", "expected": b"hex:", "returned_at": 0.1 + 0.2, "ok": False,
            "output": b"\x00\xff", "not_found": True, "cas_failed": True,
            "timed_out": True, "retries": 2, "version": (3, 2**40)}

#: Field values of exactly the types a recording fills in, and beside them
#: the ones only the reference can spell (an int time, a bool id, a list pair).
_BYTES = st.one_of(st.binary(max_size=12), st.sampled_from(
    [b"", b"hex:", b"hex:00ff", b"hex:plain", b'q"\\', b"\\", b"k\x00\x00", b"caf\xc3\xa9",
     b"\x7f", b"c3#64...."]))
_TIME = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 0.1 + 0.2, 5e-324, 1e16, 1e22]))
_TEXT = st.one_of(st.text(max_size=6), st.sampled_from(["c0", 'c"\\', "%s", "caf\u00e9"]))
_EXACT = {"op_id": st.integers(), "client": _TEXT, "op": _TEXT, "key": _BYTES,
          "value": st.none() | _BYTES, "expected": st.none() | _BYTES, "invoked_at": _TIME,
          "returned_at": st.none() | _TIME, "ok": st.none() | st.booleans(),
          "output": st.none() | _BYTES, "not_found": st.booleans(),
          "cas_failed": st.booleans(), "timed_out": st.booleans(),
          "retries": st.integers(0, 3), "version": st.none() | st.tuples(
              st.integers(), st.integers())}
_ODD_NUMBER = st.one_of(st.booleans(), st.integers(-3, 3), st.sampled_from(
    [0.0, 1.0, 2**63, float("nan"), float("inf"), float("-inf")]))
_ODD_FLAG = st.sampled_from([0, 1, "", "x", None])
_ODD = {"op_id": _ODD_NUMBER, "key": st.just(bytearray(b"ba")), "invoked_at": _ODD_NUMBER,
        "returned_at": _ODD_NUMBER, "ok": _ODD_FLAG, "not_found": _ODD_FLAG,
        "cas_failed": _ODD_FLAG, "timed_out": _ODD_FLAG, "retries": _ODD_NUMBER,
        "version": st.one_of(st.tuples(st.booleans(), st.integers()),
                             st.lists(st.integers(), max_size=3),
                             st.tuples(st.integers(), st.integers(), st.integers()))}
_OPS = st.one_of(
    st.builds(HistoryOp, **_EXACT),
    st.builds(HistoryOp, **{name: _EXACT[name] | _ODD[name] if name in _ODD else _EXACT[name]
                            for name in _EXACT}))


def test_op_line_spells_every_presence_mask(tmp_path):
    ops = []
    for mask in itertools.product((False, True), repeat=len(OPTIONAL)):
        present = {name: field for (name, field), on in zip(OPTIONAL.items(), mask) if on}
        ops.append(HistoryOp(op_id=len(ops), client="c0", op="cas", key=b"k%d" % (len(ops) % 3),
                             invoked_at=len(ops) * 1e-3, **present))
        check_op_line(ops[-1])
    for zero in (0.0, -0.0, 0.0):  # equal and hash-equal, spelled apart: never one memo entry
        check_op_line(HistoryOp(op_id=0, client="c0", op="read", key=b"k",
                                invoked_at=zero, returned_at=-zero))
    store = write_run(tmp_path / "run", ops)
    lines = store.ops_path.read_bytes().split(b"\n", 1)[1]
    assert lines == b"".join(record_line(op_to_record(op)) for op in ops)
    assert sorted((op for key in store.keys() for op in store.ops_for_key(key)),
                  key=lambda op: op.op_id) == ops


@settings(max_examples=500, deadline=None)
@given(op=_OPS)
def test_op_line_is_the_reference_spelling(op):
    check_op_line(op)


# --------------------------------------------------------------------- #
# Writer + store.
# --------------------------------------------------------------------- #

def test_writer_builds_per_key_streams_and_index(tmp_path):
    gen = generate_history(3, clients=3, keys=4, ops=200)
    store = write_run(tmp_path / "run", gen.ops, meta={"seed": 3})
    assert len(store) == 200
    assert store.meta["seed"] == 3
    assert sum(len(store.ops_for_key(key)) for key in store.keys()) == 200
    for key in store.keys():
        ops = store.ops_for_key(key)
        assert ops and all(op.key == key for op in ops)
    # Sequential iteration sees the same records as indexed access.
    by_id = sorted(store.iter_ops(), key=lambda op: op.op_id)
    assert [op.op_id for op in by_id] == list(range(200))


def test_padded_and_unpadded_key_spellings_share_one_stream(tmp_path):
    """Record-time canonicalization: a key's bytes with trailing NULs and
    without are one key, in the in-memory history and in the spilled run
    alike, and either spelling queries the spilled stream."""
    padded, unpadded = b"kv-7" + b"\x00" * 12, b"kv-7"
    assert canonical_key(padded) == canonical_key(unpadded) == unpadded

    class FakeSim:
        now = 0.0

    history = History(FakeSim())
    a = history.invoke("c0", "write", padded, value=b"x")
    b = history.invoke("c1", "read", unpadded)
    assert a.key == b.key == unpadded
    assert list(history.per_key()) == [unpadded]

    spilling = SpillingHistory(FakeSim(), tmp_path / "run")
    write = spilling.invoke("c0", "write", padded, value=b"x")
    spilling.complete(write, KVResult(ok=True, op="write"))
    read = spilling.invoke("c1", "read", unpadded)
    spilling.complete(read, KVResult(ok=True, op="read", value=b"x"))
    store = spilling.finish()
    assert store.keys() == [unpadded]
    assert len(store.ops_for_key(unpadded)) == 2
    assert [op.op_id for op in store.ops_for_key(padded)] == [0, 1]


def test_initial_values_round_trip_through_meta(tmp_path):
    class FakeSim:
        now = 0.0

    initial = {b"a" + b"\x00" * 3: b"va", b"b": None}
    spilling = SpillingHistory(FakeSim(), tmp_path / "run", initial=initial)
    record = spilling.invoke("c0", "read", b"a")

    spilling.complete(record, KVResult(ok=True, op="read", value=b"va"))
    store = spilling.finish()
    assert store.initial_values() == {b"a": b"va", b"b": None}
    # The recorded initial state feeds the check when none is passed.
    assert check_linearizable_streaming(store).ok


# --------------------------------------------------------------------- #
# Crash safety.
# --------------------------------------------------------------------- #

def test_truncated_file_surfaces_clean_error_with_offset(tmp_path):
    gen = generate_history(5, clients=2, keys=2, ops=50)
    store = write_run(tmp_path / "run", gen.ops)
    path = store.ops_path
    data = path.read_bytes()
    lines = data.splitlines(keepends=True)
    intact = b"".join(lines[:-1])
    path.write_bytes(intact + lines[-1][:10])  # cut the last record short

    with pytest.raises(TruncatedArtifactError) as exc_info:
        list(scan(path, history_store.SCHEMA))
    err = exc_info.value
    assert err.offset == len(intact)
    assert str(err.offset) in str(err) and "truncated" in str(err)

    # Corrupt JSON mid-file is reported the same way, not as a raw
    # json.JSONDecodeError traceback.
    garbled = intact[:len(lines[0]) + len(lines[1])] + b'{"id": oops}\n'
    path.write_bytes(garbled)
    with pytest.raises(TruncatedArtifactError) as exc_info:
        list(scan(path, history_store.SCHEMA))
    assert exc_info.value.offset == len(lines[0]) + len(lines[1])


def test_index_rebuilds_from_intact_prefix(tmp_path):
    gen = generate_history(6, clients=2, keys=2, ops=50)
    store = write_run(tmp_path / "run", gen.ops)
    path = store.ops_path
    data = path.read_bytes()
    cut = data.splitlines(keepends=True)
    path.write_bytes(b"".join(cut[:-1]) + cut[-1][:5])

    with pytest.raises(TruncatedArtifactError):
        rebuild_index(tmp_path / "run")
    total, truncated_at = rebuild_index(tmp_path / "run",
                                        allow_truncated=True)
    assert total == 49
    assert truncated_at == len(b"".join(cut[:-1]))
    recovered = HistoryStore(tmp_path / "run")
    assert len(recovered) == 49
    assert sorted(op.op_id for op in recovered.iter_ops()) == list(range(49))


def test_stale_index_is_detected_not_garbled(tmp_path):
    store = write_run(tmp_path / "run",
                      generate_history(7, keys=1, ops=10).ops)
    # Truncate the data file *without* rebuilding the index: indexed reads
    # past the end must fail cleanly.
    data = store.ops_path.read_bytes()
    store.ops_path.write_bytes(data[: len(data) - 20])
    with pytest.raises(TruncatedArtifactError):
        HistoryStore(tmp_path / "run").ops_for_key(b"k0")


def test_a_bad_record_mid_stream_is_named_by_its_own_offset(tmp_path):
    run_dir = tmp_path / "run"
    store = write_run(run_dir, generate_history(7, keys=1, ops=10).ops)
    path, data = store.ops_path, store.ops_path.read_bytes()
    offsets = [offset for offset, _line, _record in scan(path, history_store.SCHEMA)]
    middle = offsets[5]

    path.write_bytes(data[:middle] + b"#" + data[middle + 1:])  # not JSON any more
    with pytest.raises(TruncatedArtifactError) as exc_info:
        HistoryStore(run_dir).ops_for_key(b"k0")
    assert exc_info.value.offset == middle and "unparseable" in str(exc_info.value)

    end = offsets[6] - 1  # the record's newline: two records run together
    path.write_bytes(data[:end] + b" " + data[end + 1:])
    with pytest.raises(TruncatedArtifactError) as exc_info:
        HistoryStore(run_dir).ops_for_key(b"k0")
    assert exc_info.value.offset == middle

    # Still ten well-formed records, just not the ten that were indexed.
    assert data.count(b'"client":"c0"') > 0
    path.write_bytes(data.replace(b'"client":"c0"', b'"client":"c9"'))
    with pytest.raises(ValueError, match="stale index") as exc_info:
        HistoryStore(run_dir).ops_for_key(b"k0")
    assert not isinstance(exc_info.value, TruncatedArtifactError)
    assert f"python -m repro history index {run_dir}" in str(exc_info.value)
    rebuild_index(run_dir)
    assert {op.client for op in HistoryStore(run_dir).ops_for_key(b"k0")} >= {"c9"}


def test_records_longer_than_one_read_load_the_same(tmp_path):
    ops = [HistoryOp(op_id=i, client="c0", op="write", key=b"k", value=bytes([i]) * 700 * i,
                     invoked_at=float(i), returned_at=i + 0.5, ok=True) for i in range(4)]
    store = write_run(tmp_path / "run", ops)
    assert max(map(len, store.ops_path.read_bytes().splitlines())) > 4 * history_store._LINE_READ
    assert store.ops_for_key(b"k") == ops


@pytest.mark.parametrize("fixture", sorted(
    path.name for path in (FIXTURES / "histories").glob("*.ndjson")))
def test_bulk_load_equals_record_by_record_on_every_fixture(fixture, tmp_path):
    shutil.copy(FIXTURES / "histories" / fixture, tmp_path / "ops.ndjson")
    total, truncated_at = rebuild_index(tmp_path)
    assert truncated_at is None
    by_key = {}
    for _offset, line, _record in scan(tmp_path / "ops.ndjson", history_store.SCHEMA):
        op = record_to_op(json.loads(line))
        by_key.setdefault(op.key, []).append(op)
    with HistoryStore(tmp_path) as store:
        assert {key: store.ops_for_key(key) for key in store.keys()} == by_key
        assert sum(map(len, by_key.values())) == total == len(store)


# --------------------------------------------------------------------- #
# Streaming checker.
# --------------------------------------------------------------------- #

def test_streaming_matches_memory_and_workers_match_serial(tmp_path):
    gen = generate_history(11, clients=6, keys=10, ops=600,
                           timeout_rate=0.05)
    store = write_run(tmp_path / "run", list(gen.ops))
    memory = check_linearizable(gen.ops, initial=gen.initial)
    serial = check_linearizable_streaming(store, initial=gen.initial)
    parallel = check_linearizable_streaming(store, initial=gen.initial,
                                            workers=2)
    assert memory.ok == serial.ok == parallel.ok is True
    for key in store.keys():
        assert (memory.keys[key].ok, memory.keys[key].ops) == \
            (serial.keys[key].ok, serial.keys[key].ops) == \
            (parallel.keys[key].ok, parallel.keys[key].ops)


def test_verdict_cache_memoizes_by_stream_content(tmp_path):
    gen = generate_history(13, clients=3, keys=6, ops=300)
    store = write_run(tmp_path / "a", list(gen.ops))
    cache = VerdictCache()
    first = check_linearizable_streaming(store, initial=gen.initial,
                                         cache=cache)
    second = check_linearizable_streaming(store, initial=gen.initial,
                                          cache=cache)
    assert first.cache_hits == 0
    assert second.cache_hits == len(store.keys())
    assert first.ok == second.ok
    assert {k: r.ok for k, r in first.keys.items()} == \
        {k: r.ok for k, r in second.keys.items()}

    # A different initial value is a different verdict: no false hits.
    shifted = dict(gen.initial)
    shifted[store.keys()[0]] = b"something-else"
    third = check_linearizable_streaming(store, initial=shifted, cache=cache)
    assert third.cache_hits == len(store.keys()) - 1

    # The cache persists and reloads.
    path = tmp_path / "verdicts.json"
    stored = VerdictCache(path)
    check_linearizable_streaming(store, initial=gen.initial, cache=stored)
    stored.save()
    reloaded = VerdictCache(path)
    again = check_linearizable_streaming(store, initial=gen.initial,
                                         cache=reloaded)
    assert again.cache_hits == len(store.keys())


def test_verdicts_of_the_whole_key_search_are_not_served(tmp_path, monkeypatch):
    """CHECKER_VERSION 2 is the window checker: its ``states_explored`` and
    messages differ, so a cache file written under version 1 must miss."""
    gen = generate_history(13, clients=3, keys=6, ops=300)
    store = write_run(tmp_path / "a", list(gen.ops))
    assert history_store.CHECKER_VERSION == 2
    monkeypatch.setattr(history_store, "CHECKER_VERSION", 1)
    old = VerdictCache()
    for key in store.keys():
        old.put(verdict_digest(store.key_digest(key), gen.initial[key], 500_000),
                KeyReport(key=key, ok=False, ops=0, ambiguous_ops=0,
                          message="decided by the whole-key search"))
    monkeypatch.undo()
    report = check_linearizable_streaming(store, initial=gen.initial, cache=old)
    assert report.cache_hits == 0 and old.hits == 0
    assert report.ok and len(old) == 2 * len(store.keys())


def test_streaming_flags_the_corrupted_keys(tmp_path):
    gen = generate_history(17, clients=4, keys=5, ops=400,
                           corruption_rate=0.05)
    assert gen.corrupted_keys  # the seed must actually corrupt something
    store = write_run(tmp_path / "run", list(gen.ops))
    report = check_linearizable_streaming(store, initial=gen.initial)
    assert not report.ok
    flagged = sorted(k for k, r in report.keys.items() if not r.ok)
    assert flagged == sorted(gen.corrupted_keys)


# --------------------------------------------------------------------- #
# Scenario integration.
# --------------------------------------------------------------------- #

SPEC = DeploymentSpec(backend="netchain", store_size=16, seed=9)
WORKLOAD = WorkloadSpec(duration=0.4)


def test_scenario_spill_replays_identically_to_memory(tmp_path):
    memory = run_scenario(SPEC, WORKLOAD)
    spill_a = run_scenario(SPEC, WORKLOAD, ScenarioChecks(
        history_mode="spill", run_dir=tmp_path / "a",
        verdict_cache=VerdictCache()))
    spill_b = run_scenario(SPEC, WORKLOAD, ScenarioChecks(
        history_mode="spill", run_dir=tmp_path / "b",
        verdict_cache=VerdictCache()))
    assert memory.ok(), memory.failures
    assert spill_a.ok(), spill_a.failures
    assert signature_digest(memory) == signature_digest(spill_a) == signature_digest(spill_b)
    # Two spilled runs of the same seed are byte-identical on disk (minus
    # the self-describing run path, which lives outside the data file).
    assert (tmp_path / "a" / "ops.ndjson").read_bytes() == \
        (tmp_path / "b" / "ops.ndjson").read_bytes()
    assert spill_a.run_dir == tmp_path / "a"
    assert spill_a.peak_rss_bytes > 0
    assert spill_a.linearizability is not None and spill_a.linearizability.ok


@pytest.mark.anchor
def test_spilled_run_dir_is_byte_identical_to_the_commit_before_the_template(tmp_path):
    """Cross-commit replay anchor: the ``spill`` entry of
    ``fixtures/replay_digests.json`` hashes the three files of this seeded
    failover run as the commit before ``op_line`` wrote them (its records
    spell ``ver``, ``r``, ``to`` and ``hex:`` values, which the
    ``history_gen`` anchor never does); and what is loaded back from them is
    the signature the in-memory ``fault`` anchor pins."""
    anchors = json.loads((FIXTURES / "replay_digests.json").read_text())
    result = run_scenario(*fault_scenario(
        seed=0, duration=2.0, faults=[(0.4, "fail_switch", "S1")],
        history_mode="spill", run_dir=tmp_path))
    assert result.ok(), result.failures
    found = {name.replace(".", "_") + "_sha256":
             hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
             for name in ("ops.ndjson", "index.bin", "index.json")}
    found.update(completed_ops=result.completed_ops, failed_ops=result.failed_ops)
    assert found == anchors["spill"]
    assert signature_digest(result) == \
        anchors["fault"]["signature_sha256"]


class CountingCache(VerdictCache):
    """A verdict cache that counts its lookups, hits or not."""

    lookups = 0

    def get(self, digest):
        self.lookups += 1
        return super().get(digest)


def test_scenario_spill_shares_verdicts_only_for_deferred_keys(tmp_path, monkeypatch):
    """The verdict cache serves the keys the version witness defers.  A
    spill run whose every key is witnessed never reads a key back, looks
    the cache up or fills it; a run where one key carries no version (so
    the witness defers it) memoizes exactly that key, and the same run
    again is served that key from the cache."""
    reads = []
    ops_for_key = HistoryStore.ops_for_key
    monkeypatch.setattr(HistoryStore, "ops_for_key",
                        lambda store, key: reads.append(key) or ops_for_key(store, key))
    cache = CountingCache()
    witnessed = run_scenario(SPEC, WORKLOAD, ScenarioChecks(
        history_mode="spill", run_dir=tmp_path / "a", verdict_cache=cache))
    report = witnessed.linearizability
    assert report.ok and report.witnessed == len(report.keys) == SPEC.store_size
    assert (reads, cache.lookups, len(cache), witnessed.verdict_cache_hits) == ([], 0, 0, 0)

    fill_response = history_store.fill_response

    def unversioned(record, result, now):
        fill_response(record, result, now)
        if record.key == b"k00000003":
            record.version = None

    monkeypatch.setattr(history_store, "fill_response", unversioned)
    first = run_scenario(SPEC, WORKLOAD, ScenarioChecks(
        history_mode="spill", run_dir=tmp_path / "b", verdict_cache=cache))
    second = run_scenario(SPEC, WORKLOAD, ScenarioChecks(
        history_mode="spill", run_dir=tmp_path / "c", verdict_cache=cache))
    for result in (first, second):
        assert result.ok(), result.failures
        assert result.linearizability.witnessed == SPEC.store_size - 1
    assert reads == [b"k00000003"]  # the second run's verdict came from the cache
    assert (first.verdict_cache_hits, second.verdict_cache_hits) == (0, 1)
    assert cache.lookups == 2 and len(cache) == 1


def test_scenario_rejects_unknown_history_mode():
    with pytest.raises(ValueError, match="history_mode"):
        run_scenario(SPEC, WORKLOAD, ScenarioChecks(history_mode="disk"))


# --------------------------------------------------------------------- #
# Bounded memory.
# --------------------------------------------------------------------- #

def test_spill_pipeline_peaks_well_below_in_memory(tmp_path):
    """The acceptance bound: spilling + streaming verification must peak
    at <= 1/4 of the in-memory equivalent (same ops, same checker
    semantics).  Measured with tracemalloc since RSS high-water marks are
    monotonic within one process."""
    params = dict(clients=8, keys=96, ops=30_000, timeout_rate=0.01)
    seed = 23

    tracemalloc.start()
    ops = list(iter_history(seed, **params))  # buffered, like History.ops
    in_memory = check_linearizable(ops, initial=initial_values(96))
    _, memory_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert in_memory.ok
    del ops

    tracemalloc.start()
    with HistoryWriter(tmp_path / "run") as writer:
        for op in iter_history(seed, **params):  # streamed, never buffered
            writer.append(op)
    streamed = check_linearizable_streaming(HistoryStore(tmp_path / "run"),
                                            initial=initial_values(96))
    _, spill_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert streamed.ok
    assert streamed.total_ops == in_memory.total_ops == 30_000

    assert spill_peak * 4 <= memory_peak, \
        f"spill pipeline peaked at {spill_peak} vs {memory_peak} in-memory"
