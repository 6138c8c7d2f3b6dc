"""Out-of-core operation histories: NDJSON spill, indexes, streaming checks.

:mod:`repro.core.history` buffers every invocation in memory and checks
linearizability post-hoc, which caps verified runs at what one process can
hold.  This module removes that cap without weakening the check:

* **NDJSON as the source of truth** -- :class:`HistoryWriter` appends one
  JSON record per completed operation to ``<run_dir>/ops.ndjson``
  (versioned schema ``history/v1``), flushed incrementally, so a run of
  any size spills with bounded memory.
* **Disposable per-key offset indexes** -- the writer derives
  ``index.bin`` (packed little-endian ``uint64`` byte offsets, mmapped by
  readers) plus ``index.json`` (per-key slice table and content hashes)
  during the run.  The index owns no data: delete it and
  :func:`rebuild_index` regenerates it from the NDJSON alone.
* **Streaming verification** -- :func:`check_linearizable_streaming`
  drives the per-key window checker
  (:func:`repro.core.history.check_key_linearizable`) over per-key
  streams, fanning keys out to a ``multiprocessing`` worker pool as each
  key's stream is read, so memory is bounded by the largest single key
  stream plus the dispatch window -- never the whole run.
* **Verdict memoization** -- per-key verdicts are cached by a digest of
  (key-stream content hash, initial value, state budget, checker
  version), so re-running a scenario matrix re-checks only key streams
  that actually changed.

Recording at scale uses :class:`SpillingHistory`, a drop-in recording
surface for :class:`repro.core.history.History`: completed operations are
appended to the run directory and released from memory immediately; only
in-flight operations stay resident.

A spilled run re-checks offline, and ``generate`` spills a seeded synthetic
one (:mod:`repro.core.history_gen`) of any size to check::

    PYTHONPATH=src python -m repro history generate <run_dir> --ops 1000000
    PYTHONPATH=src python -m repro history check <run_dir>
    PYTHONPATH=src python -m repro history index <run_dir>  # rebuild
    PYTHONPATH=src python -m repro history info <run_dir>

Record schema (``history/v1``): a :mod:`repro.artifacts` NDJSON stream --
header line, then one record per line.  Fields -- ``id``,
``client``, ``op``, ``key``, ``inv`` (invocation time) always; ``ret``
(return time) and ``ok`` when the operation completed; ``value``,
``expected``, ``out`` when present; ``nf``/``cf``/``to`` (not-found /
cas-failed / timed-out) when true; ``r`` (retries) when non-zero; ``ver``
(version pair) when the backend reported one.  Bytes fields are plain
ASCII when printable, else ``"hex:<digits>"``.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import multiprocessing
import struct
import sys
from array import array
from collections import deque
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.artifacts import (
    NdjsonWriter,
    TruncatedArtifactError,
    read_header,
    scan,
    write_json,
)
from repro.core.client import canonical_key
from repro.core.history import (
    MISSING,
    HistoryOp,
    KeyReport,
    LinearizabilityReport,
    check_key_linearizable,
    fill_response,
    version_violations_of,
)

SCHEMA = "history/v1"
INDEX_SCHEMA = "history-index/v1"

OPS_FILE = "ops.ndjson"
INDEX_BIN = "index.bin"
INDEX_JSON = "index.json"

#: Bumped whenever checker semantics change; part of every verdict digest,
#: so a semantic change invalidates memoized verdicts wholesale.
CHECKER_VERSION = 2

#: Marker distinguishing "key starts missing" from "key starts empty" in
#: verdict digests (``b""`` is a legitimate initial value).
_MISSING_MARK = "<missing>"


# --------------------------------------------------------------------- #
# Record encoding.
# --------------------------------------------------------------------- #

def encode_bytes(data: Optional[bytes]) -> Optional[str]:
    """JSON-safe spelling of a bytes field: plain ASCII when printable,
    ``hex:`` otherwise; ``None`` stays ``None``."""
    if data is None:
        return None
    if data.isascii() and not data.startswith(b"hex:"):
        text = data.decode("ascii")
        if text.isprintable():  # of ASCII, exactly 0x20-0x7E
            return text
    return "hex:" + data.hex()


def decode_bytes(text: Optional[str]) -> Optional[bytes]:
    """Inverse of :func:`encode_bytes`."""
    if text is None:
        return None
    if text.startswith("hex:"):
        return bytes.fromhex(text[4:])
    return text.encode("ascii")


def op_to_record(op: HistoryOp) -> Dict[str, Any]:
    """One :class:`HistoryOp` as a ``history/v1`` record dict.

    Default-valued fields are omitted so lines stay small at million-op
    scale; :func:`record_to_op` restores the defaults.
    """
    record: Dict[str, Any] = {
        "id": op.op_id,
        "client": op.client,
        "op": op.op,
        "key": encode_bytes(op.key),
        "inv": op.invoked_at,
    }
    if op.value is not None:
        record["value"] = encode_bytes(op.value)
    if op.expected is not None:
        record["expected"] = encode_bytes(op.expected)
    if op.returned_at is not None:
        record["ret"] = op.returned_at
    if op.ok is not None:
        record["ok"] = op.ok
    if op.output is not None:
        record["out"] = encode_bytes(op.output)
    if op.not_found:
        record["nf"] = True
    if op.cas_failed:
        record["cf"] = True
    if op.timed_out:
        record["to"] = True
    if op.retries:
        record["r"] = op.retries
    if op.version is not None:
        record["ver"] = list(op.version)
    return record


def record_to_op(record: Dict[str, Any]) -> HistoryOp:
    """Load one record dict back into a :class:`HistoryOp`.

    Keys are canonicalized on load, so a fixture written with the padded
    wire spelling lands in the same per-key stream as the live recording.
    """
    version = record.get("ver")
    return HistoryOp(
        op_id=int(record["id"]),
        client=record["client"],
        op=record["op"],
        key=canonical_key(decode_bytes(record["key"])),
        value=decode_bytes(record.get("value")),
        expected=decode_bytes(record.get("expected")),
        invoked_at=float(record["inv"]),
        returned_at=(float(record["ret"]) if "ret" in record else None),
        ok=record.get("ok"),
        output=decode_bytes(record.get("out")),
        not_found=bool(record.get("nf", False)),
        cas_failed=bool(record.get("cf", False)),
        timed_out=bool(record.get("to", False)),
        retries=int(record.get("r", 0)),
        version=(tuple(version) if version is not None else None),
    )


# --------------------------------------------------------------------- #
# Writing.
# --------------------------------------------------------------------- #

class _IndexBuilder:
    """The derived index of a record stream, accumulated record by record."""

    def __init__(self) -> None:
        #: Per-key byte offsets; ``array('Q')`` keeps a million offsets at
        #: 8 bytes each instead of a Python int object apiece.
        self.offsets: Dict[bytes, array] = {}
        self.hashes: Dict[bytes, Any] = {}
        self.total_ops = 0
        self.completed_ops = 0

    def add(self, op: HistoryOp, offset: int, line: bytes) -> None:
        offsets = self.offsets.get(op.key)
        if offsets is None:
            offsets = self.offsets[op.key] = array("Q")
            self.hashes[op.key] = hashlib.sha256()
        offsets.append(offset)
        self.hashes[op.key].update(line)
        self.total_ops += 1
        if op.completed:
            self.completed_ops += 1

    def write(self, run_dir: Path, data_bytes: int, meta: Dict[str, Any]) -> None:
        """Persist ``index.bin`` + ``index.json`` (deterministic key order)."""
        table: Dict[str, Any] = {}
        start = 0
        with open(run_dir / INDEX_BIN, "wb") as bin_file:
            for key in sorted(self.offsets, key=encode_bytes):
                arr = self.offsets[key]
                if sys.byteorder != "little":
                    arr = array("Q", arr)
                    arr.byteswap()
                bin_file.write(arr.tobytes())
                table[encode_bytes(key)] = {
                    "start": start,
                    "count": len(arr),
                    "sha256": self.hashes[key].hexdigest(),
                }
                start += len(arr)
        write_json(run_dir / INDEX_JSON, {
            "schema": INDEX_SCHEMA,
            "data_bytes": data_bytes,
            "total_ops": self.total_ops,
            "completed_ops": self.completed_ops,
            "meta": meta,
            "keys": table,
        })


class HistoryWriter:
    """Appends completed operations to a run directory as NDJSON.

    The per-key offset index and per-key content hashes are derived while
    writing -- no second pass over the data -- and persisted on
    :meth:`close` as ``index.bin`` + ``index.json``.  ``initial`` (the
    keys' starting values) is recorded as ``meta["initial"]``, which
    :meth:`HistoryStore.initial_values` reads back, so the run dir can be
    re-checked with nothing else in hand.
    """

    def __init__(self, run_dir, meta: Optional[Dict[str, Any]] = None,
                 initial: Optional[Dict[bytes, Optional[bytes]]] = None) -> None:
        self.run_dir = Path(run_dir)
        self.meta = dict(meta or {})
        if initial is not None:
            self.meta["initial"] = {
                encode_bytes(canonical_key(key)): encode_bytes(value)
                for key, value in initial.items()}
        self.ops_path = self.run_dir / OPS_FILE
        self._stream = NdjsonWriter(self.ops_path, SCHEMA, meta=self.meta)
        self._index = _IndexBuilder()
        self.closed = False

    def append(self, op: HistoryOp) -> None:
        """Append one operation record and index it."""
        if self.closed:
            raise RuntimeError("HistoryWriter already closed")
        op.key = canonical_key(op.key)  # spilled records carry the canonical spelling
        stream = self._stream
        offset = stream.offset
        self._index.add(op, offset, stream.write(op_to_record(op)))

    def close(self) -> None:
        """Flush the data file and persist the derived index."""
        if self.closed:
            return
        self.closed = True
        self._stream.close()
        self._index.write(self.run_dir, self._stream.offset, self.meta)

    def __enter__(self) -> "HistoryWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------------------- #
# Reading.
# --------------------------------------------------------------------- #

class HistoryStore:
    """Read side of a spilled run: mmapped index, per-key record streams.

    The NDJSON file remains the source of truth; this object only follows
    the derived offsets, so per-key access never scans the whole run.
    """

    def __init__(self, run_dir) -> None:
        self.run_dir = Path(run_dir)
        self.ops_path = self.run_dir / OPS_FILE
        index_path = self.run_dir / INDEX_JSON
        if not index_path.exists():
            raise FileNotFoundError(
                f"{index_path} missing -- rebuild with rebuild_index() or "
                f"`python -m repro history index {self.run_dir}`")
        index = json.loads(index_path.read_text(encoding="utf-8"))
        if index.get("schema") != INDEX_SCHEMA:
            raise ValueError(f"{index_path}: unsupported index schema "
                             f"{index.get('schema')!r}")
        self.meta: Dict[str, Any] = index.get("meta", {})
        self.total_ops: int = index["total_ops"]
        self.completed_ops: int = index.get("completed_ops", 0)
        self.data_bytes: int = index["data_bytes"]
        self._table: Dict[bytes, Dict[str, Any]] = {
            decode_bytes(name): entry for name, entry in index["keys"].items()}
        self._data = open(self.ops_path, "rb")
        bin_path = self.run_dir / INDEX_BIN
        self._bin_file = open(bin_path, "rb")
        size = bin_path.stat().st_size
        self._mmap = (mmap.mmap(self._bin_file.fileno(), 0,
                                access=mmap.ACCESS_READ) if size else None)

    # -- views ----------------------------------------------------------- #

    def keys(self) -> List[bytes]:
        """Canonical keys, in deterministic (encoded-name) order."""
        return sorted(self._table, key=encode_bytes)

    def key_count(self, key) -> int:
        entry = self._table.get(canonical_key(key))
        return entry["count"] if entry else 0

    def key_digest(self, key) -> Optional[str]:
        """Content hash (sha256 hex) of one key's record stream."""
        entry = self._table.get(canonical_key(key))
        return entry["sha256"] if entry else None

    def offsets_for_key(self, key) -> List[int]:
        """Byte offsets of one key's records, via the mmapped index."""
        entry = self._table.get(canonical_key(key))
        if entry is None or self._mmap is None:
            return []
        start, count = entry["start"], entry["count"]
        return list(struct.unpack_from(f"<{count}Q", self._mmap, start * 8))

    def ops_for_key(self, key) -> List[HistoryOp]:
        """One key's operations, in record (completion) order."""
        return [self._read_op(offset) for offset in self.offsets_for_key(key)]

    def _read_op(self, offset: int) -> HistoryOp:
        self._data.seek(offset)
        line = self._data.readline()
        if not line.endswith(b"\n"):
            raise TruncatedArtifactError(
                self.ops_path, offset, "record cut short (stale index?)")
        try:
            return record_to_op(json.loads(line))
        except (ValueError, KeyError) as exc:
            raise TruncatedArtifactError(
                self.ops_path, offset, f"unparseable record ({exc})") from None

    def iter_ops(self) -> Iterator[HistoryOp]:
        """Stream every indexed operation in file (completion) order.

        Bounded by the index's ``data_bytes``: after an ``allow_truncated``
        rebuild this iterates exactly the intact prefix.
        """
        for _offset, _line, record in scan(self.ops_path, SCHEMA,
                                           limit=self.data_bytes):
            yield record_to_op(record)

    def initial_values(self) -> Optional[Dict[bytes, Optional[bytes]]]:
        """The initial key values recorded in the run metadata, if any."""
        encoded = self.meta.get("initial")
        if encoded is None:
            return None
        return {canonical_key(decode_bytes(name)): decode_bytes(value)
                for name, value in encoded.items()}

    def version_violations(self) -> List[str]:
        return version_violations_of(self.iter_ops())

    def __len__(self) -> int:
        return self.total_ops

    def close(self) -> None:
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        self._bin_file.close()
        self._data.close()

    def __enter__(self) -> "HistoryStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def rebuild_index(run_dir, allow_truncated: bool = False
                  ) -> Tuple[int, Optional[int]]:
    """Regenerate the index from ``ops.ndjson`` alone.

    Returns ``(total_ops, truncated_at)``.  A truncated or corrupt tail
    raises :class:`~repro.artifacts.TruncatedArtifactError` unless
    ``allow_truncated`` is set, in which case the index covers the intact
    prefix and ``truncated_at`` is the byte offset where it ends.
    """
    run_dir = Path(run_dir)
    path = run_dir / OPS_FILE
    index = _IndexBuilder()
    meta: Dict[str, Any] = {}
    end = 0
    truncated_at: Optional[int] = None
    try:
        meta = read_header(path, SCHEMA)
        for offset, line, record in scan(path, SCHEMA):
            index.add(record_to_op(record), offset, line)
            end = offset + len(line)
    except TruncatedArtifactError as exc:
        if not allow_truncated:
            raise
        truncated_at = end = exc.offset
    index.write(run_dir, end, meta)
    return index.total_ops, truncated_at


# --------------------------------------------------------------------- #
# Recording with spill.
# --------------------------------------------------------------------- #

class SpillingHistory:
    """A recording surface that spills completed operations to disk.

    Drop-in for :class:`repro.core.history.History` wherever only the
    recording protocol (``invoke``/``complete``) is used --
    :class:`repro.workloads.clients.LoadClient`,
    :class:`repro.core.history.RecordingClient`.  Completed operations are
    appended to the run directory and released immediately; only in-flight
    operations stay in memory, so peak residency is the concurrency, not
    the run length.  Call :meth:`finish` after the run: still-pending
    (ambiguous) operations are spilled too, in invocation order, and the
    derived index is written.
    """

    def __init__(self, sim, run_dir,
                 initial: Optional[Dict[bytes, Optional[bytes]]] = None,
                 meta: Optional[Dict[str, Any]] = None) -> None:
        self.sim = sim
        self.writer = HistoryWriter(run_dir, meta=meta, initial=initial)
        self.run_dir = self.writer.run_dir
        self._pending: Dict[int, HistoryOp] = {}
        self._ids = 0
        self._store: Optional[HistoryStore] = None

    # -- recording (History-compatible) ---------------------------------- #

    def invoke(self, client: str, op: str, key, value=None, expected=None) -> HistoryOp:
        record = HistoryOp(op_id=self._ids, client=client, op=op,
                           key=canonical_key(key),
                           value=None if value is None else bytes(value),
                           expected=None if expected is None else bytes(expected),
                           invoked_at=self.sim.now)
        self._ids += 1
        self._pending[record.op_id] = record
        return record

    def complete(self, record: HistoryOp, result) -> None:
        fill_response(record, result, self.sim.now)
        self.writer.append(record)
        self._pending.pop(record.op_id, None)

    def finish(self) -> HistoryStore:
        """Spill still-pending (ambiguous) ops, close, return the store."""
        if self._store is None:
            for op_id in sorted(self._pending):
                self.writer.append(self._pending[op_id])
            self._pending.clear()
            self.writer.close()
            self._store = HistoryStore(self.run_dir)
        return self._store

    # -- History-shaped views (post-finish) ------------------------------- #

    def __len__(self) -> int:
        return self._ids

    def iter_ops(self) -> Iterator[HistoryOp]:
        return self.finish().iter_ops()


# --------------------------------------------------------------------- #
# Verdict memoization.
# --------------------------------------------------------------------- #

def _report_to_dict(report: KeyReport) -> Dict[str, Any]:
    return {"key": encode_bytes(report.key), "ok": report.ok,
            "ops": report.ops, "ambiguous_ops": report.ambiguous_ops,
            "states_explored": report.states_explored,
            "exhausted": report.exhausted, "message": report.message}


def _report_from_dict(data: Dict[str, Any]) -> KeyReport:
    return KeyReport(key=decode_bytes(data["key"]), ok=data["ok"],
                     ops=data["ops"], ambiguous_ops=data["ambiguous_ops"],
                     states_explored=data["states_explored"],
                     exhausted=data["exhausted"], message=data["message"])


class VerdictCache:
    """Memoized per-key verdicts, keyed by key-stream content digest.

    The digest covers the key's record bytes, the initial value, the state
    budget and the checker version -- everything the verdict depends on --
    so a hit is exactly "this key stream was already decided".  One cache
    instance can serve a whole seed x backend x fault matrix; pass ``path``
    to persist hits across processes/runs.
    """

    def __init__(self, path=None) -> None:
        self.path = Path(path) if path is not None else None
        self._entries: Dict[str, Dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0
        if self.path is not None and self.path.exists():
            self._entries = json.loads(self.path.read_text(encoding="utf-8"))

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, digest: str) -> Optional[KeyReport]:
        entry = self._entries.get(digest)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return _report_from_dict(entry)

    def put(self, digest: str, report: KeyReport) -> None:
        self._entries[digest] = _report_to_dict(report)

    def save(self) -> None:
        if self.path is None:
            raise ValueError("VerdictCache was created without a path")
        write_json(self.path, self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


#: Process-wide default cache: scenario matrices share it so a repeated
#: (seed, backend, fault schedule) combination skips re-checking.
_DEFAULT_CACHE = VerdictCache()


def default_verdict_cache() -> VerdictCache:
    return _DEFAULT_CACHE


def verdict_digest(stream_sha256: str, initial: Optional[bytes],
                   state_budget: int) -> str:
    """The memoization key for one (key stream, initial, budget) verdict."""
    parts = "|".join([
        stream_sha256,
        _MISSING_MARK if initial is MISSING else encode_bytes(initial),
        str(state_budget),
        f"checker-v{CHECKER_VERSION}",
    ])
    return hashlib.sha256(parts.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- #
# The streaming checker.
# --------------------------------------------------------------------- #

def _check_key_task(args) -> Tuple[bytes, KeyReport]:
    """Worker-pool unit: one key's stream through the window search."""
    key, ops, initial, state_budget = args
    return key, check_key_linearizable(ops, initial, state_budget)


def _as_store(source) -> HistoryStore:
    if isinstance(source, HistoryStore):
        return source
    if isinstance(source, SpillingHistory):
        return source.finish()
    return HistoryStore(source)


def check_linearizable_streaming(
        source: Union[HistoryStore, SpillingHistory, str, Path],
        initial: Optional[Dict[bytes, Optional[bytes]]] = None,
        state_budget: int = 500_000,
        workers: int = 0,
        cache: Optional[VerdictCache] = None) -> LinearizabilityReport:
    """Per-key linearizability of a spilled run, with bounded memory.

    Key streams are read one at a time through the offset index and handed
    to the existing per-key checker -- in-process when ``workers`` is 0,
    else through a ``multiprocessing`` pool with a bounded dispatch window
    (at most ``2 * workers`` key streams in flight), so peak memory is the
    largest key stream times the window, independent of run size.

    The verdict for every key stream is memoized in ``cache`` (pass
    :func:`default_verdict_cache` to share across a scenario matrix);
    ``report.cache_hits`` counts the keys that skipped the search.  The
    returned report is bit-identical to
    :func:`repro.core.history.check_linearizable` over the same history.

    Args:
        source: a :class:`HistoryStore`, a (finished or unfinished)
            :class:`SpillingHistory`, or a run-directory path.
        initial: starting value per key; defaults to the run metadata's
            recorded initial values when present.
        state_budget: per-key search-state cap (as the in-memory checker).
        workers: worker processes; 0 checks in-process.  Falls back to
            in-process when the platform cannot fork.
        cache: verdict memoization (``None`` disables it).
    """
    store = _as_store(source)
    if initial is None:
        initial = store.initial_values()
    initial = {canonical_key(key): value
               for key, value in (initial or {}).items()}
    report = LinearizabilityReport(ok=True, total_ops=store.total_ops)
    results: Dict[bytes, KeyReport] = {}
    to_check: List[bytes] = []
    for key in store.keys():
        digest = verdict_digest(store.key_digest(key),
                                initial.get(key, MISSING), state_budget)
        cached = cache.get(digest) if cache is not None else None
        if cached is not None:
            results[key] = cached
            report.cache_hits += 1
        else:
            to_check.append(key)

    def record(key: bytes, key_report: KeyReport) -> None:
        results[key] = key_report
        if cache is not None:
            digest = verdict_digest(store.key_digest(key),
                                    initial.get(key, MISSING), state_budget)
            cache.put(digest, key_report)

    if workers and "fork" not in multiprocessing.get_all_start_methods():
        workers = 0  # spawn would re-import the world per key; stay serial
    if workers and to_check:
        ctx = multiprocessing.get_context("fork")
        window = 2 * workers
        with ctx.Pool(workers) as pool:
            in_flight: deque = deque()
            for key in to_check:
                while len(in_flight) >= window:
                    done_key, key_report = in_flight.popleft().get()
                    record(done_key, key_report)
                task = (key, store.ops_for_key(key),
                        initial.get(key, MISSING), state_budget)
                in_flight.append(pool.apply_async(_check_key_task, (task,)))
            while in_flight:
                done_key, key_report = in_flight.popleft().get()
                record(done_key, key_report)
    else:
        for key in to_check:
            record(key, check_key_linearizable(
                store.ops_for_key(key), initial.get(key, MISSING), state_budget))

    report.keys = {key: results[key] for key in store.keys()}
    report.ok = all(key_report.ok for key_report in report.keys.values())
    return report
