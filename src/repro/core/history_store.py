"""Out-of-core operation histories: NDJSON spill, indexes, streaming checks.

:mod:`repro.core.history` buffers every invocation in memory and checks
linearizability post-hoc, which caps verified runs at what one process can
hold.  This module removes that cap without weakening the check:

* **NDJSON as the source of truth** -- :class:`HistoryWriter` appends one
  record per completed operation to ``<run_dir>/ops.ndjson`` (schema
  ``history/v1``, one :func:`op_line` template), flushed incrementally, so
  a run of any size spills with bounded memory.
* **Disposable per-key offset indexes** -- the writer derives
  ``index.bin`` (packed little-endian ``uint64`` byte offsets, mmapped by
  readers) plus ``index.json`` (per-key slice table and content hashes)
  during the run.  The index owns no data: delete it and
  :func:`rebuild_index` regenerates it from the NDJSON alone.  A reader
  refuses an index whose sizes do not fit the files beside it, and a key's
  lines (read at their offsets; mapping ``ops.ndjson`` would make its pages
  RSS) unless they hash to the key's ``sha256``; it parses them as one array.
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
* **Streaming replay digest** -- :meth:`SpillingHistory.iter_ops_by_id`
  re-reads a recorded run in op-id order, 256 records at a time, through
  one 8-byte offset per op id that the writer noted as it wrote; the
  replay digest (:func:`repro.deploy.matrix.signature_digest`) hashes
  that stream, so it too holds a chunk, never the run.

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
import itertools
import json
import mmap
import os
import struct
import sys
from array import array
from collections import deque
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.artifacts import (
    NdjsonWriter,
    TruncatedArtifactError,
    read_header,
    record_line,
    scan,
    write_json,
)
from repro.core.client import canonical_key
from repro.core.history import (
    MISSING,
    ClientVersions,
    HistoryOp,
    KeyReport,
    LinearizabilityReport,
    VersionWitness,
    check_key_linearizable,
    fill_response,
    searched,
    version_violations_of,
    witness_key,
)

SCHEMA = "history/v1"
INDEX_SCHEMA = "history-index/v1"

OPS_FILE = "ops.ndjson"
INDEX_BIN = "index.bin"
INDEX_JSON = "index.json"

#: Bumped whenever checker semantics change; part of every verdict digest,
#: so a semantic change invalidates memoized verdicts wholesale.
CHECKER_VERSION = 2

#: Bytes read at an offset to find a record's newline (a longer one is read again
#: as a line), and what loading a line that is no ``history/v1`` record raises.
_LINE_READ = 1024
_BAD_RECORD = (ValueError, LookupError, TypeError, AttributeError)

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


#: Bounded memos of what recurs: bytes fields (64 keys, repeated values) spelled and
#: decoded, times spelled (a closed loop invokes an op when the last one returns).
_spelled = lru_cache(1024)(lambda data: encode_basestring_ascii(encode_bytes(data)))
_spelled_time = lru_cache(256)(float.__repr__)
_decoded = lru_cache(1024)(decode_bytes)


def op_to_record(op: HistoryOp) -> Dict[str, Any]:
    """One :class:`HistoryOp` as a ``history/v1`` record dict (the reference spelling).

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


def op_line(op: HistoryOp) -> str:
    """The text of ``record_line(op_to_record(op))``, spelled directly: one
    template in sorted-key order, an absent field an empty string.  Fields
    of exactly the types a recording fills in take it; anything else (an
    ``int`` time, a ``bool`` id, NaN) is left to the reference spelling.
    """
    op_id, inv, ret, ok, retries = op.op_id, op.invoked_at, op.returned_at, op.ok, op.retries
    key, value, expected, out, ver = op.key, op.value, op.expected, op.output, op.version
    if not (type(op_id) is int and type(inv) is float and inv - inv == 0.0
            and type(op.client) is str and type(op.op) is str
            and type(key) is bytes and (value is None or type(value) is bytes)
            and (expected is None or type(expected) is bytes)
            and (out is None or type(out) is bytes)
            and (ret is None or type(ret) is float and ret - ret == 0.0)
            and (ok is None or ok is True or ok is False)
            and (not retries or type(retries) is int)
            and (ver is None or type(ver) is tuple and len(ver) == 2
                 and type(ver[0]) is int and type(ver[1]) is int)):
        return record_line(op_to_record(op)).decode("ascii")
    esc, spelled, stamp = encode_basestring_ascii, _spelled, _spelled_time
    return '{%s"client":%s,%s"id":%d,"inv":%s,"key":%s,%s%s"op":%s%s%s%s%s%s%s}\n' % (
        '"cf":true,' if op.cas_failed else "", esc(op.client),
        "" if expected is None else '"expected":%s,' % spelled(expected),
        op_id, stamp(inv) if inv else repr(inv), spelled(key),  # -0.0 == 0.0: not memoized
        '"nf":true,' if op.not_found else "",
        "" if ok is None else '"ok":true,' if ok else '"ok":false,', esc(op.op),
        "" if out is None else ',"out":%s' % spelled(out),
        ',"r":%d' % retries if retries else "",
        "" if ret is None else ',"ret":%s' % (stamp(ret) if ret else repr(ret)),
        ',"to":true' if op.timed_out else "",
        "" if value is None else ',"value":%s' % spelled(value),
        "" if ver is None else ',"ver":[%d,%d]' % ver)


def record_to_op(record: Dict[str, Any]) -> HistoryOp:
    """Load one record dict back into a :class:`HistoryOp`."""
    get, decoded = record.get, _decoded
    ret, version = get("ret"), get("ver")
    return HistoryOp(
        int(record["id"]), record["client"], record["op"],
        decoded(record["key"]), decoded(get("value")),
        decoded(get("expected")), float(record["inv"]),
        None if ret is None else float(ret), get("ok"), decoded(get("out")),
        bool(get("nf", False)), bool(get("cf", False)), bool(get("to", False)),
        int(get("r", 0)), None if version is None else tuple(version))


# --------------------------------------------------------------------- #
# Writing.
# --------------------------------------------------------------------- #

class _IndexBuilder:
    """The derived index of a record stream, accumulated record by record."""

    def __init__(self) -> None:
        #: Per key, its byte offsets (``array('Q')``: 8 bytes each, not a Python
        #: int object apiece) and the running sha256 of its lines.
        self.streams: Dict[bytes, Tuple[array, Any]] = {}
        self.total_ops = 0
        self.completed_ops = 0

    def add(self, op: HistoryOp, offset: int, line: bytes) -> None:
        stream = self.streams.get(op.key)
        if stream is None:
            stream = self.streams[op.key] = (array("Q"), hashlib.sha256())
        stream[0].append(offset)
        stream[1].update(line)
        self.total_ops += 1
        if op.returned_at is not None:
            self.completed_ops += 1

    def write(self, run_dir: Path, data_bytes: int, meta: Dict[str, Any]) -> None:
        """Persist ``index.bin`` + ``index.json`` (deterministic key order)."""
        table: Dict[str, Any] = {}
        start = 0
        with open(run_dir / INDEX_BIN, "wb") as bin_file:
            for key in sorted(self.streams, key=encode_bytes):
                arr, digest = self.streams[key]
                if sys.byteorder != "little":
                    arr = array("Q", arr)
                    arr.byteswap()
                bin_file.write(arr.tobytes())
                table[encode_bytes(key)] = {
                    "start": start,
                    "count": len(arr),
                    "sha256": digest.hexdigest(),
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
        self._batch: List[HistoryOp] = []
        #: Set by :class:`SpillingHistory`, whose op ids are dense from 0: each
        #: record's byte offset, stored at its op id as it is written.
        self.offsets_by_id: Optional[array] = None

    def append(self, op: HistoryOp) -> None:
        """Append one operation, final as handed in (its key canonical, as
        every recorder spells it): records are spelled and indexed 256 at a
        time, in append order, so the code doing it runs warm."""
        if self._stream.closed:
            raise RuntimeError("HistoryWriter already closed")
        self._batch.append(op)
        if len(self._batch) >= 256:
            self._spill()

    def _spill(self) -> None:
        stream, add, by_id = self._stream, self._index.add, self.offsets_by_id
        for op in self._batch:
            if by_id is not None:
                by_id[op.op_id] = stream.offset
            add(op, stream.offset, stream.write_bytes(op_line(op).encode("ascii")))
        self._batch.clear()

    def close(self) -> None:
        """Flush the data file and persist the derived index."""
        if self._stream.closed:
            return
        self._spill()
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
        index_path, bin_path = self.run_dir / INDEX_JSON, self.run_dir / INDEX_BIN
        self._rebuild = f"rebuild it with `python -m repro history index {self.run_dir}`"
        if not index_path.exists():
            raise FileNotFoundError(f"{index_path} missing -- {self._rebuild}")
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
        # The index says what to read, so it must describe the files beside
        # it: every indexed byte there, one offset per indexed op.
        data_size = self.ops_path.stat().st_size
        if self.data_bytes > data_size:
            raise TruncatedArtifactError(self.ops_path, data_size, (
                f"the index covers {self.data_bytes} bytes -- {self._rebuild}"))
        indexed = 8 * sum(entry["count"] for entry in self._table.values())
        bin_size = bin_path.stat().st_size if bin_path.exists() else "no"
        if not bin_size == indexed == 8 * self.total_ops:
            raise ValueError(
                f"{bin_path} holds {bin_size} bytes, {index_path.name} indexes "
                f"{self.total_ops} ops in {indexed} -- {self._rebuild}")
        with open(bin_path, "rb") as bin_file:  # the mapping outlives the handle
            self._mmap = (mmap.mmap(bin_file.fileno(), 0, access=mmap.ACCESS_READ)
                          if bin_size else None)
        self._data = open(self.ops_path, "rb")

    # -- views ----------------------------------------------------------- #

    def keys(self) -> List[bytes]:
        """Canonical keys, in deterministic (encoded-name) order."""
        return sorted(self._table, key=encode_bytes)

    def key_digest(self, key) -> Optional[str]:
        """Content hash (sha256 hex) of one key's record stream."""
        entry = self._table.get(canonical_key(key))
        return entry["sha256"] if entry else None

    def ops_for_key(self, key) -> List[HistoryOp]:
        """One key's operations, in record (completion) order: its lines,
        read at their indexed offsets, must hash to the index's ``sha256`` for
        the key (which a cached verdict is keyed on) and parse as one array.
        """
        entry = self._table.get(canonical_key(key))
        if entry is None:
            return []
        offsets = struct.unpack_from(f"<{entry['count']}Q", self._mmap, entry["start"] * 8)
        lines = self._lines_at(offsets)
        if hashlib.sha256(b"".join(lines)).hexdigest() == entry["sha256"]:
            try:
                return [record_to_op(record) for record in
                        json.loads(b"[" + b",".join(lines) + b"]")]
            except _BAD_RECORD:
                pass
        raise self._bad_stream(encode_bytes(canonical_key(key)), offsets)

    def ops_at(self, offsets) -> List[HistoryOp]:
        """The operations recorded at these byte offsets, in the order given."""
        return [record_to_op(record) for record in
                json.loads(b"[" + b",".join(self._lines_at(offsets)) + b"]")]

    def _lines_at(self, offsets) -> List[bytes]:
        """The lines starting at these byte offsets, each read with ``pread``."""
        pread, fd, lines = os.pread, self._data.fileno(), []
        for offset in offsets:
            chunk = pread(fd, _LINE_READ, offset)
            end = chunk.find(b"\n") + 1
            lines.append(chunk[:end] if end else self._line_at(offset))
        return lines

    def _line_at(self, offset: int) -> bytes:
        self._data.seek(offset)
        return self._data.readline()

    def _bad_stream(self, name: str, offsets) -> ValueError:
        """Why a key's lines did not load: the first unreadable record by its
        byte offset, else an index that hashed other bytes."""
        for offset in offsets:
            line = self._line_at(offset)
            if not line.endswith(b"\n"):
                return TruncatedArtifactError(
                    self.ops_path, offset, "record cut short (stale index?)")
            try:
                record_to_op(json.loads(line))
            except _BAD_RECORD as exc:
                return TruncatedArtifactError(
                    self.ops_path, offset, f"unparseable record ({exc})")
        return ValueError(f"{self.ops_path}: stale index: the records of key {name!r} "
                          f"are not the ones it hashed -- {self._rebuild}")

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
        return {decode_bytes(name): decode_bytes(value)
                for name, value in encoded.items()}

    def version_violations(self) -> List[str]:
        return version_violations_of(self.iter_ops())

    def __len__(self) -> int:
        return self.total_ops

    def close(self) -> None:
        if self._mmap is not None:
            self._mmap.close()
        self._data.close()

    def __enter__(self) -> "HistoryStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def rebuild_index(run_dir, allow_truncated: bool = False) -> Tuple[int, Optional[int]]:
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

    Every invocation and completion also feeds :attr:`witness`, so the
    versions are checked as the ops complete and
    :func:`check_linearizable_streaming` re-reads only the keys it deferred.
    """

    def __init__(self, sim, run_dir,
                 initial: Optional[Dict[bytes, Optional[bytes]]] = None,
                 meta: Optional[Dict[str, Any]] = None) -> None:
        self.sim = sim
        self.writer = HistoryWriter(run_dir, meta=meta, initial=initial)
        #: One slot per op id, filled with the record's offset when it is written.
        self._offsets = self.writer.offsets_by_id = array("Q")
        self._pending: Dict[int, HistoryOp] = {}
        self._store: Optional[HistoryStore] = None
        self.witness = VersionWitness(initial)
        self.versions = ClientVersions()

    # -- recording (History-compatible) ---------------------------------- #

    def invoke(self, client: str, op: str, key, value=None, expected=None) -> HistoryOp:
        record = HistoryOp(len(self._offsets), client, op, canonical_key(key),
                           None if value is None else bytes(value),
                           None if expected is None else bytes(expected),
                           self.sim.now)
        self._offsets.append(0)
        self._pending[record.op_id] = record
        self.witness.invoke(record)
        self.versions.invoke(record)
        return record

    def complete(self, record: HistoryOp, result) -> None:
        fill_response(record, result, self.sim.now)
        self.writer.append(record)
        self._pending.pop(record.op_id, None)
        self.witness.complete(record)
        self.versions.complete(record)

    def finish(self) -> HistoryStore:
        """Spill still-pending (ambiguous) ops, close, return the store."""
        if self._store is None:
            for op_id in sorted(self._pending):
                self.writer.append(self._pending[op_id])
            self._pending.clear()
            self.writer.close()
            self._store = HistoryStore(self.writer.run_dir)
        return self._store

    # -- History-shaped views (post-finish) ------------------------------- #

    def __len__(self) -> int:
        return len(self._offsets)

    def iter_ops(self) -> Iterator[HistoryOp]:
        return self.finish().iter_ops()

    def iter_ops_by_id(self) -> Iterator[HistoryOp]:
        """Every operation in op-id (invocation) order, re-read 256 records at
        a time through the per-id offsets, so only those are ever resident."""
        store, offsets = self.finish(), self._offsets
        for start in range(0, len(offsets), 256):
            yield from store.ops_at(offsets[start:start + 256])


# --------------------------------------------------------------------- #
# Verdict memoization.
# --------------------------------------------------------------------- #

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
        if self.path is not None and self.path.exists():
            self._entries = json.loads(self.path.read_text(encoding="utf-8"))

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, digest: str) -> Optional[KeyReport]:
        entry = self._entries.get(digest)
        if entry is None:
            return None
        self.hits += 1
        return KeyReport(**dict(entry, key=decode_bytes(entry["key"])))

    def put(self, digest: str, report: KeyReport) -> None:
        self._entries[digest] = dict(vars(report), key=encode_bytes(report.key))

    def save(self) -> None:
        if self.path is None:
            raise ValueError("VerdictCache was created without a path")
        write_json(self.path, self._entries)


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


def check_linearizable_streaming(
        source: Union[HistoryStore, SpillingHistory, str, Path],
        initial: Optional[Dict[bytes, Optional[bytes]]] = None,
        state_budget: int = 500_000,
        workers: int = 0,
        cache: Optional[VerdictCache] = None) -> LinearizabilityReport:
    """Per-key linearizability of a spilled run, with bounded memory.

    The :class:`~repro.core.history.VersionWitness` decides first.  A
    :class:`SpillingHistory` fed it as its ops completed, so a key it
    witnessed is never read back; a run directory or :class:`HistoryStore`
    is read one key's stream at a time and the stream fed to a fresh one.
    Only the keys the witness defers reach the verdict cache and the search
    -- in-process when ``workers`` is 0, else through a
    ``multiprocessing`` pool with a bounded dispatch window (at most
    ``2 * workers`` key streams in flight), so peak memory is the largest
    key stream times the window, independent of run size.

    The search verdict of every deferred key is memoized in ``cache`` (pass
    :func:`default_verdict_cache` to share across a scenario matrix);
    ``report.cache_hits`` counts the keys that skipped the search and
    ``report.witnessed`` the keys that never needed it.  Every verdict
    equals :func:`repro.core.history.check_linearizable`'s over the same
    history.

    Args:
        source: a :class:`HistoryStore`, a (finished or unfinished)
            :class:`SpillingHistory`, or a run-directory path.
        initial: starting value per key; defaults to the run metadata's
            recorded initial values when present.
        state_budget: per-key search-state cap (as the in-memory checker).
        workers: worker processes for the deferred keys; 0 checks
            in-process.  Falls back to in-process when the platform cannot
            fork.
        cache: verdict memoization for the deferred keys (``None``
            disables it).
    """
    witness = None
    if isinstance(source, SpillingHistory):
        witness = source.witness
        source = source.finish()
    store = source if isinstance(source, HistoryStore) else HistoryStore(source)
    if initial is None:
        initial = store.initial_values()
    initial = {canonical_key(key): value
               for key, value in (initial or {}).items()}
    if witness is not None and witness.initial != initial:
        witness = None  # fed other initial values: decide each key afresh
    report = LinearizabilityReport(ok=True, total_ops=store.total_ops)
    results: Dict[bytes, KeyReport] = {}
    reasons: Dict[bytes, str] = {}
    digests: Dict[bytes, str] = {}

    def deferred() -> Iterator[Tuple[bytes, List[HistoryOp], Optional[bytes], int]]:
        """Decide what the witness and the cache can; yield a search task
        for every other key, its stream read only then."""
        for key in store.keys():
            ops, verdict, reason = None, None, ""
            if witness is not None:
                verdict, reason = witness.decide(key)
            if verdict is None and cache is not None:
                digests[key] = verdict_digest(store.key_digest(key),
                                              initial.get(key, MISSING), state_budget)
                cached = cache.get(digests[key])
                if cached is not None:
                    results[key] = cached
                    report.cache_hits += 1
                    continue
            if witness is None:
                ops = store.ops_for_key(key)
                verdict, reason = witness_key(ops, initial.get(key, MISSING))
            if verdict is not None:
                results[key] = verdict
                report.witnessed += 1
                continue
            reasons[key] = reason
            yield (key, store.ops_for_key(key) if ops is None else ops,
                   initial.get(key, MISSING), state_budget)

    def record(key: bytes, key_report: KeyReport) -> None:
        results[key] = key_report = searched(key_report, reasons[key])
        if cache is not None:
            cache.put(digests[key], key_report)

    tasks = deferred()
    first = next(tasks, None)  # a pool is forked only for a key to search
    tasks = itertools.chain([] if first is None else [first], tasks)
    ctx = None
    if workers and first is not None:
        import multiprocessing  # only a pool needs it
        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")  # spawn would re-import the world per key
    if ctx is not None:
        window = 2 * workers
        with ctx.Pool(workers) as pool:
            in_flight: deque = deque()
            for task in tasks:
                while len(in_flight) >= window:
                    record(*in_flight.popleft().get())
                in_flight.append(pool.apply_async(_check_key_task, (task,)))
            while in_flight:
                record(*in_flight.popleft().get())
    else:
        for task in tasks:
            record(*_check_key_task(task))

    report.keys = {key: results[key] for key in store.keys()}
    report.ok = all(key_report.ok for key_report in report.keys.values())
    return report
