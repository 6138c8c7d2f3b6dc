"""The run-directory artifact format: NDJSON streams and JSON documents.

Every stream a run spills (``history/v1`` operations, ``trace/v2`` traces,
metric series, control events) is one file of the same shape, and this
module is the only code that knows how it is spelled:

* line 1 is the header ``{"schema": <tag>}``, plus ``"meta": {...}`` when
  the writer was given any;
* every later line is one record -- sorted keys, compact separators,
  ASCII, ``\\n``-terminated -- so a seeded run's bytes are identical
  across replays and machines.

The NDJSON is the source of truth; whatever an index or report derives
from it is disposable.  Whole documents (``index.json``, matrix and
detlint reports) go through :func:`write_json`.  Stdlib only,
and nothing here imports from ``repro``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Records between explicit flushes of an :class:`NdjsonWriter`.
FLUSH_EVERY = 4096


class TruncatedArtifactError(ValueError):
    """An NDJSON file ends (or breaks) mid-record.

    ``offset`` is the byte offset of the first unreadable record: the
    intact prefix ends there, and ``scan(..., limit=offset)`` reads
    exactly that prefix.
    """

    def __init__(self, path, offset: int, reason: str) -> None:
        self.path = Path(path)
        self.offset = offset
        self.reason = reason
        super().__init__(
            f"{self.path}: truncated at byte offset {offset}: {reason}")


#: Any JSON value in the canonical spelling (ASCII by default), from one encoder.
_spell = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def record_line(record: Dict[str, Any]) -> bytes:
    """One record as its canonical line."""
    return _spell(record).encode("ascii") + b"\n"


#: Per declared field type: the test a value must pass for a shape's template
#: to spell it (only a finite float minus itself is 0.0), and what is formatted.
#: A float is looked up among the shape's earlier spellings first.
_FIELD = {
    int: ("type({0}) is int", "{0}"),
    float: ("type({0}) is float and {0} - {0} == 0.0", "(spelled({0}) or spell({0}))"),
    str: ("type({0}) is str", "esc({0})"),
}

#: Float spellings a shape remembers before it starts over.
SPELLED_FLOATS = 4096


def _float_speller(memo: Dict[float, str]):
    """``repr`` of a finite float, remembered in ``memo`` (stage sums and
    latencies repeat, and ``repr`` costs ~20 dict lookups).  Zero is never
    remembered: ``0.0 == -0.0``, but they are spelled apart."""
    def spell(value: float) -> str:
        text = repr(value)
        if value:
            if len(memo) >= SPELLED_FLOATS:
                memo.clear()
            memo[value] = text
        return text
    return spell


class RecordShape:
    """One record kind whose keys and value types are fixed.

    Declared from keywords: ``name=int``, ``float`` or ``str`` is a field,
    any other value a constant.  The constant parts of the canonical line
    are compiled once, so ``line(*values)`` -- the fields' values in
    declared order -- is one format operation, and its text is always
    ``record_line(record(*values))``: values of exactly the declared types
    (floats finite) take the template; anything else (an int for a float,
    a bool, NaN) is spelled by ``record_line`` itself, and what JSON cannot
    spell is a :class:`ValueError`.
    """

    def __init__(self, **fields: Any) -> None:
        self.fields = fields
        self.names = [key for key in fields if isinstance(fields[key], type)]
        args = ", ".join(f"v{index}" for index in range(len(self.names)))
        template, tests, values = [], [], []
        for key in sorted(fields):
            code = "%s"
            if key in self.names:
                test, value = (part.format(f"v{self.names.index(key)}")
                               for part in _FIELD[fields[key]])
                tests.append(test)
                values.append(value + ",")
            else:
                code = _spell(fields[key]).replace("%", "%%")
            template.append(_spell(key).replace("%", "%%") + ":" + code)
        memo: Dict[float, str] = {}
        self.line = eval(  # one function per shape, as namedtuple builds its own
            f"lambda {args}: template % ({' '.join(values)}) "
            f"if {' and '.join(tests) or True} else reference({args})",
            {"template": "{" + ",".join(template) + "}\n",
             "esc": encode_basestring_ascii, "reference": self._reference,
             "spelled": memo.get, "spell": _float_speller(memo)})

    def record(self, *values: Any) -> Dict[str, Any]:
        """The record that ``line(*values)`` spells."""
        return {**self.fields, **dict(zip(self.names, values, strict=True))}

    def _reference(self, *values: Any) -> str:
        try:
            return record_line(self.record(*values)).decode("ascii")
        except TypeError as exc:
            raise ValueError(f"not a JSON value: {exc}") from None


class NdjsonWriter:
    """Incremental stream writer: header line first, one record per line.

    ``offset`` is the number of bytes written so far, i.e. the byte offset
    the next record will start at.  Lines a :class:`RecordShape` spelled
    (:meth:`write_line`) are held as text and encoded in one piece at the
    next flush; :meth:`write` is the path for records whose shape varies,
    :meth:`write_bytes` for a line the caller needs as bytes anyway.
    """

    def __init__(self, path, schema: str,
                 meta: Optional[Dict[str, Any]] = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "wb")
        header: Dict[str, Any] = {"schema": schema}
        if meta:
            header["meta"] = dict(meta)
        line = record_line(header)
        self._file.write(line)
        self.offset = len(line)
        self.records = 0
        self.closed = False
        self._lines: List[str] = []

    def write(self, record: Dict[str, Any]) -> bytes:
        """Append one record; returns the line written."""
        return self.write_bytes(record_line(record))

    def write_bytes(self, line: bytes) -> bytes:
        """Append one record given as its canonical line, already encoded."""
        if self._lines:
            self._flush()  # file order is call order
        self._file.write(line)
        self.offset += len(line)
        self.records += 1
        if self.records % FLUSH_EVERY == 0:
            self._flush()
        return line

    def write_line(self, line: str) -> None:
        """Append one record given as the line a :class:`RecordShape` spelled."""
        self._lines.append(line)
        self.offset += len(line)
        self.records += 1
        if self.records % FLUSH_EVERY == 0:
            self._flush()

    def _flush(self) -> None:
        if self._lines:
            self._file.write("".join(self._lines).encode("ascii"))
            self._lines.clear()
        self._file.flush()

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._flush()
            self._file.close()

    def __enter__(self) -> "NdjsonWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _parse_header(path, line: bytes, schema: str) -> Dict[str, Any]:
    """Validate a stream's first line; returns its ``meta`` dict."""
    if not line:
        raise TruncatedArtifactError(path, 0, "missing header line")
    if not line.endswith(b"\n"):
        raise TruncatedArtifactError(
            path, 0, "file ends mid-header (no trailing newline)")
    try:
        header = json.loads(line)
    except ValueError as exc:
        raise TruncatedArtifactError(
            path, 0, f"unparseable header ({exc})") from None
    found = header.get("schema") if isinstance(header, dict) else None
    if found != schema:
        raise ValueError(f"{path}: unsupported schema {found!r} "
                         f"(expected {schema!r})")
    return header.get("meta", {})


def read_header(path, schema: str) -> Dict[str, Any]:
    """The header metadata of a stream, after checking its schema tag."""
    with open(path, "rb") as handle:
        return _parse_header(path, handle.readline(), schema)


def scan(path, schema: str, limit: Optional[int] = None
         ) -> Iterator[Tuple[int, bytes, Dict[str, Any]]]:
    """Sequentially yield ``(offset, line, record)`` for every record line.

    The header is validated against ``schema`` and skipped.  A line that
    does not end in a newline (the file was cut mid-record) or does not
    parse raises :class:`TruncatedArtifactError` naming the byte offset
    where the intact prefix ends.  ``limit`` stops the scan at a byte
    offset -- the intact prefix a tolerant index rebuild recorded.
    """
    if limit is not None and limit <= 0:
        return  # an empty intact prefix: not even the header survived
    with open(path, "rb") as handle:
        header = handle.readline()
        _parse_header(path, header, schema)
        offset = len(header)
        for line in handle:
            if limit is not None and offset >= limit:
                return
            if not line.endswith(b"\n"):
                raise TruncatedArtifactError(
                    path, offset, "file ends mid-record (no trailing newline)")
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise TruncatedArtifactError(
                    path, offset, f"unparseable record ({exc})") from None
            yield offset, line, record
            offset += len(line)


def json_document(document: Any) -> str:
    """A whole JSON document as canonical text: sorted keys, indent 1."""
    return json.dumps(document, sort_keys=True, indent=1) + "\n"


def write_json(path, document: Any) -> None:
    """Write one canonical JSON document (see :func:`json_document`)."""
    Path(path).write_text(json_document(document), encoding="utf-8")
