"""The artifact layer: what only :mod:`repro.artifacts` can own.

The stream spelling (header line, canonical record lines, byte offsets),
record shapes against that spelling (on every record shape ``trace/v2``
declares), header validation with one distinct message per way a header
can be bad, and the ``limit=`` scan of an intact prefix.  The formats
built on top (``history/v1`` indexes, ``trace/v2`` run dirs) are tested
with their subsystems.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifacts import (
    FLUSH_EVERY,
    NdjsonWriter,
    RecordShape,
    TruncatedArtifactError,
    read_header,
    record_line,
    scan,
)
from repro.core.trace import SPAN_SHAPES, TRACE_SHAPE

SCHEMA = "test/v1"
RECORDS = [{"b": 1, "a": "x"}, {"t": 0.25, "id": 2}, {"nested": {"z": 0, "y": [1, 2]}}]


def write_stream(path, meta=None):
    """Write RECORDS; returns the offset each record was written at."""
    offsets = []
    with NdjsonWriter(path, SCHEMA, meta=meta) as writer:
        for record in RECORDS:
            offsets.append(writer.offset)
            assert writer.write(record) == record_line(record)
    assert writer.closed and writer.records == len(RECORDS)
    assert writer.offset == path.stat().st_size
    return offsets


def test_writer_scan_round_trip_with_offsets(tmp_path):
    path = tmp_path / "deep" / "stream.ndjson"  # parents are created
    offsets = write_stream(path, meta={"seed": 3})
    data = path.read_bytes()
    assert data.splitlines()[0] == b'{"meta":{"seed":3},"schema":"test/v1"}'
    scanned = list(scan(path, SCHEMA))
    assert [offset for offset, _, _ in scanned] == offsets
    assert [record for _, _, record in scanned] == RECORDS
    for offset, line, record in scanned:
        assert data[offset:offset + len(line)] == line == record_line(record)
    assert read_header(path, SCHEMA) == {"seed": 3}
    assert record_line({"b": 1, "a": "\u00e9"}) == b'{"a":"\\u00e9","b":1}\n'  # ASCII


def test_read_header_rejects_each_bad_header_distinctly(tmp_path):
    path = tmp_path / "stream.ndjson"
    messages = []
    for content, error in ((b"", TruncatedArtifactError),
                           (b'{"schema": "other/v2"}\n', ValueError),
                           (b'{"schema": oops}\n', TruncatedArtifactError)):
        path.write_bytes(content)
        for reader in (lambda: read_header(path, SCHEMA),
                       lambda: list(scan(path, SCHEMA))):
            with pytest.raises(ValueError) as exc_info:  # never JSONDecodeError
                reader()
            assert type(exc_info.value) is error
            assert "\n" not in str(exc_info.value) and str(path) in str(exc_info.value)
        messages.append(str(exc_info.value))
    assert len(set(messages)) == 3
    assert "missing header" in messages[0]
    assert "unsupported schema 'other/v2' (expected 'test/v1')" in messages[1]
    assert "unparseable header" in messages[2]


def test_limit_stops_at_the_intact_prefix(tmp_path):
    path = tmp_path / "stream.ndjson"
    offsets = write_stream(path)
    data = path.read_bytes()
    assert data.splitlines()[0] == b'{"schema":"test/v1"}'  # empty meta omitted
    path.write_bytes(data[:-4])  # cut the last record short
    with pytest.raises(TruncatedArtifactError) as exc_info:
        list(scan(path, SCHEMA))
    err = exc_info.value
    assert (err.path, err.offset) == (path, offsets[-1])
    assert f"truncated at byte offset {offsets[-1]}" in str(err)
    prefix = list(scan(path, SCHEMA, limit=err.offset))
    assert [record for _, _, record in prefix] == RECORDS[:-1]
    assert list(scan(path, SCHEMA, limit=0)) == []


def test_shape_lines_and_records_interleave_in_call_order(tmp_path):
    """``write_line`` holds text back until a flush; nothing a caller can see
    -- ``offset``, ``records``, the order in the file, what is in the OS file
    after every ``FLUSH_EVERY`` records and after ``close`` -- shows it."""
    path = tmp_path / "stream.ndjson"
    shape = RecordShape(ev="x", i=int, s=str)
    writer = NdjsonWriter(path, SCHEMA)
    expected = record_line({"schema": SCHEMA})
    offsets = []
    for index in range(2 * FLUSH_EVERY + 100):
        offsets.append(writer.offset)
        if index % 7 in (2, 3) or index == FLUSH_EVERY - 1:  # runs of both kinds
            expected += writer.write({"i": index, "varies": [index] * (index % 3)})
        else:
            line = shape.line(index, "caf\u00e9" * (index % 4))
            assert writer.write_line(line) is None
            expected += line.encode("ascii")
        assert (writer.offset, writer.records) == (len(expected), index + 1)
        if writer.records % FLUSH_EVERY == 0:
            assert path.read_bytes() == expected  # as durable as write() alone
        elif index % 500 == 0:
            assert expected.startswith(path.read_bytes())  # only ever a prefix
    assert len(path.read_bytes()) < len(expected)  # the tail is still held
    writer.close()
    writer.close()  # idempotent
    assert path.read_bytes() == expected
    assert [offset for offset, _, _ in scan(path, SCHEMA)] == offsets


# --------------------------------------------------------------------- #
# Record shapes: the template against the reference spelling.
# --------------------------------------------------------------------- #

#: The trace record and span shapes plus one whose keys and constants need
#: escaping, in the template (``%``) and in JSON (quote, backslash,
#: non-ASCII, nesting).
SHAPES = SPAN_SHAPES + (TRACE_SHAPE,) + (
    RecordShape(**{"100%": float, 'k"\\': str, "\u00e9": "caf\u00e9 %s %%",
                   "z": {"b": [1, None], "a": 0.5}}),
    RecordShape(only="constants"),
)

#: Values of each declared type a line has to get right, spelled out.
EDGES = {
    int: [0, -1, 7, 2**63, -2**63 - 1, 10**40],
    float: [0.0, -0.0, 3.0, 0.1 + 0.2, 5e-324, -5e-324, 2.2250738585072014e-308,
            1e16, 1e21, 1e22, 123456789012345680.0, 1.7976931348623157e308,
            0, -3, float("nan"), float("inf"), float("-inf")],  # ints spell "0", not "0.0"
    str: ["", "S0-S1", '"', "\\", 'k"\\"', "\x00\x1f\x7f", "\n\t", "caf\u00e9", "\ud800",
          "\U0001f600", "hex:00ff", "%s%d%%", "{0}"],
}
#: Values of no declared type (a bool is not an int here: JSON spells it ``true``).
OTHERS = [None, True, False, b"x", [1, 2], {"a": 1}, (1,), object(), 1.5, "7", 7]

_OTHER = st.one_of(st.sampled_from(OTHERS), st.integers(), st.floats(), st.text())
_VALUES = {
    int: st.one_of(st.integers(), st.sampled_from(EDGES[int])),
    float: st.one_of(st.floats(), st.sampled_from(EDGES[float])),
    str: st.one_of(st.text(), st.text(st.characters(max_codepoint=0x7f)),
                   st.sampled_from(EDGES[str])),
}
_PLAIN = {int: 1, float: 0.5, str: "n"}


def check_line(shape, values):
    """``line`` is ``record_line`` of the same record, or a ValueError where
    ``record_line`` has no spelling either; never something unreadable."""
    try:
        expected = record_line(shape.record(*values))
    except TypeError:
        with pytest.raises(ValueError):
            shape.line(*values)
        return
    line = shape.line(*values)
    assert line.encode("ascii") == expected
    json.loads(line)


shapes = pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: "-".join(
    [str(shape.fields.get("ev", "odd"))] + shape.names[3:]))


@shapes
def test_shape_spells_every_edge_value_in_every_field(shape):
    kinds = [shape.fields[name] for name in shape.names]
    plain = [_PLAIN[kind] for kind in kinds]
    check_line(shape, plain)
    assert shape.line(*plain) == shape.line(*plain)  # no state between calls
    for index, kind in enumerate(kinds):
        for value in EDGES[kind] + OTHERS:
            check_line(shape, plain[:index] + [value] + plain[index + 1:])
    with pytest.raises(TypeError):  # a caller's bug, not a value's
        shape.line(*plain, 0)


@shapes
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_shape_line_is_the_reference_spelling(shape, data):
    kinds = [shape.fields[name] for name in shape.names]
    check_line(shape, data.draw(st.tuples(*(_VALUES[kind] for kind in kinds))))
    check_line(shape, data.draw(st.tuples(*(st.one_of(_VALUES[kind], _OTHER)
                                            for kind in kinds))))
