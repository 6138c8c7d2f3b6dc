"""The artifact layer: what only :mod:`repro.artifacts` can own.

The stream spelling (header line, canonical record lines, byte offsets),
header validation with one distinct message per way a header can be bad,
and the ``limit=`` scan of an intact prefix.  The formats built on top
(``history/v1`` indexes, ``trace/v1`` run dirs) are tested with their
subsystems.
"""

from __future__ import annotations

import pytest

from repro.artifacts import (
    NdjsonWriter,
    TruncatedArtifactError,
    read_header,
    record_line,
    scan,
)

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
