"""Golden adversarial history corpus: both checkers vs recorded verdicts.

The fixtures under ``tests/fixtures/histories/`` are standalone
``history/v1`` NDJSON files with known linearizability verdicts (see
``generate.py`` there).  Every fixture is pushed through both checkers --
the in-memory :func:`repro.core.history.check_linearizable` and the
streaming :func:`repro.core.history_store.check_linearizable_streaming`
over a spilled run directory -- and both must agree with the manifest.
Any checker change that silently flips a verdict (echo semantics,
ambiguous-op latitude, CAS atomicity, version monotonicity) fails here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.artifacts import read_header
from repro.core.history import check_linearizable, version_violations_of
from repro.core.history_store import (
    SCHEMA,
    HistoryStore,
    HistoryWriter,
    check_linearizable_streaming,
    decode_bytes,
    load_ndjson,
)

CORPUS = Path(__file__).parent / "fixtures" / "histories"
MANIFEST = json.loads((CORPUS / "manifest.json").read_text(encoding="utf-8"))
FIXTURES = MANIFEST["fixtures"]


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


@pytest.mark.parametrize("entry", FIXTURES,
                         ids=[entry["file"] for entry in FIXTURES])
def test_fixture_headers_carry_meta(entry):
    meta = read_header(CORPUS / entry["file"], SCHEMA)
    assert meta["initial"] == entry["initial"]
    assert meta["description"] == entry["description"]


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
