"""Tests for the detlint static-analysis pass (src/repro/analysis/).

Three layers:

* the fixture corpus under ``tests/fixtures/detlint/corpus/`` exercises every
  rule in both directions (bad file -> findings, good file -> silence) plus
  pragma handling and path scoping;
* the report is tested on the corpus (the ``python -m repro lint`` verbs in
  ``tests/test_cli.py``);
* a self-check asserts the repository itself has no finding at all, and
  regression tests pin the determinism fixes the pass found.

What replay sees is checked by replay: ``tests/test_hashseed_replay.py``.
"""

from pathlib import Path

import pytest

from repro.analysis.engine import check_paths
from repro.analysis.report import REPORT_SCHEMA, build_report, format_text
from repro.analysis.rules import RULES, rule_ids
from repro.artifacts import json_document
from repro.core.history import History, RecordingClient
from repro.netsim.engine import Simulator
from repro.netsim.host import Host
from repro.netsim.switch import Switch

REPO_ROOT = Path(__file__).resolve().parents[1]
CORPUS = REPO_ROOT / "tests" / "fixtures" / "detlint" / "corpus"


def _counts(path: Path):
    result = check_paths([str(path)], root=REPO_ROOT, include_fixtures=True)
    table = {}
    for finding in result.findings:
        table[finding.rule] = table.get(finding.rule, 0) + 1
    return table, result


# --------------------------------------------------------------------------- #
# Fixture corpus: every rule, both directions.
# --------------------------------------------------------------------------- #

#: (case number, corpus file, expected counts).  The number is part of the
#: test id and never reused, so deleting a rule's cases renumbers nothing.
CORPUS_EXPECTATIONS = [
    (0, "repro/netsim/det001_bad.py", {"DET001": 5}),
    (1, "repro/netsim/det001_good.py", {}),
    (2, "repro/netsim/det002_bad.py", {"DET002": 4, "DET008": 1}),
    (3, "repro/netsim/det002_good.py", {}),
    (6, "repro/det004_bad.py", {"DET004": 2}),
    (7, "repro/det004_good.py", {}),
    (14, "repro/det008_bad.py", {"DET008": 2}),
    (15, "repro/det008_good.py", {}),
    (16, "tools/out_of_scope.py", {}),
]


@pytest.mark.parametrize(
    "relpath,expected",
    [
        pytest.param(relpath, expected, id=f"{relpath}-expected{number}")
        for number, relpath, expected in CORPUS_EXPECTATIONS
    ],
)
def test_corpus_fixture(relpath, expected):
    table, _ = _counts(CORPUS / relpath)
    assert table == expected


def test_every_rule_covered_both_ways():
    """Each non-meta rule has at least one firing and one silent fixture."""
    firing = set()
    for _number, _relpath, expected in CORPUS_EXPECTATIONS:
        firing |= set(expected)
    assert firing >= set(rule_ids()) - {"DET000"}
    for rule_id in sorted(set(rule_ids()) - {"DET000"}):
        stem = rule_id.lower()
        assert (CORPUS / "repro" / "netsim" / f"{stem}_good.py").exists() or (
            CORPUS / "repro" / f"{stem}_good.py"
        ).exists()


def test_fixtures_excluded_from_normal_scans():
    result = check_paths([str(CORPUS)], root=REPO_ROOT)
    assert result.files_scanned == 0
    included = check_paths([str(CORPUS)], root=REPO_ROOT, include_fixtures=True)
    assert included.files_scanned >= len(CORPUS_EXPECTATIONS)


# --------------------------------------------------------------------------- #
# Pragmas.
# --------------------------------------------------------------------------- #


def test_pragma_fixture_behaviour():
    table, result = _counts(CORPUS / "repro" / "pragmas.py")
    assert table == {"DET000": 3, "DET004": 1}
    assert [s.justification for s in result.suppressed] == [
        "key order is the payload under test",
    ]
    messages = sorted(f.message for f in result.findings if f.rule == "DET000")
    assert any("without justification" in m for m in messages)
    assert any("unused suppression" in m.lower() for m in messages)
    assert any("malformed" in m for m in messages)


def test_pragma_in_string_literal_is_ignored(tmp_path):
    target = tmp_path / "repro" / "doc.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        'TEXT = "# detlint: disable=DET004"\n'
        "DOC = '''\n# detlint: disable=DET001\n'''\n",
        encoding="utf-8",
    )
    result = check_paths([str(target)], root=tmp_path, include_fixtures=True)
    assert result.findings == []
    assert result.suppressed == []


# --------------------------------------------------------------------------- #
# Report.
# --------------------------------------------------------------------------- #


def test_report_schema_and_determinism():
    _, result = _counts(CORPUS / "repro" / "pragmas.py")
    report = build_report(result)
    assert report["schema"] == REPORT_SCHEMA
    assert report["ok"] is False
    assert report["counts"]["DET004"] == 1
    assert {f["rule"] for f in report["findings"]} == {"DET000", "DET004"}
    assert all(s["justification"] for s in report["suppressed"])
    assert json_document(report) == json_document(build_report(result))


# --------------------------------------------------------------------------- #
# Self-checks: the repository obeys its own rules.
# --------------------------------------------------------------------------- #


def test_repository_is_clean_against_committed_baseline():
    # There is no baseline any more (the name is the tier-1 id): every
    # finding fails, so the whole tree must come back empty.
    result = check_paths(["src", "benchmarks", "tests"], root=REPO_ROOT)
    assert result.findings == [], format_text(result)


def test_analyzer_is_clean_on_itself():
    result = check_paths(["src/repro/analysis"], root=REPO_ROOT)
    assert result.findings == [] and result.suppressed == []
    assert result.files_scanned >= 4


def test_rule_metadata_complete():
    for rule in RULES:
        assert rule.id.startswith("DET") and len(rule.id) == 6
        assert rule.title and rule.summary and rule.rationale
        assert rule.scope_doc()


# --------------------------------------------------------------------------- #
# Regression tests for the determinism fixes detlint found.
# --------------------------------------------------------------------------- #


def test_default_device_rngs_replay_per_name():
    streams = []
    for _ in range(2):
        sim = Simulator()
        host = Host(sim, "host-1", "10.0.0.1")
        switch = Switch(sim, "tor-1", "10.1.0.1")
        streams.append(
            [host.rng.random() for _ in range(3)] + [switch.rng.random() for _ in range(3)]
        )
    assert streams[0] == streams[1]
    assert Host(Simulator(), "host-2", "10.0.0.2").rng.random() != streams[0][0]


class _StubSim:
    now = 0.0


class _StubClient:
    def __init__(self):
        self.sim = _StubSim()
        self.backend = "stub"


def test_recording_client_anonymous_names_are_deterministic():
    history = History(_StubSim())
    first = RecordingClient(_StubClient(), history)
    second = RecordingClient(_StubClient(), history)
    named = RecordingClient(_StubClient(), history, name="loader-0")
    assert first.name == "client-0001"
    assert second.name == "client-0002"
    assert named.name == "loader-0"
    other = History(_StubSim())
    assert RecordingClient(_StubClient(), other).name == "client-0001"
