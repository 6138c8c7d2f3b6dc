"""The one command line: ``python -m repro <verb>`` (:mod:`repro.cli`).

Every verb through ``repro.cli.main([...])``: ``--help`` at each level, the
history / trace / lint / matrix round trips, the shared error policy (one
stderr line, non-zero exit) and the removal of the old entry points.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.report import REPORT_SCHEMA
from repro.cli import main
from repro.deploy import default_matrix

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures"
CORPUS = FIXTURES / "detlint" / "corpus"
HISTORIES = FIXTURES / "histories"


def one_error_line(capsys) -> str:
    """The captured stderr, asserted to be one line (no traceback)."""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


@pytest.mark.parametrize("verb", [[], ["matrix"], ["history"], ["trace"], ["lint"]])
def test_help_at_every_level(verb, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(verb + ["--help"])
    assert exc_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: python -m repro")
    if not verb:
        assert "{matrix,history,trace,lint}" in out  # exactly these four
    if verb == ["history"]:
        assert "{check,index,info,generate}" in out


@pytest.mark.parametrize("module", ["repro.deploy", "repro.analysis"])
def test_old_package_entry_points_are_gone(module):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", module, "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "__main__" in proc.stderr


@pytest.mark.anchor
def test_history_index_info_check(tmp_path, capsys):
    """``generate`` -> ``info`` / ``index`` / ``check`` on one seeded run.

    Cross-commit replay anchor: the ``history_gen`` entry of
    ``fixtures/replay_digests.json`` was captured on the commit before the
    verb existed, from the scale harness it replaced (EXPERIMENTS.md,
    "Verifying histories at scale": 20,000 ops, seed 11, 512 keys, 32
    clients, 1% timeouts): every record line -- all of ``ops.ndjson`` after
    its header -- must still hash to it.
    """
    anchor = json.loads((FIXTURES / "replay_digests.json").read_text())["history_gen"]
    generate = ["--ops", str(anchor["ops"]), "--seed", str(anchor["seed"])]
    run_dir, replay = tmp_path / "run", tmp_path / "replay"
    assert main(["history", "generate", str(run_dir), *generate]) == 0
    assert main(["history", "generate", str(replay), *generate]) == 0
    data = (run_dir / "ops.ndjson").read_bytes()
    assert data == (replay / "ops.ndjson").read_bytes()
    records = data.partition(b"\n")[2]
    assert (len(records), hashlib.sha256(records).hexdigest()) == \
        (anchor["record_bytes"], anchor["record_sha256"])

    # The NDJSON alone is a run dir once ``index`` has derived the rest.
    for name in ("index.json", "index.bin"):
        (run_dir / name).unlink()
    assert main(["history", "info", str(run_dir)]) == 1
    assert f"python -m repro history index {run_dir}" in one_error_line(capsys)
    assert main(["history", "index", str(run_dir)]) == 0
    assert main(["history", "info", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert f"ops: {anchor['ops']}" in out and "keys: 512" in out
    assert "initial: 512 keys" in out and "init-0" not in out

    # ``check`` needs no side channel: the initial values ride in the header.
    cache = str(tmp_path / "cache.json")
    assert main(["history", "check", str(run_dir), "--cache", cache]) == 0
    out = capsys.readouterr().out
    # Generated ops carry no versions, so every key goes to the search.
    assert "linearizable: 512 keys" in out and "witness: 0/512 keys, search: 512" in out
    # Second check hits the persisted cache for every key.
    assert main(["history", "check", str(run_dir), "--cache", cache,
                 "--max-rss-mb", "100000"]) == 0
    out = capsys.readouterr().out
    assert "verdict cache hits: 512/512" in out and "search: 0" in out
    assert main(["history", "check", str(run_dir), "--cache", cache,
                 "--max-rss-mb", "1"]) == 1
    assert "exceeds the 1 MiB budget" in one_error_line(capsys)

    assert main(["history", "generate", str(run_dir / "ops.ndjson" / "under-a-file"),
                 "--ops", "1"]) == 1
    assert one_error_line(capsys).startswith("repro history: ")

    bad = tmp_path / "bad"
    bad.mkdir()
    shutil.copy(HISTORIES / "bad_stale_read.ndjson", bad / "ops.ndjson")
    assert main(["history", "index", str(bad)]) == 0
    assert main(["history", "check", str(bad)]) == 1


def _empty(path: Path) -> None:
    os.truncate(path, 0)


def _halve(path: Path) -> None:
    os.truncate(path, path.stat().st_size // 2)


def _swap_a_client(path: Path) -> None:
    data = path.read_bytes()
    assert b'"client":"c1"' in data
    path.write_bytes(data.replace(b'"client":"c1"', b'"client":"c2"', 1))


@pytest.mark.parametrize("name, damage", [
    ("index.bin", _empty),             # was: "linearizable", having read no record
    ("index.bin", _halve),             # was: a struct.error traceback
    ("index.bin", Path.unlink),        # was: a bare [Errno 2], ops.ndjson left open
    ("ops.ndjson", _halve),
    ("ops.ndjson", _swap_a_client),    # well-formed records, not the indexed ones
], ids=["empty-index", "short-index", "no-index", "short-data", "other-data"])
def test_an_index_that_does_not_describe_its_run_dir_is_one_line(
        name, damage, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["history", "generate", str(run_dir), "--ops", "3000"]) == 0
    assert main(["history", "check", str(run_dir)]) == 0
    assert "linearizable: " in capsys.readouterr().out
    damage(run_dir / name)
    assert main(["history", "check", str(run_dir)]) == 1
    captured = capsys.readouterr()
    assert "linearizable" not in captured.out
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.err.startswith("repro history: ")
    assert f"python -m repro history index {run_dir}" in captured.err
    # ... and the hint is the cure, where the records themselves are whole.
    if damage is not _halve or name == "index.bin":
        assert main(["history", "index", str(run_dir)]) == 0
        assert main(["history", "check", str(run_dir)]) == 0


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("trace") / "run"
    assert main(["trace", "run", "--seed", "11", "--out", str(run_dir)]) == 0
    return run_dir


def test_trace_run_report_info(traced_run, capsys):
    assert main(["trace", "report", str(traced_run)]) == 0
    out = capsys.readouterr().out
    assert "Critical-path stages" in out
    assert "host_stack" in out
    assert "Slowest trace" in out
    assert main(["trace", "info", str(traced_run)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["spans.ndjson"]["records"] > 0


def test_trace_wrong_schema_is_one_line(traced_run, tmp_path, capsys):
    run_dir = tmp_path / "run"
    shutil.copytree(traced_run, run_dir)
    # An events file where the spans are expected.
    shutil.copy(run_dir / "events.ndjson", run_dir / "spans.ndjson")
    for command in ("report", "info"):
        assert main(["trace", command, str(run_dir)]) == 1
        assert "unsupported schema 'trace-events/v1'" in one_error_line(capsys)


@pytest.mark.parametrize("command", ["report", "info"])
def test_trace_on_a_missing_or_empty_dir_is_an_error(command, tmp_path, capsys):
    for run_dir in (tmp_path / "no-such-dir", tmp_path):
        assert main(["trace", command, str(run_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # an error, not an empty report
        assert captured.err.count("\n") == 1
        assert "not a trace/v2 run dir" in captured.err


def test_matrix_spec_file_round_trip(tmp_path, capsys):
    matrix = default_matrix(seeds=(0,), backends=("netchain",), duration=0.2)
    matrix.fault_profiles = {"none": {}}
    spec_path, out_path = tmp_path / "spec.json", tmp_path / "report.json"
    spec_path.write_text(json.dumps(matrix.to_dict()), encoding="utf-8")
    assert main(["matrix", "--spec", str(spec_path), "-o", str(out_path)]) == 0
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["totals"]["cells"] == 1 and not report["totals"]["failed_cells"]
    assert report["matrix"] == matrix.to_dict()


def test_matrix_missing_spec_file_is_one_line(tmp_path, capsys):
    assert main(["matrix", "--spec", str(tmp_path / "missing.json")]) == 1
    assert "missing.json" in one_error_line(capsys)


def lint_check(*argv):
    return main(["lint", "check", *argv, "--root", str(REPO_ROOT), "--include-fixtures"])


def test_lint_check_fails_on_corpus_and_reports_json(tmp_path, capsys):
    report_path = tmp_path / "detlint.json"
    assert lint_check(str(CORPUS), "-o", str(report_path)) == 1
    assert "DET001" in capsys.readouterr().out
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["schema"] == REPORT_SCHEMA
    assert report["ok"] is False
    assert report["counts"]["DET001"] == 5


def test_lint_check_passes_on_good_file(capsys):
    good = CORPUS / "repro" / "netsim" / "det001_good.py"
    assert lint_check(str(good)) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_lint_explain(capsys):
    assert main(["lint", "explain", "DET001"]) == 0
    out = capsys.readouterr().out
    assert "DET001" in out and "Simulator.now" in out
    assert main(["lint", "explain", "DET999"]) == 1
    assert "unknown rule id(s): DET999" in one_error_line(capsys)
