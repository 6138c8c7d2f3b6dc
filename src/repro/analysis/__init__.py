"""detlint: the determinism rules that replay cannot check, for the simulator.

Every guarantee this reproduction makes -- byte-identical seeded replay,
spill files that hash identically across machines, trace directories that
``diff -r`` clean across runs -- is checked first by replay: the
``@pytest.mark.anchor`` tests pin bytes, digests and counts captured on
earlier commits, and ``tests/test_hashseed_replay.py`` reruns them under two
``PYTHONHASHSEED``s.  ``repro.analysis`` keeps, as rules over the stdlib
``ast`` module, only what no anchor sees: code no anchor runs (wall clock,
global RNG, unsorted JSON) and process identity no hash seed moves
(``id()`` under ASLR, ``hash()`` in a pick the anchors never reach).

CLI::

    python -m repro lint check src/ benchmarks/ tests/
    python -m repro lint explain DET002

Rules (see ``python -m repro lint explain`` for the full docs):

========  ==============================================================
DET000    detlint meta findings (parse errors, bad / unused pragmas)
DET001    wall-clock or ambient-entropy reads in sim-time code
DET002    global or unseeded RNG use
DET004    ``json.dumps`` without ``sort_keys=True`` in artifact writers
DET008    ``hash()`` / ``id()`` as sort keys or in emitted artifacts
========  ==============================================================

Every finding fails the build; one is suppressed only inline, on its own
line, with a justified pragma::

    x = time.time()  # detlint: disable=DET001 -- wall clock is the payload here
"""

from repro.analysis.engine import CheckResult, Finding, analyze_file, check_paths
from repro.analysis.report import REPORT_SCHEMA, build_report, format_text
from repro.analysis.rules import RULES, rule_ids

__all__ = [
    "CheckResult",
    "Finding",
    "REPORT_SCHEMA",
    "RULES",
    "analyze_file",
    "build_report",
    "check_paths",
    "format_text",
    "rule_ids",
]
