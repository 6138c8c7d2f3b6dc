"""detlint: a determinism & hot-path static-analysis pass for the simulator.

Every guarantee this reproduction makes -- byte-identical seeded replay,
spill files that hash identically across machines, trace directories that
``diff -r`` clean across runs -- rests on coding discipline: thread the
seeded ``rng``, never read wall clock in sim-time code, keep NDJSON keys
sorted, keep hot-path classes slotted.  ``repro.analysis`` turns those
invariants into machine-checked rules over the stdlib ``ast`` module, with
no third-party dependencies.

CLI::

    python -m repro lint check src/ benchmarks/ tests/
    python -m repro lint explain DET002

Rules (see ``python -m repro lint explain`` for the full docs):

========  ==============================================================
DET000    detlint meta findings (parse errors, bad / unused pragmas)
DET001    wall-clock or ambient-entropy reads in sim-time code
DET002    global or unseeded RNG use
DET003    iteration over unordered containers / unsorted directory scans
DET004    ``json.dumps`` without ``sort_keys=True`` in artifact writers
DET005    slotted classes assigned attributes missing from ``__slots__``
DET006    per-event closures passed to ``call_after``-family scheduling
DET007    telemetry calls outside the ``if tel is not None`` guard
DET008    ``hash()`` / ``id()`` as sort keys or in emitted artifacts
========  ==============================================================

Every finding fails the build; one is suppressed only inline, with a
justified pragma::

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
