"""Machine-readable (``detlint-report/v2``) and human output for detlint.

The JSON report is what the ``detlint`` CI job archives as an artifact;
the text form is what it prints and publishes to the step summary.  Like
every other artifact in this repository the report is emitted with sorted
keys and carries no wall-clock fields, so reports for identical trees are
byte-identical.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.engine import CheckResult, Finding
from repro.analysis.rules import RULES

REPORT_SCHEMA = "detlint-report/v2"


def _finding_dict(finding: Finding) -> Dict[str, object]:
    return {
        "col": finding.col + 1,
        "line": finding.line,
        "message": finding.message,
        "path": finding.path,
        "rule": finding.rule,
    }


def build_report(result: CheckResult) -> Dict[str, object]:
    counts: Dict[str, int] = {rule.id: 0 for rule in RULES}
    counts.update(result.counts())
    return {
        "schema": REPORT_SCHEMA,
        "paths": list(result.paths),
        "files_scanned": result.files_scanned,
        "counts": counts,
        "findings": [_finding_dict(f) for f in result.findings],
        "suppressed": [
            {**_finding_dict(s.finding), "justification": s.justification}
            for s in result.suppressed
        ],
        "ok": not result.findings,
    }


def format_text(result: CheckResult) -> str:
    lines = [f"{f.location()}: {f.rule}: {f.message}" for f in result.findings]
    lines.append(
        f"detlint: {len(result.findings)} finding(s) in {result.files_scanned} file(s)"
        f" ({len(result.suppressed)} suppressed by pragma)"
    )
    return "\n".join(lines) + "\n"
