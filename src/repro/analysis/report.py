"""Machine-readable (``detlint-report/v1``) and human output for detlint.

The JSON report is the CI interface: the ``detlint`` job publishes it to the
step summary and archives it as an artifact.  Like every other artifact in
this repository it is emitted with sorted keys and carries no wall-clock
fields, so reports for identical trees are byte-identical.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.engine import CheckResult, Finding
from repro.analysis.rules import RULES

REPORT_SCHEMA = "detlint-report/v1"


def _finding_dict(finding: Finding) -> Dict[str, object]:
    return {
        "col": finding.col + 1,
        "fingerprint": finding.fingerprint,
        "line": finding.line,
        "message": finding.message,
        "path": finding.path,
        "rule": finding.rule,
    }


def build_report(
    result: CheckResult,
    new: Sequence[Finding],
    baselined: Sequence[Finding],
    stale: Sequence[Dict[str, object]],
    baseline_path: Optional[str] = None,
) -> Dict[str, object]:
    counts: Dict[str, int] = {rule.id: 0 for rule in RULES}
    for finding in result.findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return {
        "schema": REPORT_SCHEMA,
        "paths": list(result.paths),
        "files_scanned": result.files_scanned,
        "baseline": baseline_path,
        "counts": counts,
        "findings": [_finding_dict(f) for f in new],
        "baselined": [_finding_dict(f) for f in baselined],
        "suppressed": [
            {**_finding_dict(s.finding), "justification": s.justification}
            for s in result.suppressed
        ],
        "stale_baseline": list(stale),
        "ok": not new,
    }


def format_text(
    result: CheckResult,
    new: Sequence[Finding],
    baselined: Sequence[Finding],
    stale: Sequence[Dict[str, object]],
) -> str:
    lines: List[str] = []
    for finding in new:
        lines.append(f"{finding.location()}: {finding.rule}: {finding.message}")
    summary = (
        f"detlint: {len(new)} finding(s) in {result.files_scanned} file(s)"
        f" ({len(baselined)} baselined, {len(result.suppressed)} suppressed by pragma)"
    )
    if stale:
        summary += f"; {len(stale)} stale baseline entrie(s) -- re-run 'baseline' to prune"
    lines.append(summary)
    return "\n".join(lines) + "\n"


def format_markdown(
    result: CheckResult,
    new: Sequence[Finding],
    baselined: Sequence[Finding],
    stale: Sequence[Dict[str, object]],
) -> str:
    """A compact table for ``$GITHUB_STEP_SUMMARY``."""
    status = "clean" if not new else f"{len(new)} new finding(s)"
    lines = [
        "## detlint",
        "",
        f"**Status:** {status} -- {result.files_scanned} files scanned, "
        f"{len(baselined)} baselined, {len(result.suppressed)} suppressed by pragma, "
        f"{len(stale)} stale baseline entries.",
        "",
        "| rule | new | baselined | suppressed |",
        "|------|-----|-----------|------------|",
    ]
    for rule in RULES:
        row = (
            sum(1 for f in new if f.rule == rule.id),
            sum(1 for f in baselined if f.rule == rule.id),
            sum(1 for s in result.suppressed if s.finding.rule == rule.id),
        )
        if any(row):
            lines.append(f"| {rule.id} | {row[0]} | {row[1]} | {row[2]} |")
    if new:
        lines.append("")
        lines.append("| location | rule | message |")
        lines.append("|----------|------|---------|")
        for finding in new:
            message = finding.message.replace("|", "\\|")
            lines.append(f"| `{finding.location()}` | {finding.rule} | {message} |")
    return "\n".join(lines) + "\n"
