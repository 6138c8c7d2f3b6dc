"""The committed suppression baseline (``detlint-baseline/v1``).

A baseline freezes the set of findings that existed when the pass was
introduced (or last re-baselined): CI stays green on them while any *new*
finding fails the build.  Entries are keyed by content fingerprints, so
unrelated edits that shift line numbers do not invalidate the baseline,
and fixed findings show up as "stale" entries that should be pruned with
``python -m repro lint baseline``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.analysis.engine import Finding
from repro.artifacts import write_json

BASELINE_SCHEMA = "detlint-baseline/v1"


@dataclass
class Baseline:
    """A set of accepted finding fingerprints, loadable from JSON."""

    entries: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if data.get("schema") != BASELINE_SCHEMA:
            raise ValueError(
                f"{path}: expected schema {BASELINE_SCHEMA!r}, got {data.get('schema')!r}"
            )
        entries = {entry["fingerprint"]: entry for entry in data.get("entries", [])}
        return cls(entries=entries)

    @classmethod
    def from_findings(cls, findings: Sequence[Finding]) -> "Baseline":
        entries: Dict[str, Dict[str, object]] = {}
        for finding in findings:
            entries[finding.fingerprint] = {
                "fingerprint": finding.fingerprint,
                "rule": finding.rule,
                "path": finding.path,
                "message": finding.message,
            }
        return cls(entries=entries)

    def partition(
        self, findings: Sequence[Finding]
    ) -> Tuple[List[Finding], List[Finding], List[Dict[str, object]]]:
        """Split findings into (new, baselined); also return stale entries."""
        new: List[Finding] = []
        baselined: List[Finding] = []
        matched: Dict[str, bool] = {}
        for finding in findings:
            if finding.fingerprint in self.entries:
                baselined.append(finding)
                matched[finding.fingerprint] = True
            else:
                new.append(finding)
        stale = [
            entry
            for fingerprint, entry in sorted(self.entries.items())
            if fingerprint not in matched
        ]
        return new, baselined, stale

    def dump(self, path: Path) -> None:
        payload = {
            "schema": BASELINE_SCHEMA,
            "entries": [entry for _, entry in sorted(self.entries.items())],
        }
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_json(path, payload)
