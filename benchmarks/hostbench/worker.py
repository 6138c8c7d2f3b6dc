"""One measured pass in a fresh process.

``python -m benchmarks.hostbench.worker '<job json>'`` runs one job and
prints its result as one JSON line.  A fresh process per pass is what makes
``setup_s`` (interpreter start, imports, ``build_deployment``) and peak RSS
honest and keeps every pass on a cold verdict cache.  Jobs:

* ``{"kind": "pass", "workload", "seed", "work_dir", "traced", "spans_path"}``
* ``{"kind": "isolated", "seed", "work_dir", "seconds", "repeats"}``
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict


def run_job(job: Dict[str, Any]) -> Dict[str, Any]:
    work_dir = Path(job["work_dir"])
    if job["kind"] == "isolated":
        from benchmarks.hostbench.isolated import run_isolated
        return {"isolated": run_isolated(job["seed"], work_dir,
                                         seconds=job["seconds"], repeats=job["repeats"])}

    from benchmarks.hostbench.workloads import run_pass
    if not job.get("traced"):
        return run_pass(job["workload"], job["seed"], work_dir)

    from benchmarks.hostbench.spans import Ledger, install
    ledger = Ledger()
    uninstall = install(ledger)
    try:
        # Serial matrix: a pool worker's spans would die with the worker.
        result = run_pass(job["workload"], job["seed"], work_dir,
                          span=ledger.wrap, matrix_workers=1)
    finally:
        uninstall()
    result["layers"] = ledger.report()
    spans_path = Path(job["spans_path"])
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps(ledger.raw, sort_keys=True, separators=(",", ":")),
                          encoding="utf-8")
    return result


def main() -> int:
    result = run_job(json.loads(sys.argv[1]))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
