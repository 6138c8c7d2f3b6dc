"""The measurement protocol: fresh-process passes, medians, exactness checks.

Standard library only.  This process stays small and never imports the
simulator, so a pass's ``setup_s`` and peak RSS are the pass's own.

* Every pass of a workload runs in a fresh subprocess (``worker.py``).
* Passes go round-robin across the workloads being measured, so machine
  drift lands on every row alike; a metric is the median over a workload's
  passes, reported with its quartiles and pass count.
* ``setup_s`` is spawn -> immediately before the timed call; ``wall_s`` is
  the single ``run_scenario`` / ``run_matrix`` call, checks and teardown
  inside it.
* Host-time metrics are reported in reference-box seconds: each is scaled
  by ``REFERENCE_SPIN_S / spin``, where ``spin`` is a fixed pure-Python loop
  timed right next to the measured interval (``workloads.spin``).  The raw
  seconds stay in the report under ``raw``.
* The simulator is deterministic: every pass of one workload and seed must
  agree exactly on operation counts, event count, every simulated metric,
  bytes written and the replay digest.  A mismatch is a failed run.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.hostbench.metrics import COUNTERS, END_TO_END, ISOLATED, LAYERS, TRACE_OVERHEAD

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch space for run directories and raw spans; inside the checkout.
WORK = HERE / ".work"
PASS_TIMEOUT_S = 170
#: ``workloads.spin()`` on the reference box (2 vCPU, Xeon 2.1 GHz, CPython
#: 3.11.7) in a quiet phase, so that reference-box seconds read like the
#: seconds of a quiet run there.  A scale constant: changing it rebases
#: every host-time number ever recorded.
REFERENCE_SPIN_S = 0.080

#: Fields every pass of one (workload, seed) must reproduce exactly.
EXACT_FIELDS = ("completed_ops", "failed_ops", "processed_events", "artifact_mib",
                "digest", "sim")


class BenchError(RuntimeError):
    """A pass crashed, or a correctness or determinism check failed."""


def _spawn(job: Dict[str, Any]) -> Dict[str, Any]:
    """Run one worker job in a fresh process; returns its result."""
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no simulator sources under {ROOT / 'src'}")
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=WORK))
    env = dict(os.environ, TMPDIR=str(work_dir),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    try:
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.hostbench.worker",
             json.dumps(dict(job, work_dir=str(work_dir)), sort_keys=True)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"job {job} exceeded {PASS_TIMEOUT_S}s") from exc
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"job {job} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if "ready_monotonic" in result:
        # CLOCK_MONOTONIC is system-wide, so parent and child readings compare.
        result["setup_s"] = result.pop("ready_monotonic") - spawned
    return result


def run_one_pass(workload: str, seed: int, traced: bool = False,
                 spans_path: Optional[Path] = None) -> Dict[str, Any]:
    job = {"kind": "pass", "workload": workload, "seed": seed, "traced": traced}
    if traced:
        job["spans_path"] = str(spans_path or WORK / f"spans-{workload}.json")
    return _spawn(job)


def run_isolated(seed: int, seconds: float, repeats: int) -> Dict[str, float]:
    return _spawn({"kind": "isolated", "seed": seed, "seconds": seconds,
                   "repeats": repeats})["isolated"]


def timed_passes(workloads: Sequence[str], seed: int, min_passes: int,
                 budget_s: float = 0.0) -> Dict[str, List[Dict[str, Any]]]:
    """Untraced passes, round-robin, until every workload has at least
    ``min_passes`` of them and ``budget_s`` seconds of set-up plus window."""
    passes: Dict[str, List[Dict[str, Any]]] = {name: [] for name in workloads}
    spent = dict.fromkeys(workloads, 0.0)
    while True:
        due = [name for name in workloads
               if len(passes[name]) < min_passes or spent[name] < budget_s]
        if not due:
            return passes
        for name in due:
            result = run_one_pass(name, seed)
            passes[name].append(result)
            spent[name] += result["setup_s"] + result["wall_s"]


def end_to_end(result: Dict[str, Any]) -> Dict[str, Optional[float]]:
    """One pass's end-to-end metrics (``None`` = the workload has none)."""
    ops = result["completed_ops"]
    # Set-up is followed by the first spin; the window sits between both.
    setup_s = result["setup_s"] * REFERENCE_SPIN_S / result["spin_before_s"]
    wall_s = result["wall_s"] * REFERENCE_SPIN_S / result["spin_s"]
    out = {"setup_s": setup_s, "wall_s": wall_s,
           "ops_per_host_s": ops / wall_s,
           "peak_rss_mib": result["peak_rss_mib"],
           "artifact_mib": result["artifact_mib"],
           "failed_ops_share": result["failed_ops"] / ops,
           "ok_ops_share": 1.0 - result["failed_ops"] / ops}
    out.update({m.name: result["sim"][m.name] for m in END_TO_END if m.name in result["sim"]})
    return out


def summarize(values: List[float]) -> Dict[str, Any]:
    """Median, quartiles and count, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def check_passes(workload: str, passes: List[Dict[str, Any]],
                 traced: Optional[Dict[str, Any]] = None) -> None:
    """Correctness of every pass, then exact agreement with the first one.

    The traced pass is held to the same standard: it writes the same
    artifacts and only its clock may differ.
    """
    labelled = [(f"pass {index}", result) for index, result in enumerate(passes)]
    if traced is not None:
        labelled.append(("the traced pass", traced))
    reference = passes[0]
    for label, result in labelled:
        if result["failures"]:
            raise BenchError(f"{workload}: {label} failed its checks: {result['failures']}")
        for field in EXACT_FIELDS:
            if result[field] != reference[field]:
                raise BenchError(
                    f"{workload}: {label} disagrees with pass 0 on {field}: "
                    f"{result[field]!r} != {reference[field]!r}")


def workload_report(workload: str, passes: List[Dict[str, Any]],
                    traced: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Check a workload's passes and fold them into its report section."""
    check_passes(workload, passes, traced)
    rows = [end_to_end(result) for result in passes]
    report: Dict[str, Any] = {
        "end_to_end": {
            m.name: None if rows[0][m.name] is None
            else dict(summarize([row[m.name] for row in rows]), unit=m.unit)
            for m in END_TO_END},
        "raw": {field: summarize([result[field] for result in passes])
                for field in ("setup_s", "wall_s", "spin_s")},
        "exact": {field: passes[0][field] for field in EXACT_FIELDS if field != "sim"},
        "samples": {key: passes[0]["sim"][key]
                    for key in ("sim_read_samples", "sim_write_samples")},
        "counters": {name: statistics.median(r["counters"].get(name, 0.0) for r in passes)
                     for name in COUNTERS},
    }
    if traced is not None:
        traced_wall = end_to_end(traced)["wall_s"]
        report["layers"] = traced["layers"]
        report["traced_wall_s"] = traced_wall
        report[TRACE_OVERHEAD] = traced_wall / report["end_to_end"]["wall_s"]["median"]
    return report


def per_layer_values(report: Dict[str, Any], isolated: Dict[str, float]
                     ) -> Dict[str, float]:
    """A workload's traced report flattened to the ``per_layer`` metric names;
    a layer that never ran, or a counter the workload lacks, reads 0."""
    empty = {"calls": 0, "self_s": 0.0, "self_share": 0.0}
    out: Dict[str, float] = {}
    for layer in LAYERS:
        for field, value in report["layers"].get(layer, empty).items():
            out[f"{layer}.{field}"] = value
    out.update(report["counters"])
    out[TRACE_OVERHEAD] = report[TRACE_OVERHEAD]
    out.update({name: isolated[name] for name in ISOLATED})
    return out
