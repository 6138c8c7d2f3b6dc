"""Compare two hostbench result files, one row per workload x metric."""

from __future__ import annotations

from typing import Any, Dict, List

from benchmarks.hostbench.metrics import END_TO_END, Metric


def _relative_spread(entry: Dict[str, Any]) -> float:
    return (entry["q3"] - entry["q1"]) / entry["median"] if entry["median"] else 0.0


def verdict(metric: Metric, base: Dict[str, Any], new: Dict[str, Any]) -> str:
    """``better`` / ``same`` / ``worse`` / ``unresolved`` for one metric.

    A bound of 0 marks a simulated metric: medians compare exactly.
    Otherwise ``worse`` is a loss of more than the bound, ``better`` a gain
    of more than either side's own quartile spread, and a spread wider than
    the bound leaves the row ``unresolved`` rather than calling it unchanged.
    """
    gain = new["median"] - base["median"]
    if metric.better == "lower":
        gain = -gain
    if metric.bound == 0.0:
        return "same" if gain == 0 else "better" if gain > 0 else "worse"
    spread = max(_relative_spread(base), _relative_spread(new))
    if spread > metric.bound:
        return "unresolved"
    share = gain / base["median"]
    if share < -metric.bound:
        return "worse"
    return "better" if share > spread else "same"


def compare(base: Dict[str, Any], new: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Rows for every workload and end-to-end metric both files report."""
    rows = []
    for workload, base_report in base["workloads"].items():
        new_report = new["workloads"].get(workload)
        if new_report is None:
            continue
        for metric in END_TO_END:
            a = base_report["end_to_end"].get(metric.name)
            b = new_report["end_to_end"].get(metric.name)
            if a is None or b is None:
                continue
            rows.append({"workload": workload, "metric": metric.name,
                         "unit": metric.unit, "bound": metric.bound,
                         "base": a, "new": b, "verdict": verdict(metric, a, b)})
    return rows


def format_rows(rows: List[Dict[str, Any]]) -> str:
    def cell(entry: Dict[str, Any]) -> str:
        return f"{entry['median']:.6g} [{entry['q1']:.6g}, {entry['q3']:.6g}]"

    lines = [f"{'workload':18s} {'metric':18s} {'unit':8s} {'bound':>5s}  "
             f"{'base median [q1, q3]':38s} {'new median [q1, q3]':38s} verdict"]
    for row in rows:
        lines.append(f"{row['workload']:18s} {row['metric']:18s} {row['unit']:8s} "
                     f"{row['bound']:5.2f}  {cell(row['base']):38s} "
                     f"{cell(row['new']):38s} {row['verdict']}")
    return "\n".join(lines)
