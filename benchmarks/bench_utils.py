"""Helpers shared by the benchmark suite.

Every benchmark regenerates one table or figure of the paper's evaluation.
Because ``pytest-benchmark`` captures stdout, each benchmark also writes its
reproduced rows/series to ``benchmarks/results/<name>.txt`` so the numbers
survive a plain ``pytest benchmarks/ --benchmark-only`` run; EXPERIMENTS.md
summarizes them against the paper's reported values.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List

from repro.deploy import DeploymentSpec
from repro.experiments import adaptive_retry_timeout

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Figs. 9(a)-(e) sweep one field of these, one base spec per system.
#: NetChain's retry timer sits above its 16 outstanding queries per client.
NETCHAIN = DeploymentSpec(backend="netchain", scale=50000.0, store_size=1000,
                          retry_timeout=adaptive_retry_timeout(16, 50000.0))
ZOOKEEPER = DeploymentSpec(backend="zookeeper", scale=1000.0, store_size=1000)
#: The closed-loop load of the throughput figures: four DPDK client
#: servers against NetChain, 60 client processes against ZooKeeper.
NETCHAIN_LOAD = dict(num_clients=4, concurrency=16, write_ratio=0.01,
                     warmup=0.05, duration=0.25)
ZOOKEEPER_LOAD = dict(num_clients=60, concurrency=1, write_ratio=0.01,
                      warmup=0.5, duration=1.5)


def record_result(name: str, title: str, lines: Iterable[str]) -> List[str]:
    """Write a reproduced table/series to disk and echo it to stdout.

    Each result is stored twice: the human-readable text table (as always)
    and a machine-readable JSON document (``results/<name>.json``) so CI
    and tooling can consume figure benchmarks without parsing tables.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    body = list(lines)
    rows = [title] + body
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    json_path = RESULTS_DIR / f"{name}.json"
    json_path.write_text(
        json.dumps({"name": name, "title": title, "rows": body},
                   indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    print()
    for row in rows:
        print(row)
    return rows
