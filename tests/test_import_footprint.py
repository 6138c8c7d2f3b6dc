"""A NetChain run imports only what NetChain needs.

The server baselines are imported by the builders that use them, the
``multiprocessing`` package only where a pool is made, and the telemetry
plane (:mod:`repro.core.trace`) only when a spec turns it on.  A fresh
interpreter builds a ``netchain`` deployment and its clients, the set-up
every hostbench pass times, and must not have loaded any of them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
from repro.deploy import DeploymentSpec, build_deployment
deployment = build_deployment(DeploymentSpec(backend="netchain", store_size=64, seed=11))
deployment.clients(4)
print(json.dumps(sorted(sys.modules)))
"""

UNWANTED = ("multiprocessing", "repro.baselines", "repro.core.trace")


def test_netchain_deployment_loads_no_baseline_pool_or_tracer():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    loaded = json.loads(out)
    assert "repro.deploy.backends" in loaded
    assert [name for name in loaded
            if any(name == top or name.startswith(top + ".") for top in UNWANTED)] == []
