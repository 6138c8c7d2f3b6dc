"""The runtime is stdlib-only, and replays what its two dependencies computed.

``fixtures/routes_and_zipf.json`` was captured on commit 05d37f9 -- the last
one whose routes came from a third-party graph library and whose Zipf keys
from a third-party array library (names and versions: EXPERIMENTS.md, "Cold
start (PR 21)") -- by packing the value of every entry of ``CASES`` below,
before any source edit.  Each value is ``base64(zlib(json))`` of the literal
structure: forwarding tables as ``exclusion -> switch -> dst IP -> next-hop
name``, key draws as a list of key indices.  A mismatch is a bug in
``netsim/routing.py`` or ``workloads/generators.py``, never a fixture to
refresh.
"""

from __future__ import annotations

import ast
import base64
import json
import random
import subprocess
import sys
import zlib
from itertools import combinations
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import pytest

from repro.netsim.routing import install_shortest_path_routes
from repro.netsim.topology import Topology, build_line, build_spine_leaf, build_testbed
from repro.workloads.generators import KeyValueWorkload, WorkloadConfig
from tests.conftest import make_cluster

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).parent / "fixtures" / "routes_and_zipf.json"
DRAWS = 20000


def _grown_testbed(*new_switches: str) -> Topology:
    cluster = make_cluster()
    for name in new_switches:
        cluster.add_switch(name)
    return cluster.topology


def route_tables(topology: Topology) -> Dict[str, Dict[str, Dict[str, str]]]:
    """``exclusion -> switch -> dst IP -> next-hop name`` under no exclusion,
    every single excluded switch and every pair.  An excluded switch's own
    table is left as it was, so it is not part of the record."""
    switches = sorted(topology.switches)
    exclusions = [(), *combinations(switches, 1), *combinations(switches, 2)]
    tables = {}
    for excluded in exclusions:
        install_shortest_path_routes(topology, exclude=excluded)
        tables["+".join(excluded)] = {
            name: {ip: port.peer().node.name
                   for ip, port in switch.forwarding_table.items()}
            for name, switch in topology.switches.items()
            if name not in excluded}
    return tables


def zipf_keys(store_size: int, theta: float, rng_seed: int) -> List[int]:
    """Indices of the first ``DRAWS`` keys one workload picks."""
    workload = KeyValueWorkload(
        WorkloadConfig(store_size=store_size, zipf_theta=theta),
        rng=random.Random(rng_seed))
    return [int(workload.pick_key()[1:]) for _ in range(DRAWS)]


def _client0(scenario_seed: int) -> int:
    """The RNG seed ``run_scenario`` gives the first load client."""
    return (scenario_seed << 8) + 1


#: ``(store_size, theta, rng seed)`` of every skewed workload the suite
#: runs, plus the paper's store size at the paper's skew.
ZIPF_CASES = [
    # tests/test_hotkeys.py
    (64, 0.99, _client0(7)), (32, 0.99, _client0(7)), (8, 0.99, _client0(3)),
    # tests/test_workloads.py
    (100, 1.2, 2), (50, 0.99, 11), (40, 1.2, 5), (40, 1.2, 6), (20, 0.99, 9),
    # benchmarks/test_hotkey_tier.py (its theta 0.0 builds no table)
    (64, 0.5, _client0(7)), (64, 0.9, _client0(7)), (64, 1.2, _client0(7)),
    (20000, 0.99, 0),
]

CASES: Dict[str, Callable[[], Any]] = {
    "routes:testbed": lambda: route_tables(build_testbed()),
    "routes:testbed+S4": lambda: route_tables(_grown_testbed("S4")),
    "routes:testbed+S4+S5": lambda: route_tables(_grown_testbed("S4", "S5")),
    "routes:spine_leaf_2x4": lambda: route_tables(
        build_spine_leaf(2, 4, hosts_per_leaf=2)),
    "routes:spine_leaf_4x8": lambda: route_tables(
        build_spine_leaf(4, 8, hosts_per_leaf=1)),
    "routes:line5": lambda: route_tables(build_line(5, hosts_at={0: 1, 2: 1, 4: 1})),
    **{f"zipf:{n},{theta},{seed}": (lambda case=(n, theta, seed): zipf_keys(*case))
       for n, theta, seed in ZIPF_CASES},
}


def pack(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return base64.b64encode(zlib.compress(text.encode(), 9)).decode()


def unpack(blob: str) -> Any:
    return json.loads(zlib.decompress(base64.b64decode(blob)))


def first_difference(expected: Any, got: Any, path: str = "") -> Optional[str]:
    """Where two JSON values first part: ``/exclusion/switch/dst IP`` in a
    route record, ``/draw index`` in a key record."""
    if type(expected) is not type(got):
        return f"{path}: captured {expected!r}, now {got!r}"
    if isinstance(expected, dict):
        for key in sorted(expected.keys() | got.keys()):
            if key not in expected or key not in got:
                return (f"{path}/{key}: captured {expected.get(key)!r}, "
                        f"now {got.get(key)!r}")
            found = first_difference(expected[key], got[key], f"{path}/{key}")
            if found:
                return found
        return None
    if isinstance(expected, list):
        if len(expected) != len(got):
            return f"{path}: captured {len(expected)} entries, now {len(got)}"
        for index, (a, b) in enumerate(zip(expected, got)):
            found = first_difference(a, b, f"{path}/{index}")
            if found:
                return found
        return None
    return None if expected == got else f"{path}: captured {expected!r}, now {got!r}"


@pytest.fixture(scope="module")
def captured() -> Dict[str, str]:
    blobs = json.loads(FIXTURE.read_text())
    assert set(blobs) == set(CASES)
    return blobs


@pytest.mark.anchor
@pytest.mark.parametrize("case", list(CASES))
def test_routes_and_keys_replay_the_parent_capture(case, captured):
    difference = first_difference(unpack(captured[case]), CASES[case]())
    assert difference is None, f"{case}{difference}"


#: One short scenario per backend; the NetChain one takes the Zipf table and
#: the reroute around a failed switch.  Then: what did all of that import?
_DRIVE = """
import sys
from repro.deploy import DeploymentSpec, WorkloadSpec, available_backends, run_scenario

backends = available_backends()
assert len(backends) == 5, backends
for backend in backends:
    netchain = backend == "netchain"
    spec = DeploymentSpec(backend=backend, store_size=16, seed=1,
                          faults=[(0.004, "fail_switch", "S1")] if netchain else [])
    workload = WorkloadSpec(duration=0.01, zipf_theta=0.99 if netchain else 0.0)
    assert run_scenario(spec, workload).ok(), backend
main = sys.modules["__main__"]  # multiprocessing files it under a second name
print(*sorted({name.partition(".")[0] for name, module in sys.modules.items()
               if module is not main}))
"""


def test_five_backends_run_on_the_standard_library_alone():
    # -S: no site-packages, so no ``.pth`` hook shows up in sys.modules.
    done = subprocess.run([sys.executable, "-S", "-c", _DRIVE], capture_output=True,
                          text=True, timeout=120, cwd=ROOT,
                          env={"PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
    foreign = set(done.stdout.split()) - sys.stdlib_module_names - {"repro"}
    assert not foreign, sorted(foreign)


def test_src_imports_only_the_standard_library_and_itself():
    foreign = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                        for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names | {"repro"}]
    assert not foreign, foreign
