"""A memory budget for the replay signature, beside the packet path's call budget.

:func:`repro.deploy.matrix.signature_digest` fingerprints every matrix cell,
every ``replay_digests.json`` anchor and every hostbench pass.  It hashes one
seeded 0.1 sim-second NetChain run here (64 keys, 64-byte values, write
ratio 0.3, 4 clients x 8 outstanding, 8,232 ops) twice: once from a spilled
``history/v1`` run dir and once from the in-memory history.  What is
asserted is the ``tracemalloc`` peak while the digest runs, in bytes per
op, at or under a committed budget.  A reader that loads the run whole (a
list of every op's tuple, or its ``repr`` as one string) grows with the
run and trips it on any machine; a budget is raised deliberately, with the
allocation that needs it named in the commit.

``PYTHONPATH=src python tests/test_signature_memory_budget.py`` prints the
measured lines (CI appends them to the job summary).
"""

from __future__ import annotations

import gc
import tempfile
import tracemalloc

from repro.deploy import DeploymentSpec, ScenarioChecks, WorkloadSpec, run_scenario
from repro.deploy.matrix import signature_digest

#: mode -> peak bytes per op while the digest runs.  Measured when committed
#: (64-tuple chunks, after a ``gc.collect()``): 69.2 spilled and 5.4 in
#: memory.  Before the signature streamed, it built the whole list and its
#: ``repr``: 611.0 and 339.1.  The budgets are the first streaming
#: figures (76.0 and 13.9, 256-tuple chunks) plus ~20%.
BUDGET = {"spilled": 92.0, "memory": 17.0}
OPS = 8232


def measure():
    """``{mode: (digest, peak bytes per op)}`` of one seeded run, both modes."""
    spec = DeploymentSpec(backend="netchain", store_size=64, value_size=64, seed=11)
    workload = WorkloadSpec(write_ratio=0.3, duration=0.1, drain=0.1,
                            num_clients=4, concurrency=8)
    rows = {}
    with tempfile.TemporaryDirectory() as run_dir:
        for mode, checks in (
                ("spilled", ScenarioChecks(history_mode="spill", run_dir=run_dir,
                                           verify_workers=0, verdict_cache=None)),
                ("memory", ScenarioChecks())):
            result = run_scenario(spec, workload, checks)
            assert result.ok(), result.failures
            assert len(result.history) == OPS
            # Garbage the earlier tests left behind would otherwise be
            # collected inside the window and count against the digest.
            gc.collect()
            tracemalloc.start()
            try:
                digest = signature_digest(result)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            rows[mode] = (digest, peak / OPS)
    return rows


def test_signature_digest_peak_bytes_per_op_stay_under_budget():
    rows = measure()
    assert rows["spilled"][0] == rows["memory"][0]
    for mode, (_digest, bytes_per_op) in rows.items():
        assert bytes_per_op <= BUDGET[mode], f"{mode}: {bytes_per_op:.1f} B/op"


if __name__ == "__main__":
    for mode, (digest, bytes_per_op) in measure().items():
        print(f"signature digest, per op ({mode}): {bytes_per_op:.1f} peak bytes "
              f"(budget {BUDGET[mode]:.0f}), digest {digest[:12]}")
