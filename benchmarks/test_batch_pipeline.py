"""Batched pipelined submission vs sequential synchronous driving.

The unified client's :class:`~repro.core.client.KVSession` issues a batch
of operations back-to-back with a configurable in-flight window, so the
client pays one round-trip of latency per *window* instead of one per
operation.  This benchmark drives the same read workload one
``read(key).result()`` at a time and through batches at increasing windows
and reports completed queries per simulated second; the window-16 pipeline
must beat sequential driving by at least 2x (in practice it is close to
window x at these scales, since switch processing is deterministic and the
pipeline never drains).

The ``smoke`` marker in the name keeps this in the fast CI benchmark job.
"""

from __future__ import annotations

import pytest

from bench_utils import record_result
from repro.deploy import DeploymentSpec, build_deployment

WINDOWS = (1, 4, 16, 64)
NUM_OPS = 256


def _sequential_qps(agent, keys) -> float:
    start = agent.sim.now
    for key in keys:
        result = agent.read(key).result()
        assert result.ok
    elapsed = agent.sim.now - start
    return len(keys) / elapsed


def _batched_qps(agent, keys, window: int) -> float:
    session = agent.session(window=window)
    batch = session.batch()
    for key in keys:
        batch.read(key)
    start = agent.sim.now
    results = batch.results(deadline=30.0)
    elapsed = agent.sim.now - start
    assert all(r.ok for r in results)
    return len(keys) / elapsed


def run_comparison():
    deployment = build_deployment(DeploymentSpec(
        backend="netchain", scale=20000.0, store_size=NUM_OPS,
        store_slots=max(1024, NUM_OPS + 1024), unlimited_capacity=True))
    agent = deployment.cluster.agent("H0")
    keys = deployment.keys[:NUM_OPS]
    sequential = _sequential_qps(agent, keys)
    batched = {window: _batched_qps(agent, keys, window) for window in WINDOWS}
    return sequential, batched


def test_batch_pipeline_speedup_smoke(benchmark):
    sequential, batched = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    lines = [f"{'mode':>14} | {'queries/sim-second':>18} | {'speedup':>8}"]
    lines.append(f"{'sync loop':>14} | {sequential:>18.0f} | {1.0:>8.2f}")
    for window, qps in sorted(batched.items()):
        lines.append(f"{f'window {window}':>14} | {qps:>18.0f} | {qps / sequential:>8.2f}")
    record_result("batch_pipeline", "Batched pipelined submission vs sequential sync "
                                    f"({NUM_OPS} reads)", lines)

    # A window of 1 pipelines nothing: parity with the sync loop.
    assert batched[1] == pytest.approx(sequential, rel=0.25)
    # The acceptance bar: ≥2x at window 16 (in practice far higher).
    assert batched[16] >= 2.0 * sequential
    # Wider windows keep helping until the wire dominates.
    assert batched[16] > batched[4] > batched[1]
