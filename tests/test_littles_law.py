"""Little's law as an oracle on closed-loop cells.

A closed loop with no think time keeps every client's window full, so the
number of queries in flight is always ``num_clients x concurrency``; by
Little's law (L = lambda W) that number over the completion rate is the mean
latency.  A runner that counts completions or latencies apart -- an op
counted twice, a latency timed from a retry, a window that drops its edges --
breaks the identity, whatever the backend.

Each cell is 4 clients x 8 outstanding for 0.05 sim-s on 64 keys, seed 11.
ZooKeeper is left out: at its scaled capacity it completes a handful of ops
in 0.05 s, too few for the window's edges to wash out.
"""

from __future__ import annotations

import pytest

from repro.deploy import DeploymentSpec, ScenarioChecks, WorkloadSpec, run_scenario

CLIENTS, OUTSTANDING = 4, 8

#: ``(backend, write ratio)``: NetChain reads, writes and a 30% mix, and
#: each server-hosted or hybrid backend at the mix.
CELLS = [("netchain", 0.0), ("netchain", 1.0), ("netchain", 0.3),
         ("server-chain", 0.3), ("primary-backup", 0.3), ("hybrid", 0.3)]


@pytest.mark.parametrize("backend, write_ratio", CELLS)
def test_in_flight_over_throughput_is_the_mean_latency(backend, write_ratio):
    spec = DeploymentSpec(backend=backend, store_size=64, value_size=64, seed=11)
    workload = WorkloadSpec(num_clients=CLIENTS, concurrency=OUTSTANDING,
                            write_ratio=write_ratio, think_time=0.0, duration=0.05)
    result = run_scenario(spec, workload, ScenarioChecks(linearizability=False))
    assert result.ok(), result.failures
    ops = result.read_ops + result.write_ops
    mean_latency = (result.mean_read_latency * result.read_ops
                    + result.mean_write_latency * result.write_ops) / ops
    little = CLIENTS * OUTSTANDING / result.success_qps
    assert little == pytest.approx(mean_latency, rel=0.01)
