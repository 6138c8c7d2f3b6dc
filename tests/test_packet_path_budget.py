"""A deterministic work budget for the steady-state packet path.

One seeded 0.1 sim-second closed-loop scenario per query kind, shaped like
hostbench's ``chain_read`` / ``chain_write`` (64 keys, 64-byte values,
4 clients x 8 outstanding, no loss, no faults, no telemetry), on NetChain
and on the server-hosted chain over TCP, and one traced NetChain mix, run
under ``sys.setprofile``.
What is asserted is a *count*, not a speed: Python calls and C calls per
completed operation at or under a committed budget, and events and
packets built (``Packet.__init__`` frames) per run pinned exactly.  A per-hop call creeping back into
the path (a wrapper, a property, a keyword-built record) trips it on any
machine; a budget is raised deliberately, with the call that needs it named
in the commit.

The spilled history has two rows of its own under the same harness: calls
per op appended to a ``history/v1`` run dir and per op loaded back from it
(5,120 generated ops over 64 keys), the two halves of the record that
``verified_failover`` pays for on every op.

``PYTHONPATH=src python tests/test_packet_path_budget.py`` prints the
measured lines (CI appends them to the job summary).
"""

from __future__ import annotations

import sys
import tempfile

import pytest

from repro.core.history_gen import generate_history
from repro.core.history_store import HistoryStore, HistoryWriter
from repro.deploy import (
    DeploymentSpec,
    ScenarioChecks,
    WorkloadSpec,
    build_deployment,
    run_scenario,
)
from repro.netsim.packet import Packet

#: kind -> (backend, write ratio, traced, Python calls/op, C calls/op, ops, events,
#: packets built).
#: Measured when committed (after a queued switch took its packets in at the
#: pass, as of the arrival, so a pass with no backlog ahead costs one event):
#: NetChain 54.1 / 43.3 per read (55.0 / 44.3 before a header carried the
#: canonical key, unpadded, and a switch matched it in its store's index
#: directly, 58.5 / 49.3 before that, 60.5 / 48.3 before every
#: backend built its one ``KVResult`` where the reply lands, 64.8 / 48.3
#: before a link pushed its arrivals onto the heap itself, a queue-free
#: switch's pass took the place of its arrival event and a TCP segment stopped
#: arming a timer of its own, 64.8 / 49.3 before the switch store kept each
#: value once, 79.0 / 53.3 before a pending query became its
#: own future and a link arrival the far node's ``receive``, 81.0 / 55.3
#: before the host hops were fused) and 77.3 / 71.1 per write (80.3 / 74.1,
#: 85.1 / 81.8, 87.1 / 80.8, 93.5 / 80.8, 99.5 / 82.8, 115.8 / 86.8,
#: 117.8 / 88.8), 5.99 and
#: 8.86 events (8.48 and 12.68 before, 9.48 and 13.68 before a host's TX hop
#: was fused); server chain 45.0 / 38.0 per read (45.0 / 48.0 before an ACK
#: clamped its RTO and window and a send its backoff without ``min`` /
#: ``max``, 45.0 / 49.0 before a str
#: key's canonical spelling took one C call, 69.0 / 57.0 before a TCP
#: segment on a clean host -> transparent switch -> host path was carried as
#: a payload by ``link.carry``, with no packet, 77.0 / 65.0 before a
#: transparent switch's pass ran inside its arrival's ``Link.transmit``,
#: 79.0 / 65.0, 105.1 / 79.0, 111.1 / 79.0, 131.1 / 95.0) and 71.1 / 65.1
#: per write (71.1 / 85.1, 71.1 / 86.1, 119.1 / 102.1, 135.1 / 118.1, 137.1 / 118.1,
#: 189.1 / 146.1, 197.1 / 146.1, 237.1 / 178.1), 4.00 and 8.01 events (8.00 and 16.01 before,
#: 12.00 and 24.00 before that, 20.00 and 40.00 with no hop fused; a write's
#: extra 0.01 is RTO keys coming due after their ACK).  Packets built: one
#: per NetChain op (its query; the reply is the same packet rewritten), none
#: on the server chain (4.0 per read and 8.0 per write before segments were
#: carried).
#: The traced row is hostbench's ``telemetry_on`` mix (30% writes) with the
#: telemetry plane on: 85.9 Python / 102.4 C calls and 6.72 events per op, the
#: untraced mix's events plus one per sampler tick (87.5 / 104.1 with the
#: padded key, 96.3 / 105.2 and 10.78 before a traced switch pass and host TX took the untraced hop path; each
#: float of a ``trc`` line is now looked up among the spellings its shape
#: remembers, a counted C call, where ``%`` spelled it inside an uncounted one).
#: The budgets are the measured count plus ~3%.
BUDGET = {
    "read": ("netchain", 0.0, False, 55.7, 44.6, 8232, 49316, 8232),
    "write": ("netchain", 1.0, False, 79.7, 73.3, 8232, 72972, 8232),
    "traced-mix": ("netchain", 0.3, True, 88.4, 105.5, 8232, 55357, 8232),
    "server-chain-read": ("server-chain", 0.0, False, 46.4, 39.1, 19776, 79152, 0),
    "server-chain-write": ("server-chain", 1.0, False, 73.2, 67.1, 9861, 78944, 0),
}

#: half -> (Python calls/op, C calls/op) of the spilled history.  Measured
#: when committed: 5.2 / 12.9 per appended op (6.2 / 14.9 while the writer
#: re-canonicalized each key, 13.0 / 19.1 before the line was templated and
#: a key's lines parsed as one array) and 2.7 / 14.4 per loaded op
#: (12.1 / 30.1).  Measured count plus ~3%.
HISTORY_BUDGET = {"append": (5.3, 13.3), "load": (2.8, 14.9)}
HISTORY_OPS = 5120  # 20 of the writer's batches: every line is spelled inside an append


_PACKET_INIT = Packet.__init__.__code__


def profiled(call):
    """``(call(), Python calls, C calls, packets built)`` with ``call`` run
    under ``sys.setprofile``; a packet built is a ``Packet.__init__`` frame."""
    counts = {"call": 0, "c_call": 0, "packet": 0}

    def count(frame, event, arg):
        if event in counts:
            counts[event] += 1
            if frame.f_code is _PACKET_INIT and event == "call":
                counts["packet"] += 1

    sys.setprofile(count)
    try:
        value = call()
    finally:
        sys.setprofile(None)
    return value, counts["call"], counts["c_call"], counts["packet"]


def measure(backend: str, write_ratio: float, traced: bool = False):
    """``(ops, events, Python calls, C calls, packets)`` of one profiled
    scenario, traced into a temporary run dir when ``traced``."""
    with tempfile.TemporaryDirectory() as run_dir:
        spec = DeploymentSpec(backend=backend, store_size=64, value_size=64, seed=11,
                              telemetry={"run_dir": run_dir} if traced else None)
        workload = WorkloadSpec(write_ratio=write_ratio, duration=0.1, drain=0.1,
                                num_clients=4, concurrency=8)
        deployment = build_deployment(spec)
        deployment.clients(workload.num_clients)
        result, python_calls, c_calls, packets = profiled(lambda: run_scenario(
            spec, workload, ScenarioChecks(linearizability=False), deployment=deployment))
    return (result.completed_ops, deployment.sim.processed_events, python_calls, c_calls,
            packets)


def measure_history():
    """``{half: (Python calls, C calls)}`` per op of one spilled history."""
    ops = generate_history(11, keys=64, ops=HISTORY_OPS).ops
    with tempfile.TemporaryDirectory() as run_dir:
        writer = HistoryWriter(run_dir)
        _, *append, _packets = profiled(lambda: [writer.append(op) for op in ops])
        writer.close()
        with HistoryStore(run_dir) as store:
            keys = store.keys()
            loaded, *load, _packets = profiled(lambda: [store.ops_for_key(key) for key in keys])
    assert sum(map(len, loaded)) == len(ops) == HISTORY_OPS
    return {"append": [calls / HISTORY_OPS for calls in append],
            "load": [calls / HISTORY_OPS for calls in load]}


#: The NetChain rows are anchors too (the server-chain rows cost 8 s more
#: per rerun and share their path with the ``tcp`` replay anchors).
@pytest.mark.parametrize("kind", [
    pytest.param(kind, marks=pytest.mark.anchor) if BUDGET[kind][0] == "netchain" else kind
    for kind in sorted(BUDGET)])
def test_calls_per_op_stay_under_budget_and_events_per_op_are_pinned(kind):
    (backend, write_ratio, traced, python_budget, c_budget, expected_ops, events,
     packets) = BUDGET[kind]
    ops, processed, python_calls, c_calls, built = measure(backend, write_ratio, traced)
    assert (ops, processed, built) == (expected_ops, events, packets)
    assert python_calls / ops <= python_budget, f"{python_calls / ops:.1f} Python calls/op"
    assert c_calls / ops <= c_budget, f"{c_calls / ops:.1f} C calls/op"


def test_history_calls_per_appended_and_per_loaded_op_stay_under_budget():
    for half, (python_calls, c_calls) in measure_history().items():
        python_budget, c_budget = HISTORY_BUDGET[half]
        assert python_calls <= python_budget, f"{half}: {python_calls:.1f} Python calls/op"
        assert c_calls <= c_budget, f"{half}: {c_calls:.1f} C calls/op"


if __name__ == "__main__":
    for kind, (backend, write_ratio, traced, *_budget) in BUDGET.items():
        ops, processed, python_calls, c_calls, packets = measure(backend, write_ratio, traced)
        print(f"packet path, per {kind}: {python_calls / ops:.1f} Python calls, "
              f"{c_calls / ops:.1f} C calls, {processed / ops:.2f} events, "
              f"{packets / ops:.2f} packets built")
    for half, (python_calls, c_calls) in measure_history().items():
        print(f"spilled history, per op ({half}): {python_calls:.1f} Python calls, "
              f"{c_calls:.1f} C calls")
