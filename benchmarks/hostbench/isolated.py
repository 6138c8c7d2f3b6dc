"""Isolated per-layer drivers: one layer's public calls on fixed inputs.

Each driver builds its inputs outside the clock, times a batch of calls
into one layer, and drains whatever those calls queued (scheduled events,
open files) outside the clock again, so ``<layer>.iso_ns`` is host
nanoseconds per public call of that layer alone.  The engine driver is the
exception: its work *is* scheduling and running events, so both are timed.
"""

from __future__ import annotations

import random
import shutil
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.core.client import KVResult
from repro.core.history import History, check_linearizable
from repro.core.history_gen import generate_history
from repro.core.history_store import HistoryWriter
from repro.core.protocol import build_query_packet, make_cas, make_read, make_write
from repro.core.trace import TRACE_SCHEMA, Tracer, TraceWriter
from repro.deploy import DeploymentSpec, build_deployment
from repro.netsim.engine import Simulator
from repro.netsim.host import Host
from repro.netsim.link import connect
from repro.netsim.node import Node
from repro.netsim.packet import IPv4Header, Packet, UDPHeader
from repro.netsim.stats import LatencyRecorder
from repro.netsim.switch import Switch
from repro.workloads.generators import KeyValueWorkload, WorkloadConfig

_now = time.perf_counter_ns
BATCH = 5000
#: A batch runs its timed calls and returns ``(calls, elapsed_ns)``.
Batch = Callable[[], Tuple[int, int]]


class _Sink(Node):
    """A node that swallows every packet."""

    def receive(self, packet, port) -> None:
        pass


def _packets() -> List[Packet]:
    return [Packet(ip=IPv4Header(src_ip="10.1.0.1", dst_ip="10.1.0.2"),
                   udp=UDPHeader(src_port=9000, dst_port=9001), payload_bytes=100)
            for _ in range(BATCH)]


def _timed_calls(sim: Simulator, call: Callable, make_args: Callable[[], list]) -> Batch:
    """Time ``call(*args)`` over a fresh argument list; drain the simulator after."""
    def batch() -> Tuple[int, int]:
        items = make_args()
        started = _now()
        for args in items:
            call(*args)
        elapsed = _now() - started
        sim.run()
        return len(items), elapsed
    return batch


def _engine(seed: int, work_dir: Path) -> Batch:
    sim = Simulator()
    rng = random.Random(seed)
    delays = [rng.random() * 1e-3 for _ in range(BATCH)]

    def noop() -> None:
        pass

    def batch() -> Tuple[int, int]:
        started = _now()
        for delay in delays:
            sim.call_after(delay, noop)
        sim.run()
        return BATCH, _now() - started
    return batch


# The four packet-path drivers below reuse one packet list: none of the
# calls they time rewrites a packet it will see again.

def _link(seed: int, work_dir: Path) -> Batch:
    sim = Simulator()
    a, b = _Sink(sim, "a"), _Sink(sim, "b")
    link = connect(sim, a, b)
    items = [(p, a.ports[0]) for p in _packets()]
    return _timed_calls(sim, link.transmit, lambda: items)


def _host_send(seed: int, work_dir: Path) -> Batch:
    sim = Simulator()
    host = Host(sim, "H0", "10.1.0.1")
    connect(sim, host, _Sink(sim, "sink"))
    items = [(p,) for p in _packets()]
    return _timed_calls(sim, host.send, lambda: items)


def _host_receive(seed: int, work_dir: Path) -> Batch:
    sim = Simulator()
    host = Host(sim, "H0", "10.1.0.2")
    connect(sim, host, _Sink(sim, "sink"))
    items = [(p, host.ports[0]) for p in _packets()]
    return _timed_calls(sim, host.receive, lambda: items)


def _switch(seed: int, work_dir: Path) -> Batch:
    sim = Simulator()
    switch = Switch(sim, "S0", "10.0.0.1")
    connect(sim, switch, _Sink(sim, "sink"))
    items = [(p, switch.ports[0]) for p in _packets()]
    return _timed_calls(sim, switch.receive, lambda: items)


def _netchain(seed: int, unlimited: bool = False):
    return build_deployment(DeploymentSpec(backend="netchain", store_size=64,
                                           value_size=64, seed=seed,
                                           unlimited_capacity=unlimited))


def _program(op: str) -> Callable[[int, Path], Batch]:
    """Steady-state ``NetChainSwitchProgram.process`` of one query type: a
    read at the chain tail, a write or CAS at the chain head."""
    def driver(seed: int, work_dir: Path) -> Batch:
        deployment = _netchain(seed)
        controller = deployment.cluster.controller
        key = deployment.keys[0]
        chain = controller.chain_for_key(key).switches
        ips, vgroup, epoch = controller.route_for_key(key)
        value = bytes(64)
        index = -1 if op == "read" else 0
        switch = deployment.topology.switches[chain[index]]
        program = controller.programs[chain[index]]

        def header():
            if op == "read":
                return make_read(key, list(ips), vgroup=vgroup, epoch=epoch)
            if op == "write":
                return make_write(key, value, list(ips), vgroup=vgroup, epoch=epoch)
            # The stored value always equals ``expected``, so every CAS lands.
            return make_cas(key, value, value, list(ips), vgroup=vgroup, epoch=epoch)

        return _timed_calls(deployment.sim, program.process, lambda: [
            (switch, build_query_packet("10.1.0.1", 9000, ips[index], header()), None)
            for _ in range(BATCH)])
    return driver


def _agent(seed: int, work_dir: Path) -> Batch:
    # Unlimited capacity: the submits must not queue behind a scaled NIC
    # and spend the drain retrying.
    deployment = _netchain(seed, unlimited=True)
    agent = deployment.clients(1)[0]
    key = deployment.keys[0]
    return _timed_calls(deployment.sim, agent.read, lambda: [(key,)] * BATCH)


def _generator(seed: int, work_dir: Path) -> Batch:
    workload = KeyValueWorkload(WorkloadConfig(store_size=64, value_size=64,
                                               write_ratio=0.3),
                                rng=random.Random(seed), tag="c0")
    return _timed_calls(Simulator(), workload.next_operation, lambda: [()] * BATCH)


def _history(seed: int, work_dir: Path) -> Batch:
    sim = Simulator()
    result = KVResult(ok=True, op="write")
    value = bytes(64)

    def batch() -> Tuple[int, int]:
        history = History(sim)
        started = _now()
        for _ in range(BATCH):
            record = history.invoke("c0", "write", "k1", value=value)
            history.complete(record, result)
        return BATCH, _now() - started
    return batch


def _history_writer(seed: int, work_dir: Path) -> Batch:
    ops = generate_history(seed, ops=BATCH).ops
    run_dir = work_dir / "iso-history"

    def batch() -> Tuple[int, int]:
        writer = HistoryWriter(run_dir)
        started = _now()
        for op in ops:
            writer.append(op)
        elapsed = _now() - started
        writer.close()
        shutil.rmtree(run_dir)
        return len(ops), elapsed
    return batch


def _checker(seed: int, work_dir: Path) -> Batch:
    generated = generate_history(seed, ops=1000)

    def batch() -> Tuple[int, int]:
        started = _now()
        report = check_linearizable(generated.ops, initial=generated.initial)
        elapsed = _now() - started
        if not report.ok:
            raise AssertionError("checker rejected a linearizable generated history")
        return len(generated.ops), elapsed
    return batch


def _tracer(seed: int, work_dir: Path) -> Batch:
    sim = Simulator()
    link = connect(sim, _Sink(sim, "a"), _Sink(sim, "b"))
    packet = _packets()[0]
    packet.trace_id = 1

    def batch() -> Tuple[int, int]:
        writer = TraceWriter(work_dir / "iso-spans.ndjson", TRACE_SCHEMA)
        tracer = Tracer(sim, writer=writer)
        started = _now()
        for _ in range(BATCH):
            tracer.link_tx(link, packet, 1e-6, 100)
        elapsed = _now() - started
        writer.close()
        return BATCH, elapsed
    return batch


def _recorder(seed: int, work_dir: Path) -> Batch:
    rng = random.Random(seed)
    samples = [rng.random() * 1e-3 for _ in range(BATCH)]

    def batch() -> Tuple[int, int]:
        recorder = LatencyRecorder()
        started = _now()
        for sample in samples:
            recorder.record(sample)
        return BATCH, _now() - started
    return batch


#: metric name -> driver factory ``(seed, work_dir) -> Batch``.
DRIVERS: Dict[str, Callable[[int, Path], Batch]] = {
    "netsim.engine.iso_ns": _engine,
    "netsim.link.iso_ns": _link,
    "netsim.host.iso_send_ns": _host_send,
    "netsim.host.iso_receive_ns": _host_receive,
    "netsim.switch.iso_ns": _switch,
    "core.switch_program.iso_read_ns": _program("read"),
    "core.switch_program.iso_write_ns": _program("write"),
    "core.switch_program.iso_cas_ns": _program("cas"),
    "core.agent.iso_ns": _agent,
    "workloads.generators.iso_ns": _generator,
    "core.history.iso_ns": _history,
    "core.history.iso_check_ns": _checker,
    "core.history_store.iso_ns": _history_writer,
    "core.trace.iso_ns": _tracer,
    "netsim.stats.iso_ns": _recorder,
}


def run_isolated(seed: int, work_dir: Path, seconds: float = 1.0,
                 repeats: int = 5) -> Dict[str, float]:
    """Per driver, the median of ``repeats`` runs of ``seconds`` each.

    A run lasts ``seconds`` of wall time, input building included, so the
    whole report takes ``15 x repeats x seconds`` whatever a driver's
    timed share is.
    """
    results: Dict[str, float] = {}
    for name, factory in DRIVERS.items():
        batch = factory(seed, work_dir)
        batch()  # warm caches and lazy set-up outside the measurement
        runs = []
        for _ in range(repeats):
            calls = elapsed = 0
            deadline = time.perf_counter() + seconds
            while not calls or time.perf_counter() < deadline:
                n, ns = batch()
                calls += n
                elapsed += ns
            runs.append(elapsed / calls)
        results[name] = statistics.median(runs)
    return results
