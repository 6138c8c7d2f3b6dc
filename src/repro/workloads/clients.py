"""Load-driving clients.

Both systems are driven by **closed-loop** logical clients: each logical
client keeps a fixed number of queries outstanding and issues the next one
as soon as a reply (or a timeout) comes back.  This is how the paper's
evaluation generates load -- DPDK client processes for NetChain and 100
Curator client processes for ZooKeeper (Section 8.1) -- and it makes the
measured saturation throughput insensitive to the exact concurrency level
once the bottleneck resource is saturated.

There is one load client, :class:`LoadClient`, driven through the
backend-agnostic :class:`repro.core.client.KVClient` protocol; pass it a
NetChain agent or a :class:`repro.baselines.zk_client.ZooKeeperKVClient`
and the same code path exercises either system.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.core.client import KVClient, KVResult
from repro.core.history import History, HistoryOp
from repro.netsim.stats import IntervalCounter, LatencyRecorder
from repro.workloads.generators import KeyValueWorkload, OpType

_client_names = itertools.count()
_WRITE = OpType.WRITE


class LoadClient:
    """Closed-loop load generator driving one :class:`KVClient`.

    With a :class:`repro.core.history.History` attached, every invocation
    and response is recorded for post-run consistency checking; with a
    non-zero ``think_time`` each logical client waits that long between a
    completion and the next issue, which turns the closed loop into a paced
    load suitable for long failure timelines.
    """

    def __init__(self, client: KVClient, workload: KeyValueWorkload,
                 concurrency: int = 16,
                 history: Optional[History] = None,
                 think_time: float = 0.0,
                 name: Optional[str] = None) -> None:
        self.client = client
        self.workload = workload
        self.concurrency = concurrency
        self.completions = IntervalCounter()
        self.successes = IntervalCounter()
        self.read_latency = LatencyRecorder()
        self.write_latency = LatencyRecorder()
        self.history = history
        self.think_time = think_time
        self.name = name or f"load{next(_client_names)}"
        self.running = False
        self.failed_queries = 0

    @property
    def sim(self):
        return self.client.sim

    def start(self) -> None:
        """Begin issuing queries (call before running the simulator)."""
        self.running = True
        for _ in range(self.concurrency):
            self._issue()

    def stop(self) -> None:
        """Stop issuing new queries; outstanding ones drain naturally."""
        self.running = False

    def _issue(self) -> None:
        if not self.running:
            return
        operation = self.workload.next_operation()
        record: Optional[HistoryOp] = None
        if operation.op is _WRITE:
            if self.history is not None:
                record = self.history.invoke(self.name, "write", operation.key,
                                             value=operation.value)
            future = self.client.write(operation.key, operation.value)
        else:
            if self.history is not None:
                record = self.history.invoke(self.name, "read", operation.key)
            future = self.client.read(operation.key)
        if record is None:
            future.then(self._on_done)
        else:
            future.then(lambda result: self._on_done(result, record))

    def _on_done(self, result: KVResult, record: Optional[HistoryOp] = None) -> None:
        sim = self.client.sim
        now = sim._now
        if record is not None:
            self.history.complete(record, result)
        self.completions.record(now)
        if result.ok:
            self.successes.record(now)
            if result.op == "read":
                self.read_latency.record(result.latency)
            else:
                self.write_latency.record(result.latency)
        else:
            self.failed_queries += 1
        if self.think_time > 0:
            sim.call_after(self.think_time, self._issue)
        else:
            self._issue()
