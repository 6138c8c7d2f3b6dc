"""Causal per-query tracing and the telemetry plane (``trace/v2``).

This is the *policy* half of the telemetry stack (the mechanism half --
registry, histograms, sampler, event log -- lives in
:mod:`repro.netsim.telemetry`):

* :class:`Tracer` -- the single object instrumented hot paths talk to.
  Hosts, links, switches, switch programs and agents each hold a
  ``telemetry`` attribute that is ``None`` by default; when a scenario
  enables telemetry it points at one shared tracer, and every hop of a
  traced query adds its stage values to the query's open trace, as of
  the hop's own time: a traced run takes the untraced run's hop path,
  where a host's TX or a switch's arrival costs no event of its own.
* ``trace/v2`` run directories -- one ``trc`` record per traced query,
  hop-by-hop spans for the tail only, metric time series and
  control-plane events spill as :mod:`repro.artifacts` NDJSON streams,
  the format ``history/v1`` uses, so a seeded run's telemetry is
  byte-identical across replays.
* :class:`TelemetryPlane` -- composes tracer + metrics registry +
  periodic sampler + control event log for one scenario, wired through
  ``DeploymentSpec(telemetry=...)``.
* Reconstruction -- :func:`trace_breakdowns` / :func:`stage_percentiles`
  / :func:`format_report` rebuild per-query critical paths (host stack,
  NIC queue, link transit, switch queue, pipeline stages) and per-stage
  percentiles from a spilled run; ``python -m repro trace report
  <run_dir>`` is the CLI front end.

``spans.ndjson`` holds two kinds of record, both declared once below:

* one ``trc`` record (:data:`TRACE_SHAPE`) per traced query, written when
  it ends -- on its reply, its timeout, or at the end of the run if it is
  still open -- with the query's stage sums;
* the query's hop-by-hop spans (:data:`SPAN_SHAPES`), kept for *tail*
  traces only: every retried, timed-out, non-ok or unfinished trace
  (written just ahead of its ``trc`` record), and the
  :data:`SLOWEST_KEPT` slowest of the other completed traces (written at
  the end of the run).  A span of a tail trace that *follows* its ``trc``
  record is a retransmitted copy that was still in flight when the trace
  ended; it is not in the record's sums, and the reader adds it.

Nothing machine- or process-dependent appears in any record: trace ids
are allocated per run (not the process-global query ids), times are
sim-times, and the header carries only the deployment meta.
"""

from __future__ import annotations

import json
from functools import lru_cache
from heapq import heappush, heapreplace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

# ``TraceWriter`` is the name benchmarks/hostbench constructs the writer under.
from repro.artifacts import NdjsonWriter as TraceWriter
from repro.artifacts import RecordShape, read_header, scan
from repro.core.history_store import encode_bytes
from repro.core.protocol import OpCode, QueryStatus
from repro.netsim.telemetry import (
    ControlEventLog,
    MetricsRegistry,
    PeriodicSampler,
    TelemetryConfig,
    failure_timeline,
)

TRACE_SCHEMA = "trace/v2"
METRICS_SCHEMA = "trace-metrics/v2"
EVENTS_SCHEMA = "trace-events/v1"

SPANS_FILE = "spans.ndjson"
METRICS_FILE = "metrics.ndjson"
EVENTS_FILE = "events.ndjson"
_FILES = ((SPANS_FILE, TRACE_SCHEMA), (METRICS_FILE, METRICS_SCHEMA),
          (EVENTS_FILE, EVENTS_SCHEMA))

#: Critical-path stages a query's latency decomposes into.  ``other`` is
#: the residual (retry timeouts, in-flight waits not covered by spans).
STAGES = ("host_stack", "nic_queue", "link", "switch_queue",
          "switch_pipeline")

#: How many of the slowest completed, unretried ``ok`` traces keep their spans.
SLOWEST_KEPT = 32

#: The ``trc`` field each stage's sum is written under: the stage's initials.
STAGE_FIELDS = ("hs", "nq", "lk", "sq", "sp")

#: One traced query: start time, trace id, agent, op, key, status (``null``
#: while unfinished), end-to-end latency (``null`` unless a reply came),
#: retries, the five stage sums (:data:`STAGE_FIELDS`), link hops and chain
#: hops.
TRACE_SHAPE = RecordShape(ev="trc", t=float, id=int, n=str, op=str, key=str,
                          st=str, l=float, r=int,
                          **dict.fromkeys(STAGE_FIELDS, float),
                          hops=int, chain_hops=int)

# The span kinds.  Every span carries ``ev``, ``t`` (sim-time), ``id`` (per-run
# trace id, dense from 1) and ``n`` (the agent, host, link or switch emitting
# it); a hook passes the values in the order declared.  The variant under a
# kind adds the one field that is omitted when it is zero.
_SPAN = {"t": float, "id": int, "n": str}
_SUB = RecordShape(ev="sub", **_SPAN, op=str, key=str)  # query submitted by an agent
_QTX = RecordShape(ev="qtx", **_SPAN, r=int, dst=str)  # one (re)transmission: retry index, IP
_HTX = RecordShape(ev="htx", **_SPAN, d=float)  # host TX path: d stack delay
_HTX_Q = RecordShape(**_HTX.fields, q=float)  # ... q NIC-queue wait
_HRX = RecordShape(ev="hrx", **_SPAN, d=float)  # host RX path: d stack delay
_HRX_Q = RecordShape(**_HRX.fields, q=float)  # ... q NIC-queue wait
_LNK = RecordShape(ev="lnk", **_SPAN, l=float)  # link transit: propagation + serialization
_SWQ = RecordShape(ev="swq", **_SPAN, p=float)  # switch ingress: p pipeline delay
_SWQ_W = RecordShape(**_SWQ.fields, w=float)  # ... w queue wait
_SWP = RecordShape(ev="swp", **_SPAN, op=str, vg=int, sc=int)  # chain hop: vgroup, hops left
_REP = RecordShape(ev="rep", **_SPAN, st=str, l=float)  # reply: status, end-to-end latency
_REP_R = RecordShape(**_REP.fields, r=int)  # ... r retries
_TMO = RecordShape(ev="tmo", **_SPAN, r=int)  # retry exhaustion: r retries
#: The nine span kinds kept for tail traces and their optional-field variants.
SPAN_SHAPES = (_SUB, _QTX, _HTX, _HTX_Q, _HRX, _HRX_Q, _LNK, _SWQ, _SWQ_W,
               _SWP, _REP, _REP_R, _TMO)

_OP_NAMES = {op: op.name.lower() for op in OpCode}
_STATUS_NAMES = {status: status.name.lower() for status in QueryStatus}


#: A key as spans spell it (its :func:`encode_bytes` text), memoized.
_key_label = lru_cache(maxsize=1 << 16)(encode_bytes)


class _Trace:
    """An open trace: its stage sums so far, and its spans as ``(shape,
    *values)`` tuples that are spelled only if the trace is kept."""

    __slots__ = ("start", "agent", "op", "key", "host_stack", "nic_queue",
                 "link", "switch_queue", "switch_pipeline", "hops",
                 "chain_hops", "spans")

    def __init__(self, start: float, agent: str, op: str, key: str,
                 submit: tuple) -> None:
        self.start = start
        self.agent = agent
        self.op = op
        self.key = key
        self.host_stack = self.nic_queue = self.link = 0.0
        self.switch_queue = self.switch_pipeline = 0.0
        self.hops = self.chain_hops = 0
        self.spans = [submit]


class Tracer:
    """The one object every instrumented hot path talks to.

    Call sites keep a ``telemetry`` attribute that defaults to ``None``
    and guard with a single ``if tel is not None`` -- the whole cost of
    the disabled mode.  When attached, the tracer stamps a fresh trace id
    into each sampled query's packet (carried in the slotted ``Packet``
    header and across ``copy()``), adds every hop to the query's open
    trace, writes one ``trc`` record when the query ends (spans only for
    the tail), accumulates per-link bit counts for the utilization time
    series, the per-vgroup op mix, and the query-latency histograms.  A
    hop of a trace id that is not open writes nothing, unless the trace
    ended as a tail trace (see the module docstring).
    """

    __slots__ = ("sim", "writer", "registry", "sample_every", "submits", "opmix",
                 "_next_id", "_latency", "_open", "_tail_ids", "_slowest")

    def __init__(self, sim, writer: TraceWriter,
                 registry: Optional[MetricsRegistry] = None,
                 sample_every: int = 1) -> None:
        self.sim = sim
        self.writer = writer
        self.registry = registry
        self.sample_every = max(1, sample_every)
        self.submits = 0
        #: ``(vgroup, op_name) -> completed queries`` -- sampled into the
        #: metrics time series and totalled in the summary.
        self.opmix: Dict[Tuple[int, str], int] = {}
        self._next_id = 1
        #: ``op_name -> histograms`` a reply's latency is recorded into.
        self._latency: Dict[str, list] = {}
        #: ``trace id -> _Trace`` of every query still awaiting its end.
        self._open: Dict[int, _Trace] = {}
        #: Ids of ended tail traces: their later hops are written at once.
        self._tail_ids: set = set()
        #: Min-heap of ``(latency, -id, spans)``: the slowest clean traces.
        self._slowest: List[tuple] = []

    @property
    def traces(self) -> int:
        """Trace ids allocated so far."""
        return self._next_id - 1

    @property
    def span_count(self) -> int:
        """Records written to the span file so far (``trc`` records + spans)."""
        return self.writer.records

    # ------------------------------------------------------------------ #
    # Agent hooks.
    # ------------------------------------------------------------------ #

    def query_submit(self, agent, pending) -> int:
        """Allocate (or decline) a trace id for a freshly submitted query."""
        self.submits += 1
        if self.sample_every > 1 and (self.submits - 1) % self.sample_every:
            return 0
        tid = self._next_id
        self._next_id = tid + 1
        now = self.sim._now
        op = pending.op or _OP_NAMES[pending.code]
        key = _key_label(pending.key)
        self._open[tid] = _Trace(now, agent.name, op, key,
                                 (_SUB, now, tid, agent.name, op, key))
        return tid

    def query_tx(self, agent, pending, dst_ip: str) -> None:
        tid = pending.trace_id
        trace = self._open.get(tid)
        if trace is not None:
            trace.spans.append((_QTX, self.sim._now, tid, agent.name,
                                pending.retries, dst_ip))

    def query_reply(self, agent, pending, header, latency: float) -> None:
        registry = self.registry
        if registry is not None:
            op_name = pending.op
            histograms = self._latency.get(op_name)
            if histograms is None:
                histograms = self._latency[op_name] = [
                    registry.histogram("query_latency_s")]
                if op_name:
                    histograms.append(
                        registry.histogram(f"query_latency_s:{op_name}"))
            bucket = histograms[0]._bucket(latency)  # every one is bucketed alike
            for histogram in histograms:
                histogram.record(latency, bucket)
        tid = pending.trace_id
        trace = self._open.pop(tid, None)
        if trace is not None:
            status = _STATUS_NAMES[header.status]
            retries = pending.retries
            trace.spans.append(
                (_REP_R, self.sim._now, tid, agent.name, status, latency, retries)
                if retries else
                (_REP, self.sim._now, tid, agent.name, status, latency))
            self._end(tid, trace, status, latency, retries)

    def query_timeout(self, agent, pending) -> None:
        registry = self.registry
        if registry is not None:
            registry.inc("query_timeouts")
        tid = pending.trace_id
        trace = self._open.pop(tid, None)
        if trace is not None:
            trace.spans.append((_TMO, self.sim._now, tid, agent.name,
                                pending.retries))
            self._end(tid, trace, "timeout", None, pending.retries)

    # ------------------------------------------------------------------ #
    # Netsim hooks (hosts, links, switches).  Each adds the stage values
    # its span carries, in hook order, so a trace's sums are the sums of
    # its spans; ``at`` stamps a span with its hop's TX or arrival time.
    # ------------------------------------------------------------------ #

    def host_tx(self, host, packet, delay: float) -> None:
        tid = packet.trace_id
        if tid:
            stack = host.config.stack_delay
            queue = delay - stack
            span = (_HTX_Q, self.sim._now, tid, host.name, stack, queue) \
                if queue > 0 else (_HTX, self.sim._now, tid, host.name, stack)
            trace = self._open.get(tid)
            if trace is not None:
                trace.host_stack += stack
                if queue > 0:
                    trace.nic_queue += queue
                trace.spans.append(span)
            elif tid in self._tail_ids:
                self._write(span)

    def host_rx(self, host, packet, delay: float, at: float) -> None:
        tid = packet.trace_id
        if tid:
            stack = host.config.stack_delay
            queue = delay - stack
            span = (_HRX_Q, at, tid, host.name, stack, queue) \
                if queue > 0 else (_HRX, at, tid, host.name, stack)
            trace = self._open.get(tid)
            if trace is not None:
                trace.host_stack += stack
                if queue > 0:
                    trace.nic_queue += queue
                trace.spans.append(span)
            elif tid in self._tail_ids:
                self._write(span)

    def link_tx(self, link, packet, latency: float, size: int, at: Optional[float] = None) -> None:
        # ``link.carry`` adds an untraced segment's bits itself, as here.
        link.tel_bits += size * 8.0
        tid = packet.trace_id
        if tid:
            span = (_LNK, self.sim._now if at is None else at, tid, link.name, latency)
            trace = self._open.get(tid)
            if trace is not None:
                trace.link += latency
                trace.hops += 1
                trace.spans.append(span)
            elif tid in self._tail_ids:
                self._write(span)

    def link_untx(self, link, packet, at: float) -> None:
        """Take back the :meth:`link_tx` of a hop due to leave at ``at`` whose
        event ``link.give_back`` gave back: its bits and, while the trace is
        open, its span (the link stage is re-added in span order)."""
        link.tel_bits -= packet.size_bytes() * 8.0
        trace = self._open.get(packet.trace_id)
        if trace is not None:
            trace.spans = [span for span in trace.spans if not (
                span[0] is _LNK and span[1] == at and span[3] == link.name)]
            trace.link, trace.hops = 0.0, 0
            for span in trace.spans:
                if span[0] is _LNK:
                    trace.link += span[4]
                    trace.hops += 1

    def switch_enq(self, switch, packet, wait: float, at: float) -> None:
        if wait > switch.tel_wait:
            switch.tel_wait = wait
        tid = packet.trace_id
        if tid:
            pipeline = switch.config.pipeline_delay
            span = (_SWQ_W, at, tid, switch.name, pipeline, wait) \
                if wait > 0 else (_SWQ, at, tid, switch.name, pipeline)
            trace = self._open.get(tid)
            if trace is not None:
                if wait > 0:
                    trace.switch_queue += wait
                trace.switch_pipeline += pipeline
                trace.spans.append(span)
            elif tid in self._tail_ids:
                self._write(span)

    # ------------------------------------------------------------------ #
    # Switch-program hooks.
    # ------------------------------------------------------------------ #

    def switch_stage(self, switch, packet, header) -> None:
        tid = packet.trace_id
        if tid:
            span = (_SWP, self.sim._now, tid, switch.name, _OP_NAMES[header.op],
                    header.vgroup, len(header.chain))
            trace = self._open.get(tid)
            if trace is not None:
                trace.chain_hops += 1
                trace.spans.append(span)
            elif tid in self._tail_ids:
                self._write(span)

    def op_complete(self, header) -> None:
        """Called by the switch program as a reply is minted (op mix)."""
        key = (header.vgroup, _OP_NAMES[header.op])
        self.opmix[key] = self.opmix.get(key, 0) + 1

    # ------------------------------------------------------------------ #
    # Writing.
    # ------------------------------------------------------------------ #

    def _write(self, span: tuple) -> None:
        self.writer.write_line(span[0].line(*span[1:]))

    def _end(self, tid: int, trace: _Trace, status: Optional[str],
             latency: Optional[float], retries: int) -> None:
        """Write an ended trace's ``trc`` record, behind its spans if it is
        a tail trace; otherwise offer its spans to the slowest-kept heap."""
        line = TRACE_SHAPE.line(
            trace.start, tid, trace.agent, trace.op, trace.key, status, latency,
            retries, trace.host_stack, trace.nic_queue, trace.link,
            trace.switch_queue, trace.switch_pipeline, trace.hops,
            trace.chain_hops)
        if retries or status != "ok":
            for span in trace.spans:
                self._write(span)
            self.writer.write_line(line)
            self._tail_ids.add(tid)
            return
        self.writer.write_line(line)
        entry = (latency, -tid, trace.spans)
        heap = self._slowest
        if len(heap) < SLOWEST_KEPT:
            heappush(heap, entry)
        elif entry > heap[0]:
            heapreplace(heap, entry)

    def close(self) -> None:
        """End the run: every still-open trace is written as an unfinished
        tail trace, then the slowest completed traces' spans, slowest first."""
        for tid, trace in self._open.items():
            self._end(tid, trace, None, None, 0)
        self._open.clear()
        for _latency, _tid, spans in sorted(self._slowest, reverse=True):
            for span in spans:
                self._write(span)
        self._slowest.clear()
        self.writer.close()


class TelemetryPlane:
    """Tracer + registry + sampler + event log for one scenario run.

    Built by :func:`repro.deploy.scenario.run_scenario` when the spec
    carries ``telemetry=...``; deployments wire it to their nodes via
    ``Deployment.attach_telemetry``.  :meth:`finish` spills the metric
    time series and control events next to the spans and returns the
    deterministic summary dict stored on ``ScenarioResult.metrics``.
    """

    def __init__(self, sim, config: TelemetryConfig, run_dir,
                 meta: Optional[dict] = None) -> None:
        config.validate()
        self.sim = sim
        self.config = config
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.meta = dict(meta or {})
        self.registry = MetricsRegistry()
        writer = TraceWriter(self.run_dir / SPANS_FILE, TRACE_SCHEMA, meta=self.meta)
        self.tracer = Tracer(sim, writer=writer, registry=self.registry,
                             sample_every=config.trace_sample)
        self.event_log = ControlEventLog(sim)
        self.sampler: Optional[PeriodicSampler] = None
        self._topology = None
        self.finished = False

    # -- wiring -------------------------------------------------------- #

    def attach_topology(self, topology) -> None:
        """Instrument every host, switch and link of a topology."""
        self._topology = topology
        tracer = self.tracer
        for host in topology.hosts.values():
            host.telemetry = tracer
        for switch in topology.switches.values():
            switch.telemetry = tracer
        for link in topology.links:
            link.telemetry = tracer

    def attach_netchain(self, cluster) -> None:
        """Instrument the NetChain-family pieces: agents, programs, controller."""
        tracer = self.tracer
        for agent in cluster.agent_list():
            agent.telemetry = tracer
        controller = cluster.controller
        for program in controller.programs.values():
            program.telemetry = tracer
        # The controller's log is the one log: spill it, not a copy.
        self.event_log = controller.event_log

    def start(self) -> None:
        if self._topology is not None:
            self.sampler = PeriodicSampler(
                self.sim, self.registry, self._topology,
                self.config.sample_interval, opmix_source=self.tracer)
            self.sampler.start()

    # -- teardown ------------------------------------------------------ #

    def finish(self) -> dict:
        """Stop sampling, spill metrics + events, close the span file."""
        if self.finished:
            return self.summary()
        self.finished = True
        if self.sampler is not None:
            self.sampler.stop()

        with TraceWriter(self.run_dir / METRICS_FILE, METRICS_SCHEMA,
                         meta=self.meta) as writer:
            for record in self.registry.series:
                writer.write(record)
        with TraceWriter(self.run_dir / EVENTS_FILE, EVENTS_SCHEMA,
                         meta=self.meta) as writer:
            for record in self.event_log.as_records():
                writer.write(record)
        self.tracer.close()
        return self.summary()

    def summary(self) -> dict:
        """Deterministic scenario-level metrics (``ScenarioResult.metrics``)."""
        tracer = self.tracer
        return {
            "schema": "telemetry/v1",
            "spans": tracer.span_count,
            "traces": tracer.traces,
            "queries": tracer.submits,
            **self.registry.summary(),
            "opmix": {f"vg{vg}:{op}": count
                      for (vg, op), count in sorted(tracer.opmix.items())},
            "events": len(self.event_log.events),
        }


# --------------------------------------------------------------------- #
# Reading + reconstruction.
# --------------------------------------------------------------------- #

def read_ndjson(path, schema: str) -> Tuple[dict, List[dict]]:
    """Read one trace NDJSON file of the given schema: (header meta, records).

    A cut or corrupt file raises
    :class:`~repro.artifacts.TruncatedArtifactError` naming the byte
    offset where the intact prefix ends; a file of another schema raises
    :class:`ValueError`.
    """
    return read_header(path, schema), [
        record for _offset, _line, record in scan(path, schema)]


def iter_spans(run_dir) -> Iterator[dict]:
    """Every record of a run's span file: ``trc`` records and kept spans."""
    for _offset, _line, record in scan(Path(run_dir) / SPANS_FILE, TRACE_SCHEMA):
        yield record


def run_info(run_dir) -> dict:
    """Headers and record counts of every file in a trace/v2 run dir
    (:class:`FileNotFoundError` when it holds none of them)."""
    run_dir = Path(run_dir)
    info: Dict[str, Any] = {"run_dir": str(run_dir)}
    present = [entry for entry in _FILES if (run_dir / entry[0]).exists()]
    if not present:
        raise FileNotFoundError(
            f"{run_dir}: not a trace/v2 run dir (none of "
            f"{', '.join(name for name, _ in _FILES)} found)")
    for name, schema in present:
        path = run_dir / name
        info[name] = {
            "schema": schema,
            "meta": read_header(path, schema),
            "records": sum(1 for _record in scan(path, schema)),
            "bytes": path.stat().st_size,
        }
    return info


def _add_late_span(trace: dict, span: dict) -> None:
    """Add a span that followed its tail trace's ``trc`` record to the
    trace's sums, as :class:`Tracer`'s hook added the ones before it."""
    ev, stages = span["ev"], trace["stages"]
    if ev in ("htx", "hrx"):
        stages["host_stack"] += span["d"]
        stages["nic_queue"] += span.get("q", 0.0)
    elif ev == "lnk":
        stages["link"] += span["l"]
        trace["hops"] += 1
    elif ev == "swq":
        stages["switch_queue"] += span.get("w", 0.0)
        stages["switch_pipeline"] += span["p"]
    elif ev == "swp":
        trace["chain_hops"] += 1


def trace_breakdowns(records) -> Dict[int, dict]:
    """Rebuild every trace's latency decomposition from the span file.

    Returns ``{trace_id: {"op", "key", "start", "latency", "status",
    "retries", "completed", "hops", "chain_hops", "stages": {stage:
    seconds}, "spans": [...]}}`` -- ``spans`` is empty unless the trace
    was kept.  A retried query aggregates the spans of *all* its
    transmissions, so stage sums describe work performed, and ``other``
    (latency minus the stage sums) absorbs retry waits.
    """
    traces: Dict[int, dict] = {}
    ahead: Dict[int, List[dict]] = {}  # a tail trace's spans, before its record
    for record in records:
        tid = record["id"]
        if record["ev"] == "trc":
            latency = record["l"]
            traces[tid] = {
                "id": tid, "op": record["op"], "key": record["key"],
                "start": record["t"], "latency": latency,
                "status": record["st"], "retries": record["r"],
                "completed": latency is not None, "hops": record["hops"],
                "chain_hops": record["chain_hops"],
                "stages": {stage: record[field]
                           for stage, field in zip(STAGES, STAGE_FIELDS,
                                                   strict=True)},
                "spans": ahead.pop(tid, []),
            }
            continue
        trace = traces.get(tid)
        if trace is None:
            ahead.setdefault(tid, []).append(record)
            continue
        trace["spans"].append(record)
        if trace["retries"] or trace["status"] != "ok":
            _add_late_span(trace, record)

    for trace in traces.values():
        if trace["completed"]:
            trace["other"] = max(
                0.0, trace["latency"] - sum(trace["stages"].values()))
    return traces


def _exact_percentile(ordered: List[float], p: float) -> float:
    if not ordered:
        return 0.0
    import math
    rank = max(0, min(len(ordered) - 1,
                      int(math.ceil(p / 100.0 * len(ordered))) - 1))
    return ordered[rank]


def stage_percentiles(traces: Dict[int, dict],
                      ps=(50.0, 95.0, 99.0)) -> Dict[str, Dict[str, float]]:
    """Per-stage latency percentiles over all completed traces."""
    completed = [t for t in traces.values() if t["completed"]]
    out: Dict[str, Dict[str, float]] = {}
    for stage in STAGES + ("other", "total"):
        if stage == "total":
            values = sorted(t["latency"] for t in completed)
        elif stage == "other":
            values = sorted(t.get("other", 0.0) for t in completed)
        else:
            values = sorted(t["stages"][stage] for t in completed)
        if not values:
            continue
        out[stage] = {"mean": sum(values) / len(values)}
        for p in ps:
            out[stage][f"p{p:g}"] = _exact_percentile(values, p)
    return out


def format_report(run_dir) -> str:
    """Human/CI-facing report: stage percentiles, slowest trace, timeline."""
    run_dir = Path(run_dir)
    info = run_info(run_dir)
    lines: List[str] = []
    meta = {}
    for name in (SPANS_FILE, METRICS_FILE, EVENTS_FILE):
        meta = info.get(name, {}).get("meta", {})
        if meta:
            break
    lines.append(f"## Trace report: {run_dir.name}")
    lines.append("")
    lines.append(f"- meta: `{json.dumps(meta, sort_keys=True)}`")
    for name in (SPANS_FILE, METRICS_FILE, EVENTS_FILE):
        if name in info:
            lines.append(f"- {name}: {info[name]['records']} records, "
                         f"{info[name]['bytes']} bytes")

    traces = trace_breakdowns(iter_spans(run_dir))
    completed = [t for t in traces.values() if t["completed"]]
    timed_out = [t for t in traces.values() if t["status"] == "timeout"]
    lines.append(f"- traces: {len(traces)} "
                 f"({len(completed)} completed, {len(timed_out)} timed out)")
    lines.append("")

    if completed:
        pct = stage_percentiles(traces)
        lines.append("### Critical-path stages (us, over completed traces)")
        lines.append("")
        lines.append("| stage | mean | p50 | p95 | p99 |")
        lines.append("|---|---|---|---|---|")
        for stage in STAGES + ("other", "total"):
            row = pct.get(stage)
            if row is None:
                continue
            lines.append(
                f"| {stage} | {row['mean'] * 1e6:.2f} "
                f"| {row['p50'] * 1e6:.2f} | {row['p95'] * 1e6:.2f} "
                f"| {row['p99'] * 1e6:.2f} |")
        lines.append("")

        trace = min(completed, key=lambda t: (-t["latency"], t["id"]))
        lines.append(
            f"### Slowest trace #{trace['id']}: {trace['op']} "
            f"{trace['key']!r} -- {trace['latency'] * 1e6:.2f} us, "
            f"{trace['chain_hops']} chain hop(s), "
            f"{trace['retries']} retries")
        lines.append("")
        lines.append("| t (us) | hop | detail |")
        lines.append("|---|---|---|")
        start = trace["start"] or 0.0
        for span in trace["spans"]:
            offset = (span["t"] - start) * 1e6
            detail = {k: v for k, v in span.items()
                      if k not in ("t", "id", "ev", "n")}
            lines.append(f"| {offset:.2f} | {span['ev']} {span.get('n', '')} "
                         f"| `{json.dumps(detail, sort_keys=True)}` |")
        lines.append("")

    events_path = run_dir / EVENTS_FILE
    if events_path.exists():
        _, events = read_ndjson(events_path, EVENTS_SCHEMA)
        if events:
            lines.append("### Control-plane events")
            lines.append("")
            for rec in events:
                fields = {k: v for k, v in rec.items() if k not in ("t", "ev")}
                lines.append(f"- `{rec['t'] * 1e3:9.3f} ms` **{rec['ev']}** "
                             f"`{json.dumps(fields, sort_keys=True)}`")
            lines.append("")
            timeline = failure_timeline(events)
            if timeline:
                lines.append("### Failure/recovery timeline (derived)")
                lines.append("")
                for e in timeline:
                    parts = [f"switch {e['switch']}"]
                    if "failover_latency" in e:
                        parts.append(
                            f"failover {e['failover_latency'] * 1e3:.3f} ms "
                            f"after detection")
                    if "recovery_duration" in e:
                        parts.append(
                            f"recovery {e['recovery_duration'] * 1e3:.3f} ms"
                            f" ({e.get('recovery_outcome', '?')})")
                    lines.append("- " + "; ".join(parts))
                lines.append("")

    metrics_path = run_dir / METRICS_FILE
    if metrics_path.exists():
        _, series = read_ndjson(metrics_path, METRICS_SCHEMA)
        if series:
            lines.append("### Sampled time series")
            lines.append("")
            lines.append(f"- {len(series)} ticks at "
                         f"{meta.get('sample_interval', '?')} s")
            peak_q = 0.0
            peak_util = 0.0
            for rec in series:
                for entry in rec.get("switches", {}).values():
                    peak_q = max(peak_q, entry.get("q", 0.0))
                for util in rec.get("links", {}).values():
                    peak_util = max(peak_util, util)
            lines.append(f"- peak switch queue wait: {peak_q * 1e6:.2f} us")
            lines.append(f"- peak link utilization: {peak_util:.1%}")
            lines.append("")

    return "\n".join(lines).rstrip() + "\n"
