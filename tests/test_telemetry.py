"""The deterministic telemetry plane: tracing, metrics, event log.

Covers the building blocks (log-bucket histograms, the bounded
``LatencyRecorder``, ``TelemetryConfig`` coercion), the determinism
contracts (two traced seeded runs spill byte-identical ``trace/v2``
artifacts; a traced run is the untraced run, event for event, plus its
sampler ticks),
the ``trace/v2`` retention rule (one ``trc`` record per query, full spans
for the tail) and its cross-format anchor, the contract hostbench holds
the tracer to, the control-plane event log and its derived failure
timeline under an injected switch failure, and the readers' handling of
cut, wrong-schema and ``trace/v1`` files (the ``python -m repro trace``
verbs themselves are covered in ``tests/test_cli.py``).
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.artifacts import NdjsonWriter, TruncatedArtifactError
from repro.cli import main as repro_cli
from repro.core import trace as trace_mod
from repro.core.protocol import OpCode, QueryStatus
from repro.core.trace import (
    SLOWEST_KEPT,
    STAGES,
    iter_spans,
    read_ndjson,
    run_info,
    stage_percentiles,
    trace_breakdowns,
)
from repro.deploy import (
    DeploymentSpec,
    ScenarioChecks,
    WorkloadSpec,
    build_deployment,
    run_scenario,
)
from repro.deploy.matrix import signature_digest
from repro.netsim.engine import Simulator
from repro.netsim.stats import LatencyRecorder
from repro.netsim.telemetry import (
    LogBucketHistogram,
    MetricsRegistry,
    TelemetryConfig,
    failure_timeline,
    peak_rss_bytes,
)

SEED = 11

TRACE_FILES = ("spans.ndjson", "metrics.ndjson", "events.ndjson")

FIXTURES = Path(__file__).parent / "fixtures"

#: ``repro trace run`` arguments -> sha256 of each file they must write, and
#: the same for :data:`IDENTITY_RUNS`' ``server-chain --seed 11`` (the scenario
#: of ``repro trace run --seed 11`` on the server-hosted chain).
TRACE_DIGESTS = json.loads((FIXTURES / "trace_digests.json").read_text())

#: The :data:`TRACE_DIGESTS` entries that ``repro trace run`` writes.
TRACE_RUNS = sorted(argv for argv in TRACE_DIGESTS if argv.startswith("--"))

#: ``repro trace run`` arguments -> the ``trace report`` of its run dir.
TRACE_REPORTS = {"--seed 11": "seed-11.md", "--seed 7 --failover": "seed-7-failover.md"}


def _spec(seed=SEED, telemetry=None, **overrides) -> DeploymentSpec:
    return DeploymentSpec(backend="netchain", store_size=32, value_size=64,
                          seed=seed, telemetry=telemetry, **overrides)


def _workload(duration=0.03) -> WorkloadSpec:
    return WorkloadSpec(num_clients=2, concurrency=4, write_ratio=0.3,
                        duration=duration, drain=0.05)


def _run(spec, workload=None, checks=None):
    return run_scenario(spec, workload or _workload(),
                        checks or ScenarioChecks(linearizability=True))


def _dir_digests(run_dir):
    return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
            for name in TRACE_FILES}


# --------------------------------------------------------------------- #
# Log-bucket histogram.
# --------------------------------------------------------------------- #


def test_histogram_counts_and_bounds():
    hist = LogBucketHistogram()
    for value in (1e-6, 2e-6, 1e-3, 0.5):
        hist.record(value)
    assert hist.count == 4
    assert hist.min == pytest.approx(1e-6)
    assert hist.max == pytest.approx(0.5)
    assert hist.mean() == pytest.approx((1e-6 + 2e-6 + 1e-3 + 0.5) / 4)
    # Percentiles land within a bucket's relative error of the exact value
    # and are clamped to the observed range.
    assert hist.percentile(0.0) == pytest.approx(1e-6, rel=0.06)
    assert hist.percentile(100.0) == pytest.approx(0.5, rel=0.06)
    p50 = hist.percentile(50.0)
    assert 9e-7 <= p50 <= 1.1e-3


def test_histogram_relative_error_bound():
    # 40 buckets per decade -> ~6% relative width; the geometric-midpoint
    # estimate stays within half a bucket of any recorded value.
    hist = LogBucketHistogram()
    value = 3.7e-4
    hist.record(value)
    estimate = hist.percentile(50.0)
    assert abs(estimate - value) / value < 0.06


def test_histogram_underflow_overflow():
    hist = LogBucketHistogram()
    hist.record(0.0)       # below lo -> underflow bucket
    hist.record(1e30)      # above the top decade -> overflow bucket
    assert hist.count == 2
    assert hist.percentile(0.0) == pytest.approx(0.0)
    assert hist.percentile(100.0) == pytest.approx(1e30)


def test_histogram_merge_matches_combined():
    a, b, combined = (LogBucketHistogram() for _ in range(3))
    for i in range(100):
        value = (i + 1) * 1e-5
        (a if i % 2 else b).record(value)
        combined.record(value)
    a.merge(b)
    assert a.count == combined.count
    assert a.counts == combined.counts
    assert a.min == combined.min and a.max == combined.max
    assert a.mean() == pytest.approx(combined.mean())
    for p in (50.0, 95.0, 99.0):
        assert a.percentile(p) == combined.percentile(p)


# --------------------------------------------------------------------- #
# Bounded LatencyRecorder.
# --------------------------------------------------------------------- #


def test_recorder_exact_until_limit():
    recorder = LatencyRecorder(max_exact_samples=8)
    for value in range(1, 8):
        recorder.record(float(value))
    assert not recorder.collapsed
    assert recorder.percentile(50) == 4.0  # exact nearest-rank
    recorder.record(8.0)
    recorder.record(9.0)  # ninth sample crosses the limit
    assert recorder.collapsed
    assert recorder.samples == []
    assert recorder.count() == 9
    assert recorder.mean() == pytest.approx(5.0)
    assert recorder.percentile(50) == pytest.approx(5.0, rel=0.06)


def test_recorder_collapsed_memory_is_bounded():
    recorder = LatencyRecorder(max_exact_samples=100)
    for i in range(100_000):
        recorder.record(1e-6 * (1 + i % 1000))
    assert recorder.collapsed
    assert len(recorder.samples) == 0
    assert recorder.count() == 100_000


def test_recorder_merge_modes():
    exact_a = LatencyRecorder(max_exact_samples=10)
    exact_b = LatencyRecorder(max_exact_samples=10)
    for value in (1.0, 2.0, 3.0):
        exact_a.record(value)
    for value in (4.0, 5.0):
        exact_b.record(value)
    exact_a.merge(exact_b)
    assert not exact_a.collapsed  # 5 <= 10 stays exact
    assert exact_a.count() == 5
    assert exact_a.percentile(100) == 5.0

    big = LatencyRecorder(max_exact_samples=4)
    big.merge(exact_a)  # 5 > 4 collapses on merge
    assert big.collapsed
    assert big.count() == 5
    assert big.mean() == pytest.approx(3.0)


def test_recorder_unbounded_mode_matches_legacy():
    recorder = LatencyRecorder(max_exact_samples=None)
    for i in range(200_000):
        recorder.record(float(i))
    assert not recorder.collapsed
    assert recorder.count() == 200_000


# --------------------------------------------------------------------- #
# Config coercion, registry, event log units.
# --------------------------------------------------------------------- #


def test_telemetry_config_coercion():
    assert TelemetryConfig.coerce(None) is None
    assert TelemetryConfig.coerce(False) is None
    assert isinstance(TelemetryConfig.coerce(True), TelemetryConfig)
    cfg = TelemetryConfig.coerce({"sample_interval": 1e-3, "trace_sample": 4})
    assert cfg.sample_interval == 1e-3 and cfg.trace_sample == 4
    same = TelemetryConfig()
    assert TelemetryConfig.coerce(same) is same
    with pytest.raises(ValueError):
        TelemetryConfig.coerce({"no_such_knob": 1})
    with pytest.raises(ValueError):
        TelemetryConfig(sample_interval=0.0).validate()
    with pytest.raises(ValueError):
        TelemetryConfig(trace_sample=0).validate()


def test_spec_validates_telemetry():
    _spec(telemetry={"sample_interval": 1e-3}).validate()
    with pytest.raises(ValueError):
        _spec(telemetry={"bogus": True}).validate()
    with pytest.raises(ValueError):
        _spec(telemetry={"sample_interval": -1.0}).validate()


def test_metrics_registry_summary():
    registry = MetricsRegistry()
    registry.inc("queries")
    registry.inc("queries", 2)
    registry.gauge("depth", 4.0)
    registry.gauge("depth", 2.0)  # gauges keep the last value
    registry.histogram("lat").record(1e-4)
    summary = registry.summary()
    assert summary["counters"]["queries"] == 3
    assert summary["gauges"]["depth"] == 2.0
    assert summary["histograms"]["lat"]["count"] == 1


def test_peak_rss_bytes_positive():
    assert peak_rss_bytes() > 0


def test_failure_timeline_derivation():
    events = [
        {"t": 0.10, "ev": "failure_detected", "switch": "S1"},
        {"t": 0.10, "ev": "fast_failover", "switch": "S1"},
        {"t": 0.10, "ev": "recovery_start", "switch": "S1", "groups": 3},
        {"t": 0.25, "ev": "recovery_complete", "switch": "S1", "recovered": 3},
    ]
    timeline = failure_timeline(events)
    entry = next(e for e in timeline if e["switch"] == "S1")
    assert entry["detected_at"] == pytest.approx(0.10)
    assert entry["failover_latency"] == pytest.approx(0.0)
    assert entry["recovery_duration"] == pytest.approx(0.15)
    assert entry["recovery_outcome"] == "recovery_complete"


# --------------------------------------------------------------------- #
# Scenario integration: determinism contracts.
# --------------------------------------------------------------------- #


def test_traced_runs_are_byte_identical(tmp_path):
    digests = []
    signatures = []
    for label in ("a", "b"):
        run_dir = tmp_path / label
        result = _run(_spec(telemetry={"run_dir": str(run_dir)}))
        assert result.ok()
        assert result.telemetry_dir == run_dir
        assert result.metrics is not None
        assert result.metrics["schema"] == "telemetry/v1"
        assert result.metrics["spans"] > 0
        digests.append(_dir_digests(run_dir))
        signatures.append(signature_digest(result))
    assert digests[0] == digests[1]
    assert signatures[0] == signatures[1]


@pytest.fixture(scope="module")
def trace_run(tmp_path_factory):
    """``argv -> run dir`` of ``repro trace run <argv>``, each run once."""
    runs = {}

    def run(argv: str) -> Path:
        if argv not in runs:
            run_dir = tmp_path_factory.mktemp("trace") / "trace-run"
            assert repro_cli(["trace", "run", *argv.split(), "--out", str(run_dir)]) == 0
            runs[argv] = run_dir
        return runs[argv]
    return run


@pytest.mark.anchor
@pytest.mark.parametrize("argv", TRACE_RUNS)
def test_trace_digests_match_the_dict_per_span_writer(trace_run, argv):
    """Cross-commit anchor: ``fixtures/trace_digests.json`` holds the sha256
    of every file ``repro trace run <argv>`` writes.  ``events.ndjson`` is
    the bytes of the last commit that built a dict and ran ``json.dumps``
    per record; ``metrics.ndjson`` the first ``trace-metrics/v2`` bytes;
    ``spans.ndjson`` the first ``trace/v2`` bytes for ``--seed 11``, and for
    ``--seed 7 --failover`` the first bytes whose simultaneous arrivals at a
    switch queue in the untraced run's order.  No byte may move."""
    assert _dir_digests(trace_run(argv)) == TRACE_DIGESTS[argv]


def _without_span_inventory(report: str) -> list:
    return [line for line in report.splitlines()
            if not line.startswith("- spans.ndjson: ")]


@pytest.mark.anchor
@pytest.mark.parametrize("argv", sorted(TRACE_REPORTS))
def test_trace_report_matches_the_v1_report(trace_run, capsys, argv):
    """Cross-format anchor: ``fixtures/trace_reports`` holds ``trace report``
    of each run as the last ``trace/v1`` commit printed it, spans and all,
    but for the lines ``trace-metrics/v2`` moved (the metrics inventory and
    peak switch queue wait) and the two swapped waits of the failover run's
    slowest trace; from ``trc`` records plus the kept spans only the spans
    file's own inventory line may differ."""
    run_dir = trace_run(argv)
    capsys.readouterr()
    assert repro_cli(["trace", "report", str(run_dir)]) == 0
    expected = (FIXTURES / "trace_reports" / TRACE_REPORTS[argv]).read_text()
    assert _without_span_inventory(capsys.readouterr().out) == \
        _without_span_inventory(expected)


def _span_sums(spans) -> tuple:
    """A trace's stage sums, link hops and chain hops, added up from its
    spans in file order: what ``trace/v1``'s reader computed."""
    stages = dict.fromkeys(STAGES, 0.0)
    hops = chain_hops = 0
    for span in spans:
        ev = span["ev"]
        if ev in ("htx", "hrx"):
            stages["host_stack"] += span["d"]
            stages["nic_queue"] += span.get("q", 0.0)
        elif ev == "lnk":
            stages["link"] += span["l"]
            hops += 1
        elif ev == "swq":
            stages["switch_queue"] += span.get("w", 0.0)
            stages["switch_pipeline"] += span["p"]
        elif ev == "swp":
            chain_hops += 1
    return stages, hops, chain_hops


def _kept_traces_are_whole(traces) -> None:
    for trace in traces.values():
        if trace["spans"]:
            assert trace["spans"][0]["ev"] == "sub"
            assert {span["id"] for span in trace["spans"]} == {trace["id"]}
            assert _span_sums(trace["spans"]) == \
                (trace["stages"], trace["hops"], trace["chain_hops"])


def test_tail_traces_and_the_slowest_keep_their_spans(trace_run):
    traces = trace_breakdowns(iter_spans(trace_run("--seed 7 --failover")))
    tail = {tid for tid, trace in traces.items()
            if trace["retries"] or trace["status"] != "ok"}
    clean = sorted((trace for tid, trace in traces.items() if tid not in tail),
                   key=lambda trace: (trace["latency"], -trace["id"]), reverse=True)
    slowest = {trace["id"] for trace in clean[:SLOWEST_KEPT]}
    assert {tid for tid, trace in traces.items() if trace["spans"]} == tail | slowest
    timed_out = [trace for trace in traces.values() if trace["status"] == "timeout"]
    retried = [trace for trace in traces.values() if trace["retries"]]
    assert len(timed_out) == 36 and len(retried) > len(timed_out)
    for trace in timed_out + retried:
        assert trace["spans"][-1]["ev"] in ("rep", "tmo")
        assert sum(span["ev"] == "qtx" for span in trace["spans"]) == trace["retries"] + 1
    _kept_traces_are_whole(traces)


def test_copies_in_flight_after_a_tail_trace_ends_are_added(tmp_path):
    """A retry timeout shorter than the round trip: the reply to an earlier
    copy ends the trace while later copies still travel, and the spans they
    write after the ``trc`` record count toward its sums as they always did."""
    run_dir = tmp_path / "run"
    result = _run(_spec(telemetry={"run_dir": str(run_dir)}, retry_timeout=150e-6),
                  checks=ScenarioChecks(linearizability=False))
    records = list(iter_spans(run_dir))
    ended = set()
    late = 0
    for record in records:
        if record["ev"] == "trc":
            ended.add(record["id"])
        elif record["id"] in ended:
            late += 1
    assert late > 0
    # No trace is still open once the plane finished: every id has its record.
    assert sorted(ended) == list(range(1, result.metrics["traces"] + 1))
    traces = trace_breakdowns(records)
    assert all(trace["spans"] for trace in traces.values()
               if trace["retries"] or trace["status"] != "ok")
    _kept_traces_are_whole(traces)


def _hook_objects(trace_id: int):
    host = SimpleNamespace(name="H0", config=SimpleNamespace(stack_delay=4.3e-06))
    switch = SimpleNamespace(name="S0", config=SimpleNamespace(pipeline_delay=5e-07),
                             tel_wait=0.0)
    return SimpleNamespace(
        agent=SimpleNamespace(name="agent-H0"), host=host, switch=switch,
        link=SimpleNamespace(name="H0-S0", tel_bits=0.0),
        packet=SimpleNamespace(trace_id=trace_id, size_bytes=lambda: 100),
        pending=SimpleNamespace(op=OpCode.READ, op_name="read", key=b"k1",
                                retries=0, trace_id=trace_id),
        header=SimpleNamespace(op=OpCode.READ_REPLY, status=QueryStatus.OK,
                               vgroup=3, chain=[]))


def _every_hop(tracer, objects) -> None:
    tracer.query_tx(objects.agent, objects.pending, "10.0.0.2")
    tracer.host_tx(objects.host, objects.packet, 5e-06)
    tracer.link_tx(objects.link, objects.packet, 2.3e-07, 100)
    tracer.switch_enq(objects.switch, objects.packet, 1e-07, 5.23e-06)
    tracer.switch_stage(objects.switch, objects.packet, objects.header)
    tracer.host_rx(objects.host, objects.packet, 4.3e-06, 5.23e-06)
    tracer.op_complete(objects.header)


def test_the_tracer_keeps_what_hostbench_drives(tmp_path):
    """``benchmarks/hostbench`` wraps these ten hooks by name in
    ``Tracer.__dict__`` (``spans.ENTRY_POINTS``), imports these three names,
    and drives hooks with a packet whose trace id was never submitted
    (``isolated._tracer``): they write nothing and raise nothing."""
    from repro.core.trace import TRACE_SCHEMA, Tracer, TraceWriter

    hooks = ["query_submit", "query_tx", "query_reply", "query_timeout", "host_tx",
             "host_rx", "link_tx", "switch_enq", "switch_stage", "op_complete"]
    assert all(callable(Tracer.__dict__[name]) for name in hooks)
    assert TRACE_SCHEMA == "trace/v2" and TraceWriter is NdjsonWriter

    writer = TraceWriter(tmp_path / "spans.ndjson", TRACE_SCHEMA)
    tracer = Tracer(Simulator(), writer=writer)
    objects = _hook_objects(trace_id=1)
    _every_hop(tracer, objects)
    tracer.query_reply(objects.agent, objects.pending, objects.header, 2e-05)
    tracer.query_timeout(objects.agent, objects.pending)
    tracer.close()
    assert writer.records == 0 and tracer.traces == 0
    assert objects.link.tel_bits == 800.0  # the link is still metered
    assert objects.switch.tel_wait == 1e-07  # and the switch's largest wait
    assert list(iter_spans(tmp_path)) == []


def test_close_writes_open_traces_as_unfinished_tail_traces(tmp_path):
    writer = NdjsonWriter(tmp_path / "spans.ndjson", trace_mod.TRACE_SCHEMA)
    tracer = trace_mod.Tracer(Simulator(), writer=writer)
    done, still_open = _hook_objects(0), _hook_objects(0)
    for objects in (done, still_open):
        objects.pending.trace_id = objects.packet.trace_id = tracer.query_submit(
            objects.agent, objects.pending)
        _every_hop(tracer, objects)
    tracer.query_reply(done.agent, done.pending, done.header, 2e-05)
    tracer.close()
    traces = trace_breakdowns(iter_spans(tmp_path))
    assert [(t["status"], t["latency"], t["completed"]) for t in traces.values()] == \
        [("ok", 2e-05, True), (None, None, False)]
    assert [span["ev"] for span in traces[2]["spans"]] == \
        ["sub", "qtx", "htx", "lnk", "swq", "swp", "hrx"]
    assert [span["ev"] for span in traces[1]["spans"]][-1] == "rep"
    _kept_traces_are_whole(traces)


def test_a_refiled_host_tx_takes_back_its_link_span(tmp_path):
    """``link.give_back`` gives a fused host TX its TX event back, and the
    hop is traced again when it runs: ``link_untx`` takes back the first
    ``link_tx``'s bits and span, leaving the sums the hooks would have left."""
    writer = NdjsonWriter(tmp_path / "spans.ndjson", trace_mod.TRACE_SCHEMA)
    tracer = trace_mod.Tracer(Simulator(), writer=writer)
    objects = _hook_objects(0)
    objects.pending.trace_id = objects.packet.trace_id = tracer.query_submit(
        objects.agent, objects.pending)
    tracer.link_tx(objects.link, objects.packet, 3e-07, 100, 1e-06)
    tracer.link_tx(objects.link, objects.packet, 2.3e-07, 100, 2e-06)
    tracer.link_untx(objects.link, objects.packet, 1e-06)
    tracer.close()
    (trace,) = trace_breakdowns(iter_spans(tmp_path)).values()
    assert [(span["ev"], span["t"]) for span in trace["spans"]] == \
        [("sub", 0.0), ("lnk", 2e-06)]
    assert (trace["stages"]["link"], trace["hops"]) == (2.3e-07, 1)
    assert objects.link.tel_bits == 800.0


#: ``repro trace run``'s two runs, one with faults set on a client's
#: uplink mid-run, so fused host TXs get their TX event back
#: (``link.give_back``), and the same scenario on the server-hosted chain,
#: whose TCP segments are carried past a transparent switch (``link.carry``),
#: their link bits metered into ``metrics.ndjson`` without a packet:
#: case -> (backend, seed, fault schedule).
IDENTITY_RUNS = {
    "--seed 11": ("netchain", 11, []),
    "--seed 7 --failover": ("netchain", 7, [(0.05, "fail_switch", "S1")]),
    "--seed 11 with H0-S0 faults": (
        "netchain", 11, [(0.03, "set_link_faults", "H0", "S0", 0.05, 0.0, 0.0, 3e-06)]),
    "server-chain --seed 11": ("server-chain", 11, []),
}


def _trace_run_scenario(backend, seed, faults, run_dir=None):
    """``(result, processed events)`` of ``repro trace run``'s scenario on
    ``backend``, traced into ``run_dir``, or untraced without one."""
    spec = DeploymentSpec(backend=backend, store_size=64, value_size=64, seed=seed,
                          faults=faults,
                          telemetry=None if run_dir is None else {"run_dir": str(run_dir)})
    workload = WorkloadSpec(num_clients=2, concurrency=4, write_ratio=0.3,
                            duration=0.1, drain=0.1)
    deployment = build_deployment(spec)
    deployment.clients(workload.num_clients)
    result = run_scenario(spec, workload, ScenarioChecks(linearizability=True),
                          deployment=deployment)
    return result, deployment.sim.processed_events


@pytest.mark.anchor
@pytest.mark.parametrize("case", sorted(IDENTITY_RUNS))
def test_a_traced_run_is_the_untraced_run_plus_its_sampler_ticks(tmp_path, case):
    """A trace describes the run that would have happened untraced: the
    traced run processes exactly the untraced run's events plus one per
    sampler tick, and its operations and latencies are the untraced ones."""
    backend, seed, faults = IDENTITY_RUNS[case]
    untraced, untraced_events = _trace_run_scenario(backend, seed, faults)
    run_dir = tmp_path / "trace-run"
    traced, traced_events = _trace_run_scenario(backend, seed, faults, run_dir)
    assert untraced.ok() and traced.ok()
    assert traced_events == untraced_events + traced.metrics["sampled_ticks"]
    assert signature_digest(traced) == signature_digest(untraced)
    for recorder in ("read_latency", "write_latency"):
        assert getattr(traced, recorder).state_dict() == \
            getattr(untraced, recorder).state_dict()
    if case in TRACE_DIGESTS:  # pinned bytes
        assert _dir_digests(run_dir) == TRACE_DIGESTS[case]
    _kept_traces_are_whole(trace_breakdowns(iter_spans(run_dir)))


def test_telemetry_does_not_perturb_replay(tmp_path):
    off = _run(_spec(telemetry=None))
    on = _run(_spec(telemetry={"run_dir": str(tmp_path / "run")}))
    assert signature_digest(off) == signature_digest(on)
    assert off.completed_ops == on.completed_ops
    assert off.metrics is None and off.telemetry_dir is None


def test_trace_run_dir_layout_and_schemas(tmp_path):
    run_dir = tmp_path / "run"
    _run(_spec(telemetry={"run_dir": str(run_dir)}))
    for name, schema in (("spans.ndjson", "trace/v2"),
                         ("metrics.ndjson", "trace-metrics/v2"),
                         ("events.ndjson", "trace-events/v1")):
        meta, records = read_ndjson(run_dir / name, schema)  # schema-checked
        assert meta["seed"] == SEED
        for record in records:
            assert "t" in record
    # Records are ASCII NDJSON with sorted keys (canonical bytes), each one
    # of the declared shapes; the first trace to end keeps no spans, so its
    # record comes first.
    shapes = {(shape.fields["ev"], tuple(sorted(shape.fields)))
              for shape in (trace_mod.TRACE_SHAPE,) + trace_mod.SPAN_SHAPES}
    with open(run_dir / "spans.ndjson", "rb") as handle:
        next(handle)  # header
        lines = list(handle)
    for line in lines:
        record = json.loads(line)
        canonical = json.dumps(record, sort_keys=True,
                               separators=(",", ":")).encode("ascii") + b"\n"
        assert line == canonical
        assert (record["ev"], tuple(sorted(record))) in shapes
    assert json.loads(lines[0])["ev"] == "trc"
    info = run_info(run_dir)
    assert info["spans.ndjson"]["records"] == len(lines)


def test_run_info_counts_without_holding_the_records(tmp_path):
    """``trace info`` on a long run: records are counted as they are scanned,
    so the peak is a few records, not the file."""
    records = 25_000  # as many traces as hostbench's telemetry_on, ~6 MB
    with NdjsonWriter(tmp_path / "spans.ndjson", "trace/v2", meta={"seed": 1}) as writer:
        for index in range(records):
            writer.write_line(trace_mod.TRACE_SHAPE.line(
                index * 1e-6, index + 1, "agent-H0", "read", "k00000041", "ok",
                1.983e-04, 0, 8.6e-06, 1.84e-04, 1.34e-06, 0.0, 2.5e-06, 6, 1))
    tracemalloc.start()
    try:
        info = run_info(tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entry = info["spans.ndjson"]
    assert (entry["records"], entry["meta"]) == (records, {"seed": 1})
    assert entry["bytes"] == writer.offset > 50 * peak


def test_readme_span_table_is_the_shape_declarations():
    """One source: the README's record table restates ``TRACE_SHAPE`` and
    ``SPAN_SHAPES``."""
    def cell(shape, names):
        return ", ".join(f"`{name}` {shape.fields[name].__name__}" for name in names)

    declared = {}
    for shape in (trace_mod.TRACE_SHAPE,) + trace_mod.SPAN_SHAPES:
        assert shape.names[:3] == ["t", "id", "n"]
        ev, own = shape.fields["ev"], shape.names[3:]
        if ev in declared:  # the variant: the kind's fields, then the optional one
            assert cell(shape, own[:-1]) == declared[ev][0]
            declared[ev][1] = cell(shape, own[-1:])
        else:
            declared[ev] = [cell(shape, own), ""]
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    table = readme[readme.index("| `ev` | fields |"):].split("\n\n")[0].splitlines()[2:]
    rows = [[text.strip() for text in row.strip("|").split("|")] for row in table]
    assert {row[0].strip("`"): row[1:3] for row in rows} == declared
    assert len(declared) == 10


def test_trace_breakdowns_account_latency(tmp_path):
    run_dir = tmp_path / "run"
    _run(_spec(telemetry={"run_dir": str(run_dir)}))
    traces = trace_breakdowns(iter_spans(run_dir))
    assert traces
    completed = [t for t in traces.values() if t["completed"]]
    assert completed
    for entry in completed:
        total = sum(entry["stages"].values()) + entry["other"]
        assert total == pytest.approx(entry["latency"], rel=1e-6, abs=1e-12)
        assert entry["op"] in ("read", "write", "insert", "delete", "cas")
    tail = [t for t in traces.values() if t["retries"] or t["status"] != "ok"]
    kept = [t for t in traces.values() if t["spans"]]
    assert len(traces) > 10 * SLOWEST_KEPT
    assert len(kept) == len(tail) + SLOWEST_KEPT
    _kept_traces_are_whole(traces)
    table = stage_percentiles(traces)
    assert set(table) == set(STAGES) | {"other", "total"}
    assert table["total"]["p50"] > 0


def test_trace_sampling_reduces_spans(tmp_path):
    full = tmp_path / "full"
    sampled = tmp_path / "sampled"
    r_full = _run(_spec(telemetry={"run_dir": str(full)}))
    r_sampled = _run(_spec(telemetry={"run_dir": str(sampled),
                                      "trace_sample": 8}))
    assert signature_digest(r_full) == signature_digest(r_sampled)
    assert 0 < r_sampled.metrics["traces"] < r_full.metrics["traces"]
    assert r_sampled.metrics["spans"] < r_full.metrics["spans"]


# --------------------------------------------------------------------- #
# Control-plane event log under an injected failure.
# --------------------------------------------------------------------- #


def test_event_log_records_failover(tmp_path):
    run_dir = tmp_path / "run"
    spec = _spec(telemetry={"run_dir": str(run_dir)},
                 faults=[(0.02, "fail_switch", "S1")])
    result = run_scenario(spec, _workload(duration=0.05),
                          ScenarioChecks(linearizability=True))
    assert result.ok()
    _, events = read_ndjson(run_dir / "events.ndjson", "trace-events/v1")
    kinds = [event["ev"] for event in events]
    assert "failure_detected" in kinds
    assert "fast_failover" in kinds
    assert "recovery_start" in kinds
    detected = next(e for e in events if e["ev"] == "failure_detected")
    assert detected["switch"] == "S1"
    assert detected["t"] >= 0.02
    # Events are time-ordered (single sim clock, append order).
    times = [event["t"] for event in events]
    assert times == sorted(times)
    timeline = failure_timeline(events)
    entry = next(e for e in timeline if e["switch"] == "S1")
    assert entry["detected_at"] >= 0.02


def test_one_event_log_read_with_and_without_telemetry(tmp_path):
    """The controller's event log is always on: a failover-and-migration
    run without telemetry holds exactly the records the same seed spills
    to ``events.ndjson`` with it."""
    run_dir = tmp_path / "run"
    overrides = dict(vnodes_per_switch=2, store_slots=1024, sync_items_per_sec=5000.0,
                     faults=[(0.01, "fail_switch", "S1")], options={
        "reconfig": {"changes": [[0.005, ["S4"], []]]},
        "detector_config": {"probe_interval": 0.005, "recovery_start_delay": 0.01}})
    checks = ScenarioChecks(linearizability=False)
    off = run_scenario(_spec(**overrides), _workload(duration=0.5), checks)
    _run(_spec(telemetry={"run_dir": str(run_dir)}, **overrides),
         _workload(duration=0.5), checks)
    _, spilled = read_ndjson(run_dir / "events.ndjson", "trace-events/v1")
    records = off.deployment.cluster.controller.event_log.as_records()
    kinds = {record["ev"] for record in records}
    assert {"fast_failover", "recovery_complete", "migration_step",
            "migration_finish"} <= kinds
    assert records == spilled


# --------------------------------------------------------------------- #
# Damaged run dirs.
# --------------------------------------------------------------------- #


def test_truncated_trace_file_reports_the_offset(tmp_path, capsys):
    run_dir = tmp_path / "run"
    _run(_spec(telemetry={"run_dir": str(run_dir)}))
    spans = run_dir / "spans.ndjson"
    data = spans.read_bytes()
    spans.write_bytes(data[:-5])  # cut mid-record, as a crashed run would
    intact = data.rfind(b"\n", 0, len(data) - 1) + 1
    with pytest.raises(TruncatedArtifactError) as exc_info:
        list(iter_spans(run_dir))
    assert exc_info.value.offset == intact
    assert "history" not in str(exc_info.value)  # it is a span file
    for command in ("report", "info"):
        assert repro_cli(["trace", command, str(run_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1  # one line, no traceback
        assert f"byte offset {intact}" in captured.err
        assert "history" not in captured.err


def test_wrong_schema_trace_file_is_rejected(tmp_path):
    run_dir = tmp_path / "run"
    _run(_spec(telemetry={"run_dir": str(run_dir)}))
    # An events file where the spans are expected.
    (run_dir / "spans.ndjson").write_bytes(
        (run_dir / "events.ndjson").read_bytes())
    with pytest.raises(ValueError, match="expected 'trace/v2'"):
        read_ndjson(run_dir / "spans.ndjson", "trace/v2")


def test_a_v1_span_file_is_one_line_and_exit_1(tmp_path, capsys):
    """No ``trace/v1`` reader is kept: its header is refused by name."""
    with NdjsonWriter(tmp_path / "spans.ndjson", "trace/v1", meta={"seed": 11}) as writer:
        writer.write_line(trace_mod._LNK.line(1e-6, 1, "H0-S0", 2.3e-07))
    for command in ("report", "info"):
        assert repro_cli(["trace", command, str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "unsupported schema 'trace/v1' (expected 'trace/v2')" in captured.err


def test_format_report_handles_empty_events(tmp_path):
    run_dir = tmp_path / "run"
    _run(_spec(telemetry={"run_dir": str(run_dir)}))
    report = trace_mod.format_report(run_dir)
    assert "Control-plane events" not in report or "(none)" not in report
