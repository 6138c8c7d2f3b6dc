"""Deterministic telemetry primitives for the network simulator.

This module holds the *mechanism* half of the telemetry plane: a metrics
registry (counters, gauges, fixed log-bucket histograms), a sim-time
periodic sampler that turns queue depths, link utilization and SRAM
occupancy into time series, and a structured control-plane event log.
The *policy* half -- per-query tracing, the ``trace/v2`` run-dir
format and the scenario wiring -- lives in :mod:`repro.core.trace`,
which composes these pieces into a :class:`~repro.core.trace.TelemetryPlane`.

Everything here is keyed on **sim-time only**: no wall clock, no PIDs,
no process-global counters leak into the output, so a seeded run spills
byte-identical telemetry every time it is replayed.  When telemetry is
disabled (the default) none of this module is on the hot path at all --
instrumented call sites carry a single ``if tel is not None`` branch on
an attribute that stays ``None``.  The operator tooling over the spilled
run dirs is ``python -m repro trace run|report|info``.
"""

from __future__ import annotations

import math
import resource
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple


def peak_rss_bytes() -> int:
    """Peak RSS of this process in bytes.

    ``ru_maxrss`` is reported in KiB on Linux but in bytes on macOS; this
    is the one shared, platform-aware conversion point (used by the
    scenario runner and ``repro history check --max-rss-mb``).
    """
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss if sys.platform == "darwin" else rss * 1024


class LogBucketHistogram:
    """Fixed log-bucket histogram with bounded memory.

    Values land in geometric buckets of ``buckets_per_decade`` per decade
    starting at ``lo``; percentile queries answer with the geometric
    midpoint of the covering bucket, clamped to the observed [min, max].
    With the default 40 buckets/decade the relative quantile error is
    under ~3%, and memory is a fixed few KiB regardless of sample count
    -- the point of the exercise at 1M-op scales.
    """

    __slots__ = ("lo", "buckets_per_decade", "counts", "count", "total",
                 "min", "max")

    def __init__(self, lo: float = 1e-9, decades: int = 12,
                 buckets_per_decade: int = 40) -> None:
        self.lo = lo
        self.buckets_per_decade = buckets_per_decade
        # Bucket 0 is the underflow bucket (<= lo); the last bucket
        # catches overflow past ``decades`` decades.
        self.counts = [0] * (decades * buckets_per_decade + 2)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def _bucket(self, value: float) -> int:
        if value <= self.lo:
            return 0
        idx = int(math.log10(value / self.lo) * self.buckets_per_decade) + 1
        last = len(self.counts) - 1
        return idx if idx < last else last

    def record(self, value: float, bucket: Optional[int] = None) -> None:
        """Count ``value``, in ``bucket`` if its caller has it from a histogram
        bucketed alike."""
        self.counts[self._bucket(value) if bucket is None else bucket] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        if not self.count:
            return 0.0
        rank = max(1, int(math.ceil(p / 100.0 * self.count)))
        seen = 0
        for i, n in enumerate(self.counts):
            if not n:
                continue
            seen += n
            if seen >= rank:
                # The underflow/overflow buckets have no midpoint; the
                # observed extremes are the only defensible estimates.
                if i == 0:
                    return self.min
                if i == len(self.counts) - 1:
                    return self.max
                # Geometric midpoint of bucket i, clamped to observations.
                mid = self.lo * 10.0 ** ((i - 0.5) / self.buckets_per_decade)
                return min(self.max, max(self.min, mid))
        return self.max

    def merge(self, other: "LogBucketHistogram") -> None:
        if (other.lo != self.lo
                or other.buckets_per_decade != self.buckets_per_decade
                or len(other.counts) != len(self.counts)):
            raise ValueError("cannot merge histograms with different bucketing")
        for i, n in enumerate(other.counts):
            if n:
                self.counts[i] += n
        self.count += other.count
        self.total += other.total
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)

    def summary(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean(),
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }

    def state_dict(self) -> Dict:
        """A JSON-safe snapshot (sparse buckets; infinities as ``None``)."""
        return {
            "lo": self.lo,
            "buckets_per_decade": self.buckets_per_decade,
            "num_buckets": len(self.counts),
            "buckets": {str(i): n for i, n in enumerate(self.counts) if n},
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_state(cls, state: Dict) -> "LogBucketHistogram":
        """Rebuild a histogram from :meth:`state_dict` output."""
        buckets_per_decade = state["buckets_per_decade"]
        decades = (state["num_buckets"] - 2) // buckets_per_decade
        hist = cls(lo=state["lo"], decades=decades,
                   buckets_per_decade=buckets_per_decade)
        if len(hist.counts) != state["num_buckets"]:
            raise ValueError(
                f"histogram state has {state['num_buckets']} buckets; "
                f"bucketing reconstructs {len(hist.counts)}")
        for index, n in state["buckets"].items():
            hist.counts[int(index)] = n
        hist.count = state["count"]
        hist.total = state["total"]
        hist.min = state["min"] if state["min"] is not None else math.inf
        hist.max = state["max"] if state["max"] is not None else -math.inf
        return hist


class MetricsRegistry:
    """Named counters, gauges and histograms plus the sampled time series.

    Counters are monotonic floats, gauges are last-write-wins, histograms
    are :class:`LogBucketHistogram`.  ``series`` holds one dict per
    sampler tick (``{"t": sim_time, ...}``) -- the raw material for the
    queue-depth / link-utilization / SRAM time series.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, LogBucketHistogram] = {}
        self.series: List[dict] = []

    def inc(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def histogram(self, name: str) -> LogBucketHistogram:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = LogBucketHistogram()
        return hist

    def add_sample(self, record: dict) -> None:
        self.series.append(record)

    def summary(self) -> dict:
        out: Dict[str, Any] = {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                k: self.histograms[k].summary() for k in sorted(self.histograms)
            },
            "sampled_ticks": len(self.series),
        }
        return out


class ControlEventLog:
    """Structured control-plane events keyed on sim-time.

    Every NetChain controller owns one from construction
    (``controller.event_log``); the controller, failure detector and
    migration coordinator append ``(sim_time, kind, fields)`` tuples to
    it.  The telemetry plane spills it to ``events.ndjson``, and the
    Figure-10 failure/recovery timeline is *derived* from these records
    (see :func:`failure_timeline`) rather than hand-instrumented.
    """

    __slots__ = ("sim", "events")

    def __init__(self, sim) -> None:
        self.sim = sim
        self.events: List[Tuple[float, str, dict]] = []

    def emit(self, kind: str, **fields) -> None:
        self.events.append((self.sim._now, kind, fields))

    def as_records(self) -> List[dict]:
        records = []
        for t, kind, fields in self.events:
            rec = {"t": t, "ev": kind}
            rec.update(fields)
            records.append(rec)
        return records


def failure_timeline(events: List[dict]) -> List[dict]:
    """Derive per-switch failure/recovery phase durations from event records.

    Returns one dict per failed switch with the detection, fast-failover
    and recovery timestamps plus derived durations -- the data behind the
    paper's Figure-10 timeline.
    """
    timeline: Dict[str, dict] = {}

    def entry(name: str) -> dict:
        if name not in timeline:
            timeline[name] = {"switch": name}
        return timeline[name]

    for rec in events:
        kind = rec.get("ev")
        t = rec.get("t")
        if kind == "failure_detected":
            entry(rec["switch"])["detected_at"] = t
        elif kind == "fast_failover":
            entry(rec["switch"]).setdefault("failover_at", t)
        elif kind == "recovery_start":
            entry(rec["switch"])["recovery_start_at"] = t
        elif kind in ("recovery_complete", "recovery_aborted"):
            e = entry(rec["switch"])
            e["recovery_end_at"] = t
            e["recovery_outcome"] = kind
            for key in ("recovered", "shrunk", "skipped", "items"):
                if key in rec:
                    e[key] = rec[key]
    out = []
    for name in sorted(timeline):
        e = timeline[name]
        detected = e.get("detected_at")
        if detected is not None and e.get("failover_at") is not None:
            e["failover_latency"] = e["failover_at"] - detected
        if e.get("recovery_start_at") is not None and e.get("recovery_end_at") is not None:
            e["recovery_duration"] = e["recovery_end_at"] - e["recovery_start_at"]
        out.append(e)
    return out


@dataclass
class TelemetryConfig:
    """Configuration accepted by ``DeploymentSpec(telemetry=...)``.

    ``True`` or ``{}`` enables everything with defaults; a dict may set
    any field below.  ``run_dir=None`` spills into a fresh temp dir
    (recorded on the result as ``telemetry_dir``).
    """

    sample_interval: float = 5e-3   #: sim-seconds between metric samples
    run_dir: Optional[str] = None   #: trace/v2 output directory
    trace_sample: int = 1           #: trace every Nth submitted query

    @classmethod
    def coerce(cls, value) -> Optional["TelemetryConfig"]:
        """Normalize the spec field: None/False off, True/dict/instance on."""
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            try:
                config = cls(**value)
            except TypeError as exc:
                raise ValueError(f"invalid telemetry config: {exc}") from exc
            return config
        raise ValueError(
            f"telemetry must be None, bool, dict or TelemetryConfig, "
            f"got {type(value).__name__}"
        )

    def validate(self) -> None:
        if self.sample_interval <= 0:
            raise ValueError("telemetry sample_interval must be positive")
        if self.trace_sample < 1:
            raise ValueError("telemetry trace_sample must be >= 1")


class PeriodicSampler:
    """Samples topology state into the registry on a fixed sim-time cadence.

    Each tick appends one ``trace-metrics/v2`` record to ``registry.series``::

        {"t": ..., "hosts": {name: tx_backlog_s}, "switches": {name:
         {"q": max_queue_wait_s, "sram": bytes}}, "links": {name: bits or
         utilization}, "opmix": {"vg:op": count}}

    A switch's ``q`` is the largest wait it admitted since the last tick and
    a link's bits are those of the hops scheduled since then: facts of the
    run, not of the engine.  The sampler touches no RNG or node state (it
    resets the tracer's per-tick counts), so it cannot perturb the run.
    """

    def __init__(self, sim, registry: MetricsRegistry, topology,
                 interval: float, opmix_source=None) -> None:
        self.sim = sim
        self.registry = registry
        self.topology = topology
        self.interval = interval
        self.opmix_source = opmix_source
        self._cancel = None

    def start(self) -> None:
        self._cancel = self.sim.every(self.interval, self._tick,
                                      start=self.interval)

    def stop(self) -> None:
        if self._cancel is not None:
            self._cancel()
            self._cancel = None

    def _tick(self) -> None:
        now = self.sim._now
        rec: Dict[str, Any] = {"t": now}

        hosts = {}
        for name, host in self.topology.hosts.items():
            backlog = host._tx_busy_until - now
            if backlog > 0:
                hosts[name] = backlog
        if hosts:
            rec["hosts"] = hosts

        switches = {}
        max_queue = 0.0
        max_sram = 0
        for name, switch in self.topology.switches.items():
            wait = switch.tel_wait
            switch.tel_wait = 0.0
            sram = switch.registers.allocated_bytes()
            if wait > max_queue:
                max_queue = wait
            if sram > max_sram:
                max_sram = sram
            if wait > 0 or sram:
                entry: Dict[str, Any] = {}
                if wait > 0:
                    entry["q"] = wait
                if sram:
                    entry["sram"] = sram
                switches[name] = entry
        if switches:
            rec["switches"] = switches

        links = {}
        for link in self.topology.links:
            bits = link.tel_bits
            link.tel_bits = 0.0
            if bits <= 0:
                continue
            bandwidth = link.config.bandwidth_bps
            if bandwidth:
                links[link.name] = bits / (bandwidth * self.interval)
            else:
                links[link.name] = bits
        if links:
            rec["links"] = links

        source = self.opmix_source
        if source is not None and source.opmix:
            rec["opmix"] = {
                f"vg{vg}:{op}": count
                for (vg, op), count in sorted(source.opmix.items())
            }

        registry = self.registry
        registry.add_sample(rec)
        gauges = registry.gauges
        if max_queue > gauges.get("max_switch_queue_s", 0.0):
            registry.gauge("max_switch_queue_s", max_queue)
        if max_sram > gauges.get("max_sram_bytes", 0):
            registry.gauge("max_sram_bytes", max_sram)
        host_peak = max(hosts.values(), default=0.0)
        if host_peak > gauges.get("max_host_tx_backlog_s", 0.0):
            registry.gauge("max_host_tx_backlog_s", host_peak)
        if links:
            peak_util = max(links.values())
            if peak_util > gauges.get("max_link_utilization", 0.0):
                registry.gauge("max_link_utilization", peak_util)
