"""Measurement helpers: latency distributions and throughput time series.

The evaluation section of the paper reports saturation throughput
(Figures 9(a)-(d), 9(f), 11), latency-vs-throughput curves (Figure 9(e)) and
per-second throughput time series around failures (Figure 10).  These small
collectors provide exactly those aggregations.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import List, Tuple


@dataclass
class LinkStats:
    """Per-link delivery/drop accounting, split by cause.

    Fault injection (:mod:`repro.netsim.faults`) distinguishes *why* a
    packet never arrived: an administratively/fault-downed link, the
    probabilistic loss model, or corruption (dropped by the receiver's FCS
    check).  Tests assert on these counters to prove a fault actually
    fired, and experiments report them alongside throughput.
    """

    #: Packets handed to the far end, counted when the arrival is scheduled:
    #: a packet still in flight when a run stops is already delivered (and
    #: received by the far node and port), even if that node fails before
    #: it lands.  A fused hop (a host's TX, a carried TCP segment's links)
    #: counts before its TX time; a fault landing first takes it back.
    delivered: int = 0
    #: Dropped because the link was down (fault-injected or partitioned).
    dropped_down: int = 0
    #: Dropped by the probabilistic loss model.
    dropped_loss: int = 0
    #: Dropped because the frame was corrupted in flight.
    dropped_corrupt: int = 0
    #: Deliveries that were given extra fault-model delay.
    delayed: int = 0
    #: Deliveries that were given reordering jitter.
    reordered: int = 0

    def total_dropped(self) -> int:
        """Packets lost on this link for any reason."""
        return self.dropped_down + self.dropped_loss + self.dropped_corrupt


#: Exact samples a :class:`LatencyRecorder` keeps before collapsing into
#: a bounded histogram.  Small figure runs stay exact; 1M-op runs stay
#: in fixed memory.
DEFAULT_MAX_EXACT_SAMPLES = 65536


class LatencyRecorder:
    """Collects per-query latencies and reports summary statistics.

    Up to ``max_exact_samples`` samples are kept verbatim, so small runs
    (the figure experiments, the property tests) get exact nearest-rank
    percentiles -- identical numerics to the historical all-samples
    recorder.  Past the threshold the recorder collapses into a fixed
    :class:`~repro.netsim.telemetry.LogBucketHistogram` (bounded memory,
    <~3% relative quantile error) and keeps recording there.  Pass
    ``max_exact_samples=None`` to force exact mode regardless of size, or
    ``0`` to go straight to the histogram.
    """

    def __init__(self, max_exact_samples: int | None = DEFAULT_MAX_EXACT_SAMPLES) -> None:
        self.samples: List[float] = []
        self.max_exact_samples = max_exact_samples
        self._hist = None

    def _collapse(self):
        """Move the exact samples into a histogram; further recording is bounded."""
        from repro.netsim.telemetry import LogBucketHistogram

        hist = self._hist = LogBucketHistogram()
        for sample in self.samples:
            hist.record(sample)
        self.samples = []
        return hist

    @property
    def collapsed(self) -> bool:
        """Whether the recorder has switched to bounded-histogram mode."""
        return self._hist is not None

    def record(self, latency: float) -> None:
        """Add one latency sample (seconds)."""
        hist = self._hist
        if hist is not None:
            hist.record(latency)
            return
        self.samples.append(latency)
        limit = self.max_exact_samples
        if limit is not None and len(self.samples) > limit:
            self._collapse()

    def merge(self, other: "LatencyRecorder") -> None:
        """Fold another recorder's samples into this one.

        Stays exact while the combined sample count fits under this
        recorder's threshold; collapses (both sides' views) into the
        histogram otherwise.
        """
        if (self._hist is None and other._hist is None
                and (self.max_exact_samples is None
                     or len(self.samples) + len(other.samples)
                     <= self.max_exact_samples)):
            self.samples.extend(other.samples)
            return
        hist = self._hist if self._hist is not None else self._collapse()
        if other._hist is not None:
            hist.merge(other._hist)
        else:
            for sample in other.samples:
                hist.record(sample)

    def count(self) -> int:
        hist = self._hist
        if hist is not None:
            return hist.count
        return len(self.samples)

    def mean(self) -> float:
        """Mean latency, 0.0 when empty (exact in both modes)."""
        hist = self._hist
        if hist is not None:
            return hist.mean()
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    def percentile(self, p: float) -> float:
        """p-th percentile (0-100): nearest-rank while exact, bucketed after."""
        hist = self._hist
        if hist is not None:
            return hist.percentile(p)
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = max(0, min(len(ordered) - 1, int(math.ceil(p / 100.0 * len(ordered))) - 1))
        return ordered[rank]

    def median(self) -> float:
        return self.percentile(50.0)

    def p99(self) -> float:
        return self.percentile(99.0)

    def clear(self) -> None:
        self.samples.clear()
        self._hist = None

    # -- serialization (matrix workers ship recorder state as JSON) ------ #

    def state_dict(self) -> dict:
        """A JSON-safe snapshot of the recorder.

        ``from_state(state_dict())`` reproduces the recorder exactly --
        mode (exact samples vs collapsed histogram), every sample/bucket,
        and the collapse threshold -- so per-cell recorders can cross a
        process boundary as JSON and still :meth:`merge` losslessly.
        """
        if self._hist is not None:
            return {"mode": "histogram",
                    "max_exact_samples": self.max_exact_samples,
                    "histogram": self._hist.state_dict()}
        return {"mode": "exact",
                "max_exact_samples": self.max_exact_samples,
                "samples": list(self.samples)}

    @classmethod
    def from_state(cls, state: dict) -> "LatencyRecorder":
        """Rebuild a recorder from :meth:`state_dict` output."""
        mode = state.get("mode")
        if mode not in ("exact", "histogram"):
            raise ValueError(f"LatencyRecorder state has unknown mode {mode!r}")
        recorder = cls(max_exact_samples=state.get(
            "max_exact_samples", DEFAULT_MAX_EXACT_SAMPLES))
        if mode == "histogram":
            from repro.netsim.telemetry import LogBucketHistogram
            recorder._hist = LogBucketHistogram.from_state(state["histogram"])
        else:
            recorder.samples = [float(sample) for sample in state["samples"]]
        return recorder


class IntervalCounter:
    """Counts events and reports rates over arbitrary time windows."""

    def __init__(self) -> None:
        #: Completion times as 8-byte doubles: only appended, bisected and iterated.
        self._times = array("d")
        #: ``record(time)`` is the array's own ``append`` (no Python frame).
        self.record = self._times.append

    def count_between(self, start: float, end: float) -> int:
        """Number of events with ``start <= t < end`` (times must be recorded
        in nondecreasing order, which simulation time guarantees)."""
        lo = bisect_right(self._times, start - 1e-15)
        hi = bisect_right(self._times, end - 1e-15)
        return hi - lo

    def rate_between(self, start: float, end: float) -> float:
        """Average events per second over the window."""
        if end <= start:
            return 0.0
        return self.count_between(start, end) / (end - start)

    def series(self, bin_width: float) -> List[Tuple[float, float]]:
        """(bin start time, events per second) for every ``bin_width`` bin
        from the first event's to the last's, empty bins included (the
        Figure 10 style time series)."""
        counts = Counter(int(time / bin_width) for time in self._times)
        if not counts:
            return []
        return [(index * bin_width, counts[index] / bin_width)
                for index in range(min(counts), max(counts) + 1)]

    def total(self) -> int:
        return len(self._times)
