"""Unit tests for the measurement helpers."""

from __future__ import annotations

import pytest

from repro.netsim.stats import IntervalCounter, LatencyRecorder


def test_latency_recorder_statistics():
    recorder = LatencyRecorder()
    for value in [1.0, 2.0, 3.0, 4.0, 5.0]:
        recorder.record(value)
    assert recorder.count() == 5
    assert recorder.mean() == pytest.approx(3.0)
    assert recorder.median() == pytest.approx(3.0)
    assert recorder.percentile(100) == pytest.approx(5.0)
    assert recorder.p99() == pytest.approx(5.0)
    recorder.clear()
    assert recorder.count() == 0
    assert recorder.mean() == 0.0
    assert recorder.percentile(50) == 0.0


def test_latency_percentile_bounds():
    recorder = LatencyRecorder()
    for value in range(1, 101):
        recorder.record(float(value))
    assert recorder.percentile(1) == pytest.approx(1.0)
    assert recorder.percentile(50) == pytest.approx(50.0)
    assert recorder.percentile(99) == pytest.approx(99.0)


def test_throughput_time_series_bins_and_gaps():
    # The expected list is what the deleted ThroughputTimeSeries(bin_width=0.5)
    # produced for the same times (captured at c463d02): first event's bin to
    # the last's, gaps included, a time on a bin edge counted in the later bin.
    counter = IntervalCounter()
    for t in [0.6, 0.7, 0.999, 1.0, 2.4999, 2.5, 2.6, 2.6, 4.2]:
        counter.record(t)
    assert counter.series(0.5) == [
        (0.5, 6.0), (1.0, 2.0), (1.5, 0.0), (2.0, 2.0),
        (2.5, 6.0), (3.0, 0.0), (3.5, 0.0), (4.0, 2.0)]
    assert sum(rate * 0.5 for _, rate in counter.series(0.5)) == counter.total()


def test_throughput_time_series_empty():
    assert IntervalCounter().series(1.0) == []


def test_interval_counter_window_queries():
    counter = IntervalCounter()
    for t in [0.1, 0.2, 1.5, 2.5, 2.6]:
        counter.record(t)
    assert counter.total() == 5
    assert counter.count_between(0.0, 1.0) == 2
    assert counter.count_between(1.0, 3.0) == 3
    assert counter.rate_between(0.0, 1.0) == pytest.approx(2.0)
    assert counter.rate_between(2.0, 2.0) == 0.0
