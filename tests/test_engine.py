"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import random

import pytest

from repro.netsim.engine import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.pending() == 0


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3e-6, lambda: order.append("c"))
    sim.schedule(1e-6, lambda: order.append("a"))
    sim.schedule(2e-6, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_run_in_insertion_order():
    sim = Simulator()
    order = []
    for label in ("first", "second", "third"):
        sim.schedule(1e-6, lambda l=label: order.append(l))
    sim.run()
    assert order == ["first", "second", "third"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0]
    assert sim.now == 5.0


def test_negative_delay_is_clamped():
    sim = Simulator()
    fired = []
    sim.schedule(-1.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [0.0]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1.0))
    sim.schedule(10.0, lambda: fired.append(10.0))
    sim.run(until=5.0)
    assert fired == [1.0]
    assert sim.now == 5.0
    # The later event is still pending and runs on the next call.
    sim.run(until=20.0)
    assert fired == [1.0, 10.0]


def test_run_until_with_no_events_advances_clock():
    sim = Simulator()
    sim.run(until=2.5)
    assert sim.now == 2.5


def test_event_can_be_cancelled():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda: fired.append("x"))
    event.cancel()
    sim.run()
    assert fired == []


def test_nested_scheduling_from_callback():
    sim = Simulator()
    seen = []

    def outer():
        seen.append(("outer", sim.now))
        sim.schedule(1.0, lambda: seen.append(("inner", sim.now)))

    sim.schedule(1.0, outer)
    sim.run()
    assert seen == [("outer", 1.0), ("inner", 2.0)]


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: sim.schedule_at(5.0, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [5.0]


def test_schedule_at_past_time_runs_immediately():
    sim = Simulator()
    seen = []

    def later():
        sim.schedule_at(0.5, lambda: seen.append(sim.now))

    sim.schedule(2.0, later)
    sim.run()
    assert seen == [2.0]


def test_stop_halts_the_loop():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
    sim.schedule(2.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1]
    assert sim.pending() == 1


def test_max_events_limits_execution():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i), lambda i=i: fired.append(i))
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_processed_events_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.processed_events == 5


def test_periodic_process_and_cancel():
    sim = Simulator()
    ticks = []
    cancel = sim.every(1.0, lambda: ticks.append(sim.now))
    sim.run(until=3.5)
    assert ticks == [0.0, 1.0, 2.0, 3.0]
    cancel()
    sim.run(until=10.0)
    assert len(ticks) == 4


def test_periodic_process_with_jitter_stays_positive():
    sim = Simulator()
    ticks = []
    rng = random.Random(1)
    sim.every(1.0, lambda: ticks.append(sim.now), jitter=0.5, rng=rng)
    sim.run(until=10.0)
    assert len(ticks) >= 6
    assert all(b > a for a, b in zip(ticks, ticks[1:], strict=False))


# --------------------------------------------------------------------- #
# Hot-path rewrite edge cases: FIFO ties, cancellation, tombstone
# compaction, stop_when, and whole-scenario determinism.
# --------------------------------------------------------------------- #


def test_same_timestamp_fifo_across_schedule_apis():
    """FIFO within a timestamp holds across schedule / call_after / args."""
    sim = Simulator()
    order = []
    sim.schedule(1e-6, lambda: order.append("a"))
    sim.call_after(1e-6, order.append, "b")
    sim.schedule(1e-6, order.append, "c")
    sim.call_after(1e-6, lambda: order.append("d"))
    sim.run()
    assert order == ["a", "b", "c", "d"]


def test_cancel_then_reschedule():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda: fired.append("first"))
    event.cancel()
    assert event.cancelled
    replacement = sim.schedule(2.0, lambda: fired.append("second"))
    sim.run()
    assert fired == ["second"]
    assert not replacement.cancelled
    # Cancelling an already-fired event is a harmless no-op and must not
    # corrupt the tombstone accounting.
    replacement.cancel()
    assert sim.tombstones == 0


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    assert sim.tombstones == 1
    sim.run()
    assert sim.tombstones == 0


def test_run_stop_when_stops_at_triggering_event():
    """stop_when halts at the triggering event's timestamp, not at until."""
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(1.0))
    sim.schedule(2.0, lambda: seen.append(2.0))
    sim.schedule(9.0, lambda: seen.append(9.0))
    sim.run(until=100.0, stop_when=lambda: len(seen) == 2)
    assert seen == [1.0, 2.0]
    assert sim.now == 2.0  # exactly the triggering event, no fast-forward
    sim.run(until=100.0)
    assert seen == [1.0, 2.0, 9.0]


def test_tombstones_are_compacted_when_majority_dead():
    """Cancelled events must not sit in the heap forever (satellite fix)."""
    sim = Simulator()
    events = [sim.schedule(1.0 + i * 1e-3, lambda: None) for i in range(512)]
    assert sim.pending() == 512
    # Cancel well past half the queue: compaction must kick in and shrink
    # the heap rather than leaving the tombstones until their deadlines.
    for event in events[:400]:
        event.cancel()
    assert sim.pending() < 512
    assert sim.pending_live() == 112
    assert sim.tombstones * 2 <= sim.pending()
    fired = []
    sim.schedule(0.5, lambda: fired.append("live"))
    sim.run()
    assert fired == ["live"]
    assert sim.processed_events == 113  # 112 survivors + the extra one


def test_compaction_during_run_keeps_queue_reference_valid():
    """Cancelling en masse from inside a callback (which triggers an
    in-place compaction) must not detach the running loop's queue."""
    sim = Simulator()
    fired = []
    doomed = [sim.schedule(5.0, lambda: fired.append("doomed")) for _ in range(256)]

    def cancel_all():
        for event in doomed:
            event.cancel()

    sim.schedule(1.0, cancel_all)
    sim.schedule(2.0, lambda: fired.append("after"))
    sim.run()
    assert fired == ["after"]
    assert sim.pending() == 0


def test_event_past_until_stays_queued_under_its_own_seq():
    """The loop pops first and pushes the one event past ``until`` back:
    it must come back as the same entry, so a same-time event scheduled in
    between still runs after it (FIFO by the seq given at schedule time)."""
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    late = sim.schedule(10.0, fired.append, "late")
    seq = late.seq
    sim.run(until=5.0)
    assert fired == ["early"] and sim.now == 5.0
    assert sim.pending() == sim.pending_live() == 1
    assert (late.time, late.seq) == (10.0, seq)
    sim.schedule_at(10.0, fired.append, "later, same time")
    # The predicate loop leaves it queued the same way.
    sim.run(until=6.0, stop_when=lambda: False)
    assert sim.pending() == 2 and sim.now == 6.0
    sim.run()
    assert fired == ["early", "late", "later, same time"]
    assert sim.processed_events == 3


def test_cancel_from_inside_the_fired_callback_counts_no_tombstone():
    """An entry is marked fired before its callback runs: cancelling the
    handle from inside that callback (a reply cancelling its own retry
    timer) must not count a tombstone for an entry that left the queue."""
    for predicate in (None, lambda: False):
        sim = Simulator()
        handles = []
        handles.append(sim.schedule(1.0, lambda: handles[0].cancel()))
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5, stop_when=predicate)
        assert handles[0].cancelled
        assert sim.tombstones == 0 and sim.pending_live() == 1
        sim.run(stop_when=predicate)
        assert sim.processed_events == 2 and sim.tombstones == 0


def test_periodic_process_via_every_still_cancellable():
    sim = Simulator()
    ticks = []
    cancel = sim.every(1.0, lambda: ticks.append(sim.now))
    sim.run(until=2.5)
    cancel()
    sim.run(until=10.0)
    assert ticks == [0.0, 1.0, 2.0]


def test_refiled_entry_keeps_its_seq_and_has_run_follows_the_order():
    """``refile`` moves an entry in time but not in the FIFO order of equal
    times; ``has_run`` answers for ``(time, seq)`` pairs on either side of
    the running event and of a ``run(until=...)`` that stopped."""
    sim = Simulator()
    order = []
    sim.schedule_at(2.0, order.append, "moved")
    sim.schedule_at(1.0, order.append, "first")
    sim.schedule_at(1.0, lambda: order.append((sim.has_run(1.0, 0), sim.has_run(1.0, 3))))
    sim.schedule_at(3.0, order.append, "last")

    def to_one(entry):
        if entry[3] == ("moved",):
            entry[0] = 1.0

    sim.refile(to_one)
    sim.run(until=2.5)
    assert order == ["moved", "first", (True, False)]
    assert sim.has_run(2.5, 3) and not sim.has_run(2.5, 4) and not sim.has_run(3.0, 3)


@pytest.mark.anchor
def test_seeded_scenario_processed_events_pinned():
    """Whole-scenario determinism: the engine must execute the exact same
    event stream for a seeded macro-scenario.

    Two kinds of fact are pinned.  The signature digest (every op's
    client, key, value, outcome and times) is semantic: no change may move
    it.  The event count is mechanical: a change that removes events (the
    fused host TX hop took it from 116,946 to 106,692, one per op; a queued
    switch admitting at the pass to 69,446) re-pins it once, with the digest
    unmoved."""
    from repro.deploy import DeploymentSpec, WorkloadSpec, run_scenario
    from repro.deploy.matrix import signature_digest

    spec = DeploymentSpec(backend="netchain", store_size=20, value_size=32, seed=5)
    workload = WorkloadSpec(num_clients=2, concurrency=2, write_ratio=0.5,
                            duration=0.25, drain=0.25)
    result = run_scenario(spec, workload)
    assert result.ok(), result.failures
    assert signature_digest(result) \
        == "fff73ea05fd55beec2c02dcec251240177d63592ba8a6f0d0adae6d99dcfd531"
    assert result.deployment.sim.processed_events == 69446
    assert result.completed_ops == 10254
