"""Discrete-event simulation engine.

A tiny but complete discrete-event kernel: a priority queue of timestamped
events, a monotonically advancing virtual clock, and helpers for periodic
processes.  All times are in **seconds** (floats); the typical granularity
in this project is hundreds of nanoseconds (switch pipeline delays) up to
milliseconds (ZooKeeper fsync delays).

The engine is deterministic: ties are broken by insertion order, and all
randomness in the simulation flows through :class:`random.Random` instances
seeded by the caller.

Hot-path design (this is the innermost loop of every experiment, so its
constant factors *are* the simulator's throughput):

* Heap entries are plain 4-element lists ``[time, seq, callback, args]``
  rather than objects, so ``heapq`` sifts compare at C speed (``time``
  first, then the unique ``seq`` -- the callback is never compared).
* :meth:`Simulator.call_after` schedules fire-and-forget callbacks without
  allocating an :class:`Event` handle; ``Link.transmit`` pushes its entry
  itself, with no engine frame at all.
* A hop nothing can observe costs no event (``Link.transmit``): the next
  event keeps the seq the skipped one would have had and carries its time,
  so a fault that lands first gives it back (``link.give_back``, through
  :meth:`Simulator.refile` and :meth:`Simulator.has_run`).  A switch's pass
  queues its packet as of then and pushes its next hop from the hop it
  resolved once (``link._hop``).  A TCP segment between two hosts on a
  transparent switch (no rate limit, no program) is carried as a payload
  (``link.carry``): one event, the far host's dispatch, and no packet, on a
  path its host resolved once; both are kept until a ``link.give_back``.
* Cancellation is a tombstone: the entry's callback slot is set to ``None``
  in place, and the entry is discarded when it surfaces at the top of the
  heap.  A tombstone count triggers heap compaction when more than half the
  queue is dead, so cancel-heavy workloads (retry timers) cannot grow the
  heap without bound.  A TCP endpoint queues only its earliest RTO.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Optional

#: Queues smaller than this are never compacted: rebuilding a tiny heap
#: costs more bookkeeping than the dead entries occupy.
_COMPACT_MIN_QUEUE = 64


class Event:
    """A cancellable handle to a scheduled callback.

    Events order by ``(time, seq)`` so that events scheduled earlier for
    the same timestamp run first (FIFO within a timestamp).  The handle
    wraps the underlying heap entry; cancelling tombstones the entry in
    place instead of searching the heap.
    """

    __slots__ = ("_sim", "_entry", "cancelled")

    def __init__(self, sim: "Simulator", entry: list) -> None:
        self._sim = sim
        self._entry = entry
        #: Whether :meth:`cancel` was called (fired events stay ``False``).
        self.cancelled = False

    @property
    def time(self) -> float:
        """Absolute simulation time this event fires at."""
        return self._entry[0]

    @property
    def seq(self) -> int:
        """Insertion sequence number (the FIFO tie-breaker)."""
        return self._entry[1]

    def cancel(self) -> None:
        """Mark this event so the simulator skips it when dequeued.

        The tombstone is counted here, and the heap compacted once it is
        mostly dead: without compaction a workload that schedules and
        cancels timers faster than their deadlines pass (client retry
        timers, TCP RTOs) grows the heap without bound and every push/pop
        pays ``log`` of the garbage.  Compaction keeps it at most half dead.
        """
        self.cancelled = True
        entry = self._entry
        if entry[2] is None:
            # Already fired (or already cancelled): nothing queued to
            # tombstone, and double-counting would corrupt compaction.
            return
        entry[2] = None
        entry[3] = ()
        sim = self._sim
        sim._tombstones += 1
        if len(sim._queue) >= _COMPACT_MIN_QUEUE and sim._tombstones * 2 > len(sim._queue):
            sim._compact()


class _Periodic:
    """State of one periodic process (see :meth:`Simulator.every`).

    A single slotted object per process -- each tick reschedules through the
    simulator's no-handle fast path, so steady-state periodic processes
    allocate nothing but their heap entries.
    """

    __slots__ = ("sim", "interval", "callback", "jitter", "rng", "stopped")

    def __init__(self, sim: "Simulator", interval: float,
                 callback: Callable[[], None], jitter: float, rng) -> None:
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.jitter = jitter
        self.rng = rng
        self.stopped = False

    def tick(self) -> None:
        if self.stopped:
            return
        self.callback()
        delay = self.interval
        if self.jitter and self.rng is not None:
            delay += self.rng.uniform(-self.jitter, self.jitter)
        if delay < 0:
            delay = 0.0
        self.sim.call_after(delay, self.tick)

    def cancel(self) -> None:
        self.stopped = True


class Simulator:
    """Event loop with a virtual clock.

    Typical use::

        sim = Simulator()
        sim.schedule(1e-6, lambda: print("one microsecond in"))
        sim.run(until=1.0)
    """

    def __init__(self) -> None:
        #: Heap of ``[time, seq, callback, args]`` entries; ``callback`` is
        #: ``None`` for tombstoned (cancelled) entries.
        self._queue: list = []
        self._seq = 0
        self._now = 0.0
        #: Every entry at ``_now`` with a seq up to this one has run.
        self._cursor = -1
        self._running = False
        self._processed = 0
        self._tombstones = 0
        #: Advanced by ``link.give_back``: an older carried path or switch hop is resolved again.
        self._stamp = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (for diagnostics)."""
        return self._processed

    @property
    def tombstones(self) -> int:
        """Number of cancelled entries still sitting in the queue."""
        return self._tombstones

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns a cancellable :class:`Event` handle.  Negative delays are
        clamped to zero, which keeps callers simple when a computed delay
        underflows to a tiny negative float.
        """
        if delay < 0:
            delay = 0.0
        seq = self._seq
        self._seq = seq + 1
        entry = [self._now + delay, seq, callback, args]
        heappush(self._queue, entry)
        return Event(self, entry)

    def call_after(self, delay: float, callback: Callable[..., None],
                   *args) -> None:
        """Fast-path :meth:`schedule` for callbacks that are never
        cancelled: no :class:`Event` handle is allocated."""
        if delay < 0:
            delay = 0.0
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, [self._now + delay, seq, callback, args])

    def schedule_at(self, time: float, callback: Callable[..., None],
                    *args) -> Event:
        """Schedule ``callback`` at an absolute simulation time."""
        delay = time - self._now
        return self.schedule(delay if delay > 0.0 else 0.0, callback, *args)

    def has_run(self, time: float, seq: int) -> bool:
        """Whether an event queued as ``(time, seq)`` would have run by now."""
        return time < self._now or (time == self._now and seq <= self._cursor)

    def refile(self, rewrite: Callable[[list], None]) -> None:
        """Let ``rewrite`` give each live entry, in ``(time, seq)`` order, a new
        time, callback and args in place (never a new seq); restore heap order."""
        for entry in sorted(entry for entry in self._queue if entry[2] is not None):
            rewrite(entry)
        heapify(self._queue)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None,
            stop_when: Optional[Callable[[], bool]] = None) -> None:
        """Run the event loop.

        Args:
            until: stop once the clock would pass this time (the event at
                exactly ``until`` still runs).
            max_events: safety valve for runaway simulations.
            stop_when: checked after every event; when it returns true the
                loop stops *at the current event's timestamp* instead of
                fast-forwarding the clock to ``until``.  This is how
                futures wait for a reply without distorting simulated time.
        """
        self._running = True
        queue = self._queue
        # ``self._processed`` is incremented per event (not batched in a
        # local) because callbacks may re-enter ``run`` -- a synchronous
        # future waiting on a reply drives a nested loop over this queue.
        # Both loops pop first: only the one event past ``until`` is pushed
        # back, under its own ``(time, seq)``, so its place in the order
        # holds and a later run() continues where this one stopped.  The
        # entry is marked fired *before* the callback runs: a late
        # ``Event.cancel`` (e.g. a reply cancelling its own retry timer from
        # inside that timer's callback chain) must not count a tombstone
        # for an entry that already left the queue.
        limit = float("inf") if until is None else until
        if stop_when is None and max_events is None:
            # Fast path for the dominant call shape, ``run(until=...)``:
            # no per-event predicate or budget checks.
            while queue and self._running:
                entry = heappop(queue)
                event_time, seq, callback, args = entry
                if callback is None:
                    self._tombstones -= 1
                    continue
                if event_time > limit:
                    heappush(queue, entry)
                    self._now = until
                    self._cursor = self._seq - 1
                    self._running = False
                    return
                self._now = event_time
                self._cursor = seq
                entry[2] = None
                callback(*args)
                self._processed += 1
        else:
            executed = 0
            while queue and self._running:
                entry = heappop(queue)
                event_time, seq, callback, args = entry
                if callback is None:
                    self._tombstones -= 1
                    continue
                if event_time > limit:
                    heappush(queue, entry)
                    self._now = until
                    self._cursor = self._seq - 1
                    self._running = False
                    return
                self._now = event_time
                self._cursor = seq
                entry[2] = None
                callback(*args)
                self._processed += 1
                executed += 1
                if stop_when is not None and stop_when():
                    self._running = False
                    return
                if max_events is not None and executed >= max_events:
                    self._running = False
                    return
        if until is not None and self._now < until:
            self._now = until
        self._running = False

    def stop(self) -> None:
        """Stop the event loop after the current event returns."""
        self._running = False

    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    def pending_live(self) -> int:
        """Number of queued events that are not tombstones."""
        return len(self._queue) - self._tombstones

    # ------------------------------------------------------------------ #
    # Tombstone bookkeeping.
    # ------------------------------------------------------------------ #

    def _compact(self) -> None:
        """Drop tombstoned entries and re-heapify the queue.

        In place (``[:]``): ``run`` loops hold a direct reference to the
        queue list, and cancellations -- hence compactions -- routinely
        happen from inside event callbacks.
        """
        self._queue[:] = [entry for entry in self._queue if entry[2] is not None]
        heapify(self._queue)
        self._tombstones = 0

    # ------------------------------------------------------------------ #
    # Periodic processes.
    # ------------------------------------------------------------------ #

    def every(self, interval: float, callback: Callable[[], None],
              start: float = 0.0, jitter: float = 0.0,
              rng=None) -> Callable[[], None]:
        """Run ``callback`` periodically until the returned canceller is called.

        Args:
            interval: period in seconds.
            callback: invoked once per period.
            start: delay before the first invocation.
            jitter: if non-zero, each period is perturbed uniformly in
                ``[-jitter, +jitter]`` using ``rng.uniform``.
            rng: a ``random.Random`` used when ``jitter`` is non-zero.

        Returns:
            A zero-argument function that cancels the periodic process.
        """
        process = _Periodic(self, interval, callback, jitter, rng)
        self.call_after(start, process.tick)
        return process.cancel
