"""The discrete-event engine.

Time is an integer count of nanoseconds.  Events scheduled for the same
timestamp run in the order they were scheduled (FIFO), which makes runs
bit-for-bit reproducible.  An event can be cancelled; cancellation is lazy
(the entry is flagged dead and skipped when its time comes).

Hot-path notes: the queue is a **calendar-queue / heap hybrid** rather
than a single binary heap.  Embedded workloads schedule in two distinct
regimes: a dense near-term cloud (job completions a few cycles out,
deferred signals at the current instant) and a sparse far future (the
next timer wakeup, seconds away).  The queue therefore keeps near-term
events in exact-timestamp FIFO buckets (a dict keyed by time, plus a
small heap of distinct bucket times) and far-future events in an
overflow heap of ``(time, seq)`` pairs; when the near window drains, the
horizon advances and the overflow migrates forward in ``(time, seq)``
order, which provably preserves the global FIFO-within-timestamp
contract (see ``tests/test_sim_engine.py`` and the golden digests in
``tests/test_golden_digests.py``).  Same-instant events — the common
case inside one CPU wakeup — cost one dict hit and a list append instead
of an O(log n) sift, and cancelled events are dropped without ever
touching the heap.

:class:`Event` objects are pure handles and are deliberately *never*
recycled into a pool: a handle stays valid after its event fires, so
``cancel()`` on an already-popped event is always a safe no-op rather
than a use-after-reuse hazard.  Determinism beats the last few
allocations.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.errors import SimulationError

#: Width of the near-term bucket window, in nanoseconds.  Events within
#: this horizon of the queue head live in exact-timestamp buckets; later
#: ones wait in the overflow heap.  One millisecond covers a whole CPU
#: wakeup's burst of job completions (1 cycle = 1 us) while keeping the
#: far-future timer arms out of the bucket index.
NEAR_WINDOW_NS = 1_000_000


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.at` /
    :meth:`Simulator.after`; keep it if you may need to cancel.

    The handle outlives its firing: cancelling an event that already ran
    (or was already cancelled) is harmless.
    """

    __slots__ = ("time", "seq", "fn", "args", "alive", "_sim", "_queued")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any],
                 args: tuple, sim: "Simulator"):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.alive = True
        self._sim = sim
        self._queued = True

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when its time comes."""
        self.alive = False
        if self._queued:
            # Still sitting in the queue: it no longer counts as pending.
            # (After firing, _queued is False, so a late cancel is a pure
            # flag flip with no accounting effect.)
            self._queued = False
            self._sim._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "cancelled"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time} {name} {state}>"


class Simulator:
    """Event queue plus the simulation clock.

    Typical use::

        sim = Simulator()
        sim.after(units.ms(10), callback, arg1)
        sim.run(until=units.seconds(48))
    """

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        # Calendar part: exact-timestamp FIFO buckets for events with
        # time < _horizon, plus a heap of the distinct bucket times.
        self._buckets: dict[int, list[Event]] = {}
        self._times: list[int] = []
        # Overflow part: (time, seq, event) heap for time >= _horizon.
        self._overflow: list[tuple[int, int, Event]] = []
        self._horizon = NEAR_WINDOW_NS
        self._live = 0  # alive events currently queued (O(1) pending())
        self._running = False
        self._events_executed = 0
        # Set while attached to a BatchSimulator (the queue structures
        # are then shared with the other attached worlds); run()
        # refuses to drive a shared queue with a single world's clock.
        self._batch = None

    # -- clock ---------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulation time in integer nanoseconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of event callbacks executed so far (for diagnostics)."""
        return self._events_executed

    # -- scheduling ----------------------------------------------------

    def at(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute time ``time_ns``."""
        # Coerce before the guard: a float like now - 0.5 must not slip
        # past the comparison and then truncate to a time in the past.
        time_ns = int(time_ns)
        if time_ns < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time_ns} ns, already at "
                f"t={self._now} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time_ns, seq, fn, args, self)
        self._live += 1
        if time_ns < self._horizon:
            bucket = self._buckets.get(time_ns)
            if bucket is None:
                self._buckets[time_ns] = [event]
                heappush(self._times, time_ns)
            else:
                bucket.append(event)
        else:
            heappush(self._overflow, (time_ns, seq, event))
        return event

    def after(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at ``now + delay_ns``."""
        if delay_ns < 0:
            raise SimulationError(f"negative delay: {delay_ns} ns")
        return self.at(self._now + int(delay_ns), fn, *args)

    def call_now(self, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current time, after events already
        queued for this instant (a 'soon' hook, used for deferred signals)."""
        return self.at(self._now, fn, *args)

    # -- queue internals ------------------------------------------------

    def _advance_horizon(self) -> None:
        """The buckets are empty: move the horizon past the overflow head
        and migrate everything inside the new window into buckets.

        Migration pops the overflow in ``(time, seq)`` order and appends
        into per-timestamp buckets, so migrated events keep their mutual
        FIFO order; any event scheduled into those buckets afterwards
        necessarily has a larger seq, so FIFO-within-timestamp holds
        globally.  The horizon only ever moves forward.
        """
        overflow = self._overflow
        horizon = overflow[0][0] + NEAR_WINDOW_NS
        buckets = self._buckets
        times = self._times
        while overflow and overflow[0][0] < horizon:
            time_ns, _, event = heappop(overflow)
            bucket = buckets.get(time_ns)
            if bucket is None:
                buckets[time_ns] = [event]
                heappush(times, time_ns)
            else:
                bucket.append(event)
        self._horizon = horizon

    # -- execution -----------------------------------------------------

    def run(self, until: Optional[int] = None) -> None:
        """Run events in order.

        ``until`` — stop once the next event lies beyond this time and set
        the clock to exactly ``until`` (so integrators can flush to the end
        of the window).
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        if self._batch is not None:
            raise SimulationError(
                "simulator is attached to a batch; run the batch instead")
        self._running = True
        times = self._times
        buckets = self._buckets
        try:
            # One bucket lookup per event, with dead events and drained
            # buckets discarded in place (the lazy half of ``cancel``).
            while True:
                if times:
                    time_ns = times[0]
                    bucket = buckets[time_ns]
                    while bucket:
                        event = bucket[0]
                        if event.alive:
                            break
                        del bucket[0]
                    if not bucket:
                        heappop(times)
                        del buckets[time_ns]
                        continue
                elif self._overflow:
                    self._advance_horizon()
                    continue
                else:
                    break
                if until is not None and time_ns > until:
                    break
                del bucket[0]
                if not bucket:
                    heappop(times)
                    del buckets[time_ns]
                event._queued = False
                self._live -= 1
                self._now = time_ns
                self._events_executed += 1
                event.fn(*event.args)
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

    def pending(self) -> int:
        """Number of live events still queued.  O(1): a live counter is
        maintained at schedule/cancel/fire time instead of scanning the
        queue (``__repr__`` and experiment asserts call this freely)."""
        return self._live

    def reset(self) -> None:
        """Return to the freshly constructed state: clock at zero, empty
        queue, sequence counter rewound.

        Part of the warm-start protocol: a sweep worker resets the
        simulator (and the node built on it) between grid points instead
        of rebuilding the world.  Outstanding :class:`Event` handles from
        the previous run are detached (marked dead and dequeued) so a
        stale ``cancel()`` can never perturb the next run's accounting.
        """
        if self._running:
            raise SimulationError("cannot reset a running simulator")
        if self._batch is not None:
            raise SimulationError(
                "cannot reset a simulator attached to a batch; detach first")
        for bucket in self._buckets.values():
            for event in bucket:
                event.alive = False
                event._queued = False
        for _, _, event in self._overflow:
            event.alive = False
            event._queued = False
        self._now = 0
        self._seq = 0
        self._buckets = {}
        self._times = []
        self._overflow = []
        self._horizon = NEAR_WINDOW_NS
        self._live = 0
        self._events_executed = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self._now} ns, {self.pending()} pending>"
