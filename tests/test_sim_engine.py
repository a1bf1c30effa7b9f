"""The discrete-event kernel: ordering, cancellation, run semantics."""

import heapq
import random

import pytest

from repro.errors import SimulationError
from repro.sim.engine import NEAR_WINDOW_NS, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.at(300, order.append, "c")
    sim.at(100, order.append, "a")
    sim.at(200, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_run_fifo():
    sim = Simulator()
    order = []
    for name in "abcde":
        sim.at(50, order.append, name)
    sim.run()
    assert order == list("abcde")


def test_after_is_relative_to_now():
    sim = Simulator()
    times = []
    sim.at(100, lambda: sim.after(50, lambda: times.append(sim.now)))
    sim.run()
    assert times == [150]


def test_cannot_schedule_in_the_past():
    sim = Simulator()
    sim.at(100, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(50, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.after(-1, lambda: None)


def test_cancelled_event_does_not_run():
    sim = Simulator()
    fired = []
    event = sim.at(100, fired.append, 1)
    event.cancel()
    sim.run()
    assert fired == []
    assert sim.pending() == 0


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    fired = []
    sim.at(100, fired.append, "early")
    sim.at(5_000, fired.append, "late")
    sim.run(until=1_000)
    assert fired == ["early"]
    assert sim.now == 1_000
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_includes_events_at_boundary():
    sim = Simulator()
    fired = []
    sim.at(1_000, fired.append, "boundary")
    sim.run(until=1_000)
    assert fired == ["boundary"]


def test_runaway_loop_stops_at_until():
    sim = Simulator()

    def loop():
        sim.after(1, loop)

    sim.after(1, loop)
    sim.run(until=100)
    assert sim.now == 100
    assert sim.events_executed == 100


def test_reentrant_run_rejected():
    sim = Simulator()

    def reenter():
        sim.run()

    sim.at(10, reenter)
    with pytest.raises(SimulationError):
        sim.run()


def test_run_until_stops_at_the_bound():
    sim = Simulator()
    fired = []
    sim.at(10, fired.append, 1)
    sim.at(20, fired.append, 2)
    sim.run(until=10)
    assert fired == [1]
    assert sim.now == 10 and sim.pending() == 1
    sim.run(until=20)
    assert fired == [1, 2]
    assert sim.pending() == 0


def test_events_executed_counter():
    sim = Simulator()
    for t in (10, 20, 30):
        sim.at(t, lambda: None)
    sim.run()
    assert sim.events_executed == 3


def test_call_now_runs_after_queued_events_at_same_instant():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.call_now(lambda: order.append("soon"))

    sim.at(100, first)
    sim.at(100, order.append, "second")
    sim.run()
    assert order == ["first", "second", "soon"]


# -- calendar-queue semantics -------------------------------------------------


def test_float_time_cannot_truncate_into_the_past():
    """Regression: at() used to coerce to int *after* the past-guard, so
    a float a hair above now passed the check and then truncated below
    it.  The coercion now happens first."""
    sim = Simulator()
    sim.at(100, lambda: None)
    sim.run()
    assert sim.now == 100
    with pytest.raises(SimulationError):
        sim.at(100.5 - 1.0, lambda: None)  # int() would give 99 < now
    # A float that still lands at now (or later) is fine.
    event = sim.at(100.9, lambda: None)
    assert event.time == 100


def test_fifo_preserved_across_the_bucket_overflow_boundary():
    """Events for one timestamp scheduled on both sides of the near
    horizon (some straight into a bucket, some migrated from the
    overflow heap) must still run in scheduling order."""
    sim = Simulator()
    far = 5 * NEAR_WINDOW_NS
    order = []
    sim.at(far, order.append, "overflow-first")   # beyond horizon
    sim.at(far, order.append, "overflow-second")  # beyond horizon

    def reschedule_same_instant():
        # By now the horizon has advanced past `far`: these go straight
        # into the bucket, behind the migrated pair.
        sim.at(far, order.append, "bucket-third")

    sim.at(far - NEAR_WINDOW_NS // 2, reschedule_same_instant)
    sim.run()
    assert order == ["overflow-first", "overflow-second", "bucket-third"]


def test_cancel_after_fire_is_safe_and_keeps_pending_exact():
    sim = Simulator()
    fired = []
    event = sim.at(10, fired.append, 1)
    later = sim.at(20, fired.append, 2)
    assert sim.pending() == 2
    sim.run(until=10)
    assert fired == [1]
    event.cancel()  # already fired: no-op, must not corrupt the count
    event.cancel()  # twice is fine too
    assert sim.pending() == 1
    later.cancel()
    assert sim.pending() == 0
    later.cancel()  # double-cancel of a queued event counts once
    assert sim.pending() == 0
    sim.run()
    assert fired == [1]


def test_pending_counts_live_events_without_scanning():
    sim = Simulator()
    events = [sim.at(t, lambda: None) for t in (10, 20, 5 * NEAR_WINDOW_NS)]
    assert sim.pending() == 3
    events[1].cancel()
    assert sim.pending() == 2
    sim.run()
    assert sim.pending() == 0


def test_cancelled_far_future_event_never_fires_after_migration():
    sim = Simulator()
    fired = []
    far = 3 * NEAR_WINDOW_NS
    doomed = sim.at(far, fired.append, "doomed")
    sim.at(far, fired.append, "kept")
    doomed.cancel()
    sim.run()
    assert fired == ["kept"]


def test_calendar_queue_matches_reference_heap_on_random_workloads():
    """Property test: the calendar queue's execution order is identical
    to a plain (time, seq) binary heap — the pre-optimization scheduler —
    on randomized workloads of bursty same-instant events, far-future
    arms, cancellations, and in-callback rescheduling."""
    rng = random.Random(20080101)
    for _ in range(20):
        plan = [
            (rng.choice((0, 1, 2, 50, 999, NEAR_WINDOW_NS * rng.randint(1, 4))),
             rng.random() < 0.2)  # (delay, cancel it?)
            for _ in range(60)
        ]
        reschedules = rng.sample(range(60), 10)

        def run_reference():
            order = []
            heap = []
            seq = [0]
            now = [0]

            def push(t, tag):
                heapq.heappush(heap, (t, seq[0], tag))
                seq[0] += 1
                return (t, seq[0] - 1)

            cancelled = set()
            for index, (delay, cancel) in enumerate(plan):
                handle = push(delay, index)
                if cancel:
                    cancelled.add(handle[1])
            while heap:
                t, s, tag = heapq.heappop(heap)
                if s in cancelled:
                    continue
                now[0] = t
                order.append((t, tag))
                if tag in reschedules:
                    push(t + plan[tag][0] + 7, ("re", tag))
            return order

        def run_calendar():
            order = []
            sim = Simulator()

            def fire(tag):
                order.append((sim.now, tag))
                if tag in reschedules:
                    sim.at(sim.now + plan[tag][0] + 7,
                           fire, ("re", tag))

            for index, (delay, cancel) in enumerate(plan):
                event = sim.at(delay, fire, index)
                if cancel:
                    event.cancel()
            sim.run()
            return order

        assert run_calendar() == run_reference()
