"""Discrete-event engine edge cases.

The engine's determinism contract lives or dies on these: FIFO ordering
of same-timestamp events, cancellation of events in every lifecycle
state (queued, popped, fired), scheduling from inside callbacks at the
current instant, and ``run(until=...)`` boundary semantics.
"""

from repro.errors import SimulationError
from repro.sim.engine import Simulator


# -- FIFO ordering of same-timestamp events -------------------------------


def test_same_timestamp_fifo_across_scheduling_apis():
    sim = Simulator()
    order = []
    sim.at(100, order.append, "at-1")
    sim.at(50, lambda: sim.after(50, order.append, "after"))  # lands at 100
    sim.at(100, order.append, "at-2")
    sim.run()
    # FIFO follows *scheduling* order: both at(100) calls preceded the
    # after(50) call (which only happened at t=50).
    assert order == ["at-1", "at-2", "after"]


def test_fifo_preserved_around_cancelled_neighbors():
    sim = Simulator()
    order = []
    sim.at(10, order.append, "a")
    doomed = sim.at(10, order.append, "x")
    sim.at(10, order.append, "b")
    doomed.cancel()
    sim.run()
    assert order == ["a", "b"]


# -- cancellation lifecycle -----------------------------------------------


def test_cancel_already_fired_event_is_harmless():
    sim = Simulator()
    fired = []
    event = sim.at(10, fired.append, "first")
    sim.at(20, fired.append, "second")
    sim.run(until=15)
    assert fired == ["first"]
    # The event was popped and executed; cancelling the stale handle must
    # not disturb anything still queued.
    event.cancel()
    event.cancel()  # double-cancel, equally harmless
    sim.run()
    assert fired == ["first", "second"]


def test_cancel_pending_sibling_from_same_timestamp_callback():
    # An earlier same-timestamp callback cancels a later one that is
    # still in the queue: the victim must be skipped when popped.
    sim = Simulator()
    fired = []

    def killer():
        fired.append("killer")
        victim.cancel()

    sim.at(10, killer)
    victim = sim.at(10, fired.append, "victim")
    sim.run()
    assert fired == ["killer"]


def test_cancel_fired_sibling_from_same_timestamp_callback():
    # The reverse order: by the time the would-be killer runs, the victim
    # already fired — cancelling its popped handle changes nothing.
    sim = Simulator()
    fired = []
    victim = sim.at(10, fired.append, "victim")
    sim.at(10, lambda: (fired.append("late-killer"), victim.cancel()))
    sim.at(20, fired.append, "after")
    sim.run()
    assert fired == ["victim", "late-killer", "after"]


def test_cancel_event_from_its_own_callback():
    sim = Simulator()
    fired = []

    def self_cancel():
        fired.append("ran")
        handle.cancel()  # already popped: a no-op, not an error

    handle = sim.at(5, self_cancel)
    sim.run()
    assert fired == ["ran"]
    assert sim.pending() == 0


def test_pending_counts_exclude_cancelled():
    sim = Simulator()
    keep = sim.at(10, lambda: None)
    drop = sim.at(20, lambda: None)
    drop.cancel()
    assert sim.pending() == 1
    sim.run()
    assert sim.pending() == 0
    assert keep.alive  # firing does not retroactively flag the handle


# -- scheduling from inside callbacks -------------------------------------


def test_schedule_at_current_timestamp_from_callback():
    sim = Simulator()
    order = []

    def outer():
        order.append("outer")
        sim.at(sim.now, order.append, "inner-at")
        sim.call_now(order.append, "inner-callnow")

    sim.at(100, outer)
    sim.at(100, order.append, "peer")
    sim.run()
    # Events injected at the current instant run after everything already
    # queued for that instant, in injection order.
    assert order == ["outer", "peer", "inner-at", "inner-callnow"]
    assert sim.now == 100


def test_callback_cannot_schedule_in_the_past():
    sim = Simulator()
    errors = []

    def bad():
        try:
            sim.at(sim.now - 1, lambda: None)
        except SimulationError as exc:
            errors.append(exc)

    sim.at(100, bad)
    sim.run()
    assert len(errors) == 1


# -- run(until=...) boundary semantics ------------------------------------


def test_until_boundary_event_runs_and_clock_stops_exactly():
    sim = Simulator()
    fired = []
    sim.at(1_000, fired.append, "on-boundary")
    sim.at(1_001, fired.append, "past")
    sim.run(until=1_000)
    assert fired == ["on-boundary"]
    assert sim.now == 1_000


def test_event_scheduled_on_boundary_from_boundary_callback_runs():
    sim = Simulator()
    fired = []

    def chain():
        fired.append("first")
        sim.at(sim.now, fired.append, "chained")

    sim.at(1_000, chain)
    sim.run(until=1_000)
    # The chained event sits exactly on the boundary: it belongs to this
    # window and must run before the clock freezes.
    assert fired == ["first", "chained"]
    assert sim.now == 1_000


def test_until_with_only_cancelled_events_advances_clock():
    sim = Simulator()
    event = sim.at(500, lambda: None)
    event.cancel()
    sim.run(until=2_000)
    assert sim.now == 2_000
    assert sim.pending() == 0


def test_until_in_empty_simulator_advances_clock():
    sim = Simulator()
    sim.run(until=750)
    assert sim.now == 750


def test_resume_after_until_keeps_order():
    sim = Simulator()
    fired = []
    for t in (100, 200, 300):
        sim.at(t, fired.append, t)
    sim.run(until=150)
    assert fired == [100]
    sim.run(until=250)
    assert fired == [100, 200]
    sim.run()
    assert fired == [100, 200, 300]


def test_until_earlier_than_now_leaves_clock_alone():
    sim = Simulator()
    sim.run(until=1_000)
    sim.run(until=500)  # window already behind us: nothing to do
    assert sim.now == 1_000
