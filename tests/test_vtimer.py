"""Virtual timers: multiplexing, activity save/restore, the multi-activity
hardware timer device."""

import pytest

from repro.errors import SimulationError
from test_activity_devices import tracked_set
from repro.units import ms, seconds


def test_periodic_timer_fires_on_schedule(node, sim):
    fires = []
    node.boot(lambda n: n.vtimers.start_periodic(
        lambda: fires.append(sim.now), ms(100), name="p"))
    sim.run(until=ms(1000))
    assert len(fires) == 9 or len(fires) == 10
    # Firing cadence is the period plus small dispatch latency.
    gaps = [b - a for a, b in zip(fires, fires[1:])]
    assert all(abs(gap - ms(100)) < ms(5) for gap in gaps)


def test_oneshot_fires_once(node, sim):
    fires = []
    node.boot(lambda n: n.vtimers.start_oneshot(
        lambda: fires.append(sim.now), ms(50), name="o"))
    sim.run(until=ms(500))
    assert len(fires) == 1


def test_multiple_timers_multiplex_one_compare(node, sim):
    a_fires, b_fires = [], []

    def app(n):
        n.vtimers.start_periodic(lambda: a_fires.append(sim.now), ms(100),
                                 name="a")
        n.vtimers.start_periodic(lambda: b_fires.append(sim.now), ms(250),
                                 name="b")

    node.boot(app)
    sim.run(until=seconds(1))
    assert len(a_fires) >= 8
    assert len(b_fires) >= 3
    # Only one hardware compare unit was used.
    assert node.platform.timer_b.unit(0).fire_count > 0
    assert node.platform.timer_b.unit(2).fire_count == 0


def test_timer_restores_saved_activity(node, sim):
    red = node.activity("Red")
    seen = []

    def app(n):
        n.cpu_activity.set(red)
        n.vtimers.start_oneshot(
            lambda: seen.append(n.cpu_activity.get()), ms(50), name="t")
        n.cpu_activity.set(n.idle)

    node.boot(app)
    sim.run(until=ms(200))
    assert seen == [red]


def test_explicit_activity_override(node, sim):
    blue = node.activity("Blue")
    seen = []
    node.boot(lambda n: n.vtimers.start_oneshot(
        lambda: seen.append(n.cpu_activity.get()), ms(50), name="t",
        activity=blue))
    sim.run(until=ms(200))
    assert seen == [blue]


def test_hw_timer_is_multi_activity_device(node, sim):
    red = node.activity("Red")
    blue = node.activity("Blue")

    def app(n):
        n.cpu_activity.set(red)
        n.vtimers.start_periodic(lambda: None, ms(100), name="a")
        n.cpu_activity.set(blue)
        n.vtimers.start_periodic(lambda: None, ms(200), name="b")

    current = tracked_set(node.timer_activity)
    node.boot(app)
    sim.run(until=ms(50))
    assert current == {red, blue}


def test_oneshot_removed_from_multi_device_after_fire(node, sim):
    red = node.activity("Red")

    def app(n):
        n.cpu_activity.set(red)
        n.vtimers.start_oneshot(lambda: None, ms(50), name="t")

    current = tracked_set(node.timer_activity)
    node.boot(app)
    sim.run(until=ms(200))
    assert red not in current


def test_nonpositive_delay_rejected(node, sim):
    node.boot(lambda n: None)
    with pytest.raises(SimulationError):
        node.vtimers.start_oneshot(lambda: None, 0)


def test_vtimer_activity_charged_for_dispatch(node, sim):
    node.boot(lambda n: n.vtimers.start_periodic(
        lambda: None, ms(100), name="p"))
    sim.run(until=seconds(2))
    timeline = node.timeline()
    vtimer_name = node.registry.name_of(node.vtimer_label)
    segments = timeline.activity_segments(0)
    vtimer_time = sum(s.dt_ns for s in segments
                      if node.registry.name_of(s.label) == vtimer_name)
    assert vtimer_time > 0


def test_blink_schedules_o_wakeups_not_o_ticks(monkeypatch):
    """The timer subsystem multiplexes all virtual timers onto one
    compare arm per wakeup: a Blink run's engine event count must scale
    with *wakeups* (a few per LED toggle), never with the underlying
    timer granularity (1 MHz would mean millions of events).  Pins the
    scheduler batching contract for the calendar-queue engine."""
    from repro.experiments.common import run_blink
    from repro.units import seconds

    # Both worlds must stay live side by side: same-configuration calls
    # share one warm world (the second run_blink would reset the first
    # run's node/sim), so force cold constructions for this comparison.
    monkeypatch.setenv("REPRO_WARM_START", "0")
    node8, _, sim8 = run_blink(0, duration_ns=seconds(8))
    node48, _, sim48 = run_blink(0, duration_ns=seconds(48))
    # A 48 s Blink has ~48 timer wakeups; a handful of events each.
    assert sim48.events_executed < 10 * 48
    # Scaling is linear in wakeups (6x duration -> ~6x events), nowhere
    # near the 6 * 8e6 additional ticks a tick-driven scheduler would pay.
    growth = sim48.events_executed - sim8.events_executed
    assert growth < 10 * 40
    assert node48.vtimers.dispatches == 6 * node8.vtimers.dispatches
