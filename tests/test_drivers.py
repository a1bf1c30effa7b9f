"""Instrumented drivers: LEDs, flash, sensor."""

import pytest

from repro.units import ms, seconds


def test_leds_driver_signals_powerstate_before_pin(node, sim):
    led = node.platform.leds.led(0)
    events = []
    node.led_powerstates[0].add_tracker(
        lambda var, value: events.append(("ps", value, led.is_on)))
    node.boot(lambda n: n.scheduler.post_function(
        lambda: n.leds.led_on(0)))
    sim.run(until=ms(5))
    # Figure 2's ordering: PowerState.set first, then the pin.
    assert events == [("ps", 1, False)]
    assert led.is_on


def test_leds_paint_copies_cpu_activity(node, sim):
    red = node.activity("Red")

    def app(n):
        n.cpu_activity.set(red)
        n.leds.paint(1)
        n.leds.led_on(1)

    node.boot(lambda n: n.scheduler.post_function(lambda: app(node)))
    sim.run(until=ms(5))
    assert node.led_activities[1].get() == red
    node.scheduler.post_function(lambda: node.leds.unpaint(1))
    sim.run(until=ms(10))
    assert node.led_activities[1].get() == node.idle


def test_flash_driver_write_read_roundtrip(node, sim):
    results = []

    def app(n):
        n.flash.write(7, b"quanto", lambda: n.flash.read(
            7, 6, results.append))

    node.boot(lambda n: n.scheduler.post_function(lambda: app(node)))
    sim.run(until=seconds(1))
    assert results == [b"quanto"]


def test_flash_driver_shadows_power_states(node, sim):
    node.boot(lambda n: n.scheduler.post_function(
        lambda: n.flash.write(1, b"x", lambda: None)))
    sim.run(until=seconds(1))
    values = [e.value for e in node.entries()
              if e.res_id == 5 and e.type_name == "powerstate"]
    # POWER_DOWN -> STANDBY -> WRITE -> STANDBY
    assert values[:3] == [1, 3, 1]


def test_flash_driver_paints_and_binds_activity(node, sim):
    red = node.activity("Red")
    seen = []

    def app(n):
        n.cpu_activity.set(red)
        n.flash.write(2, b"y", lambda: seen.append(n.cpu_activity.get()))

    node.boot(lambda n: n.scheduler.post_function(lambda: app(node)))
    sim.run(until=seconds(1))
    # Completion ran under the requesting activity.
    assert seen == [red]
    # And the flash device itself was painted red during the write.
    timeline = node.timeline()
    flash_segments = timeline.activity_segments(5)
    painted = [s for s in flash_segments if s.label == red]
    assert painted and painted[0].dt_ns >= ms(2)


def test_sensor_driver_read_and_bind(node, sim):
    red = node.activity("Red")
    got = []

    def app(n):
        n.cpu_activity.set(red)
        n.sensor.read_humidity(
            lambda value: got.append((value, n.cpu_activity.get())))

    node.boot(lambda n: n.scheduler.post_function(lambda: app(node)))
    sim.run(until=seconds(1))
    assert len(got) == 1
    value, activity = got[0]
    assert 0 <= value <= 100
    assert activity == red


def test_sensor_driver_powerstate_trace(node, sim):
    node.boot(lambda n: n.scheduler.post_function(
        lambda: n.sensor.read_temperature(lambda v: None)))
    sim.run(until=seconds(1))
    values = [e.value for e in node.entries()
              if e.res_id == 6 and e.type_name == "powerstate"]
    assert values[:2] == [1, 0]  # SAMPLE then IDLE


def test_sensor_serializes_via_arbiter(node, sim):
    got = []

    def app(n):
        n.sensor.read_humidity(got.append)
        n.sensor.read_temperature(got.append)  # queued behind humidity

    node.boot(lambda n: n.scheduler.post_function(lambda: app(node)))
    sim.run(until=seconds(1))
    assert len(got) == 2
