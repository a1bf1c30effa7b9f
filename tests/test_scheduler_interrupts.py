"""Task scheduler and interrupt-layer instrumentation."""

import pytest

from repro.core.labels import PROXY_IDS, ActivityLabel
from repro.units import ms, seconds


def test_tasks_run_fifo(node, sim):
    order = []
    node.boot(lambda n: None)

    def app():
        node.scheduler.post_function(lambda: order.append(1))
        node.scheduler.post_function(lambda: order.append(2))
        node.scheduler.post_function(lambda: order.append(3))

    node.scheduler.post_function(app)
    sim.run(until=ms(10))
    assert order == [1, 2, 3]


def test_scheduler_saves_and_restores_activity(node, sim):
    """The paper's Tasks instrumentation: a task runs under the activity
    its poster carried, regardless of what ran in between."""
    red = node.activity("Red")
    blue = node.activity("Blue")
    seen = []

    def app():
        node.cpu_activity.set(red)
        node.scheduler.post_function(
            lambda: seen.append(node.cpu_activity.get()))
        node.cpu_activity.set(blue)
        node.scheduler.post_function(
            lambda: seen.append(node.cpu_activity.get()))

    node.boot(lambda n: None)
    node.scheduler.post_function(app)
    sim.run(until=ms(10))
    assert seen == [red, blue]


def test_cpu_goes_idle_after_last_task(node, sim):
    node.boot(lambda n: None)
    node.scheduler.post_function(
        lambda: node.cpu_activity.set(node.activity("Red")))
    sim.run(until=ms(10))
    assert node.cpu_activity.get() == node.idle
    assert node.cpu_powerstate.value == 0  # asleep


def test_interrupt_sets_proxy_and_restores(node, sim):
    seen = []

    def handler():
        seen.append(node.cpu_activity.get())

    trigger = node.interrupts.wire("int_TIMERA1", handler)
    node.boot(lambda n: None)
    sim.at(ms(5), trigger)
    sim.run(until=ms(10))
    assert seen == [node.proxies.label("int_TIMERA1")]
    assert node.cpu_activity.get() == node.idle
    assert node.interrupts.count("int_TIMERA1") == 1


def test_interrupt_handler_bind_does_not_break_restore(node, sim):
    red = node.activity("Red")

    def handler():
        node.cpu_activity.bind(red)

    trigger = node.interrupts.wire("int_TIMERA1", handler)
    node.boot(lambda n: None)
    sim.at(ms(5), trigger)
    sim.run(until=ms(10))
    # After the handler the CPU returned to the interrupted context (idle).
    assert node.cpu_activity.get() == node.idle


def test_interrupt_records_wake_and_sleep_powerstates(node, sim):
    trigger = node.interrupts.wire("int_TIMERA1", lambda: None)
    node.boot(lambda n: None)
    sim.run(until=ms(2))
    before = [e for e in node.logger.decode()]
    sim.at(ms(5), trigger)
    sim.run(until=ms(10))
    entries = node.logger.decode()[len(before):]
    powerstate_values = [e.value for e in entries
                         if e.res_id == 0 and e.type_name == "powerstate"]
    assert powerstate_values[:2] == [1, 0]  # ACTIVE then sleep
