"""Edge cases across the stack: crashing tasks, degenerate regressions,
single-interval logs."""

import pytest

from repro.core.regression import SinkColumn, solve_breakdown
from repro.core.timeline import PowerInterval
from repro.errors import RegressionError
from repro.units import ms, seconds


def test_crashing_task_still_records_sleep(node, sim):
    """run_wrapped is exception-safe: a task that raises still records
    the CPU sleep transition before the error propagates (on real
    hardware this is the path to a clean panic/reboot)."""

    def bad_task():
        raise RuntimeError("application bug")

    node.boot(lambda n: None)
    sim.run(until=ms(5))
    before = len(node.entries())
    node.scheduler.post_function(bad_task)
    with pytest.raises(RuntimeError):
        sim.run(until=ms(10))
    entries = node.entries()[before:]
    powerstates = [e.value for e in entries
                   if e.res_id == 0 and e.type_name == "powerstate"]
    assert powerstates == [1, 0]  # woke, crashed, still recorded sleep


def test_crashing_interrupt_restores_activity(node, sim):
    def bad_handler():
        raise RuntimeError("driver bug")

    trigger = node.interrupts.wire("int_TIMERA1", bad_handler)
    node.boot(lambda n: None)
    sim.run(until=ms(5))
    sim.at(ms(6), trigger)
    with pytest.raises(RuntimeError):
        sim.run(until=ms(10))
    # The wrapper's finally restored the pre-interrupt activity.
    assert node.cpu_activity.get() == node.idle


def test_regression_single_state_only():
    """A log where nothing ever changes state: only the constant is
    identifiable; the sink column never appears active and is dropped."""
    interval = PowerInterval(0, seconds(10),
                             int(0.003 * 10 / 8.33e-6), ((1, 0),))
    layout = [SinkColumn(1, 1, "LED0")]
    result = solve_breakdown([interval], layout, 8.33e-6, 3.0)
    assert "LED0" not in result.power_w
    assert result.const_power_w == pytest.approx(0.003, rel=0.01)


def test_regression_zero_energy_intervals():
    """All-zero pulse counts (node slept through the whole log at a draw
    below one pulse): regression returns zeros, not NaNs."""
    intervals = [
        PowerInterval(0, seconds(1), 0, ((1, 0),)),
        PowerInterval(seconds(1), seconds(2), 0, ((1, 1),)),
    ]
    layout = [SinkColumn(1, 1, "LED0")]
    result = solve_breakdown(intervals, layout, 8.33e-6, 3.0)
    assert result.power_w["LED0"] == pytest.approx(0.0, abs=1e-12)
    assert result.const_power_w == pytest.approx(0.0, abs=1e-12)


def test_node_analysis_before_boot(node):
    """Analyzing an unbooted node: empty log, graceful failure modes."""
    assert node.entries() == []
    timeline = node.timeline()  # unbooted: nothing to close
    assert timeline.power_intervals() == []
    with pytest.raises(RegressionError):
        node.regression(timeline)


def test_zero_duration_run_analysis(node, sim):
    """Boot but run only the boot instant: the boot snapshot plus the
    wake/sleep pair still form a (tiny) analyzable log."""
    node.boot(lambda n: None)
    sim.run(until=ms(2))
    entries = node.entries()
    assert len(entries) > 0
    times = [e.time_us for e in entries]
    assert times == sorted(times)
