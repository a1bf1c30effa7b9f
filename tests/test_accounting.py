"""The energy map: merging intervals, regression, and segments."""

import pytest

from repro.core.accounting import (
    CONST_KEY,
    UNTRACKED_KEY,
    EnergyMap,
    build_energy_map,
)
from repro.core.labels import ActivityLabel, ActivityRegistry
from repro.core.logger import (
    ENTRY_STRUCT,
    TYPE_ACT_ADD,
    TYPE_ACT_BIND,
    TYPE_ACT_CHANGE,
    TYPE_ACT_REMOVE,
    TYPE_BOOT,
    TYPE_POWERSTATE,
    LogColumns,
    decode_log,
)
from repro.core.regression import SinkColumn, solve_breakdown
from repro.core.timeline import ColumnarTimeline
from repro.errors import RegressionError
from repro.units import ms

QUANTUM = 8.33e-6


def _timeline(rows, end_ms):
    """The timeline of a log whose devices are single 0 and 1 and
    multi 9."""
    raw = b"".join(ENTRY_STRUCT.pack(*row) for row in rows)
    return ColumnarTimeline(LogColumns.from_entries(decode_log(raw)),
                            end_time_ns=ms(end_ms), single_res_ids=[0, 1],
                            multi_res_ids=[9])


def _pulses(power_w, dt_ms):
    return int(round(power_w * dt_ms * 1e-3 / QUANTUM))


def test_energy_split_by_activity_segments():
    """One LED on for two activities in sequence: energy splits by time."""
    registry = ActivityRegistry()
    red = registry.label(1, "Red").encode()
    blue = registry.label(1, "Blue").encode()
    led_power = 0.0075
    const = 0.0025
    on_400 = _pulses(led_power + const, 400)
    rows = [
        (TYPE_BOOT, 1, 0, 0, 0),
        # LED on at t=0, red for 100 ms, blue for 300 ms, off at 400;
        # a final record at 500 ms closes the off-state measurement.
        (TYPE_ACT_CHANGE, 1, 0, 0, red),
        (TYPE_POWERSTATE, 1, 0, 0, 1),
        (TYPE_ACT_CHANGE, 1, 100_000, _pulses(led_power + const, 100), blue),
        (TYPE_POWERSTATE, 1, 400_000, on_400, 0),
        (TYPE_BOOT, 1, 500_000, on_400 + _pulses(const, 100), 0),
    ]
    timeline = _timeline(rows, 500)
    layout = [SinkColumn(1, 1, "LED0")]
    regression = solve_breakdown(
        timeline.power_intervals(), layout, QUANTUM, 3.0)
    emap = build_energy_map(
        timeline, regression, registry, {1: "LED0"}, QUANTUM)
    by_activity = emap.energy_by_activity()
    # 100 ms red vs 300 ms blue of LED power.
    assert by_activity["1:Red"] == pytest.approx(led_power * 0.1, rel=0.05)
    assert by_activity["1:Blue"] == pytest.approx(led_power * 0.3, rel=0.05)
    assert by_activity[CONST_KEY] == pytest.approx(const * 0.5, rel=0.1)


def test_reconstruction_conservation():
    """Sum over the map equals regression power replayed over intervals."""
    registry = ActivityRegistry()
    red = registry.label(1, "Red").encode()
    rows = [
        (TYPE_BOOT, 1, 0, 0, 0),
        (TYPE_ACT_CHANGE, 1, 0, 0, red),
        (TYPE_POWERSTATE, 1, 0, 0, 1),
        (TYPE_POWERSTATE, 1, 200_000, _pulses(0.01, 200), 0),
    ]
    timeline = _timeline(rows, 300)
    layout = [SinkColumn(1, 1, "LED0")]
    regression = solve_breakdown(
        timeline.power_intervals(), layout, QUANTUM, 3.0)
    emap = build_energy_map(
        timeline, regression, registry, {1: "LED0"}, QUANTUM)
    replayed = sum(
        regression.power_of_states(iv.states) * iv.dt_ns * 1e-9
        for iv in timeline.power_intervals()
    )
    assert emap.total_energy_j() == pytest.approx(replayed, rel=1e-6)


def test_proxy_folding_changes_attribution():
    registry = ActivityRegistry()
    proxy = ActivityLabel(1, 0xC8)
    remote = registry.label(4, "BounceApp")
    rows = [
        (TYPE_BOOT, 0, 0, 0, 0),
        (TYPE_POWERSTATE, 0, 0, 0, 1),
        (TYPE_ACT_CHANGE, 0, 0, 0, proxy.encode()),
        (TYPE_ACT_BIND, 0, 100_000, _pulses(0.005, 100), remote.encode()),
        (TYPE_POWERSTATE, 0, 200_000, _pulses(0.005, 200), 0),
    ]
    layout = [SinkColumn(0, 1, "CPU")]
    timeline = _timeline(rows, 200)
    regression = solve_breakdown(
        timeline.power_intervals(), layout, QUANTUM, 3.0)

    unfolded = build_energy_map(
        timeline, regression, registry, {0: "CPU"}, QUANTUM,
        fold_proxies=False)
    folded = build_energy_map(
        _timeline(rows, 200), regression, registry, {0: "CPU"}, QUANTUM,
        fold_proxies=True)
    proxy_name = registry.name_of(proxy)
    assert unfolded.energy_by_activity().get(proxy_name, 0.0) > 0.0
    assert folded.energy_by_activity().get(proxy_name, 0.0) == 0.0
    assert folded.energy_by_activity()["4:BounceApp"] > \
        unfolded.energy_by_activity()["4:BounceApp"]


def test_multi_device_equal_split():
    registry = ActivityRegistry()
    red = registry.label(1, "Red").encode()
    blue = registry.label(1, "Blue").encode()
    rows = [
        (TYPE_BOOT, 9, 0, 0, 0),
        (TYPE_POWERSTATE, 9, 0, 0, 1),
        (TYPE_ACT_ADD, 9, 0, 0, red),
        (TYPE_ACT_ADD, 9, 0, 0, blue),
        (TYPE_POWERSTATE, 9, 100_000, _pulses(0.006, 100), 0),
        (TYPE_ACT_REMOVE, 9, 100_000, _pulses(0.006, 100), red),
        (TYPE_ACT_REMOVE, 9, 100_000, _pulses(0.006, 100), blue),
    ]
    timeline = _timeline(rows, 100)
    layout = [SinkColumn(9, 1, "TimerHW")]
    regression = solve_breakdown(
        timeline.power_intervals(), layout, QUANTUM, 3.0)
    emap = build_energy_map(
        timeline, regression, registry, {9: "TimerHW"}, QUANTUM)
    by_activity = emap.energy_by_activity()
    assert by_activity["1:Red"] == pytest.approx(by_activity["1:Blue"],
                                                 rel=1e-6)


def test_untracked_device_goes_to_untracked_bucket():
    registry = ActivityRegistry()
    rows = [
        (TYPE_BOOT, 7, 0, 0, 0),
        (TYPE_POWERSTATE, 7, 0, 0, 1),
        (TYPE_POWERSTATE, 7, 100_000, _pulses(0.004, 100), 0),
    ]
    timeline = _timeline(rows, 100)
    layout = [SinkColumn(7, 1, "ADC")]
    regression = solve_breakdown(
        timeline.power_intervals(), layout, QUANTUM, 3.0)
    emap = build_energy_map(
        timeline, regression, registry, {7: "ADC"}, QUANTUM)
    assert emap.energy_j.get(("ADC", UNTRACKED_KEY), 0.0) > 0.0


def test_empty_timeline_rejected():
    registry = ActivityRegistry()
    timeline = _timeline([], 0)
    layout = [SinkColumn(0, 1, "CPU")]
    with pytest.raises(RegressionError):
        build_energy_map(timeline, None, registry, {}, QUANTUM)


def test_energy_map_views():
    emap = EnergyMap()
    emap.add_energy("LED0", "1:Red", 0.1)
    emap.add_energy("LED0", "1:Blue", 0.2)
    emap.add_energy("CPU", "1:Red", 0.05)
    emap.add_time("CPU", "1:Red", 1000)
    assert emap.energy_by_component() == pytest.approx(
        {"LED0": 0.3, "CPU": 0.05})
    assert emap.energy_by_activity() == pytest.approx(
        {"1:Red": 0.15, "1:Blue": 0.2})
    assert emap.time_by_activity("CPU") == {"1:Red": 1000}
    assert set(emap.energy_by_component()) == {"LED0", "CPU"}
    assert emap.total_energy_j() == pytest.approx(0.35)
