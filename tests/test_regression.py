"""The energy-breakdown regression (Section 2.5)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.regression import (
    SinkColumn,
    group_intervals,
    solve_breakdown,
    solve_from_currents,
)
from repro.core.timeline import PowerInterval
from repro.errors import RegressionError
from repro.units import ms

QUANTUM = 8.33e-6
VOLTAGE = 3.0


def _interval(t0_ms, t1_ms, states, power_w):
    """An interval with exact (unquantized-ish) pulse count for a given
    aggregate power."""
    dt_s = (t1_ms - t0_ms) * 1e-3
    pulses = int(round(power_w * dt_s / QUANTUM))
    return PowerInterval(
        t0_ns=ms(t0_ms), t1_ns=ms(t1_ms), pulses=pulses,
        states=tuple(sorted(states.items())),
    )


LAYOUT = [
    SinkColumn(1, 1, "LED0"),
    SinkColumn(2, 1, "LED1"),
]


def _blinky_intervals(p_led0=0.0075, p_led1=0.0067, p_const=0.0025):
    """Four long steady states covering all LED combinations."""
    return [
        _interval(0, 1000, {1: 0, 2: 0}, p_const),
        _interval(1000, 2000, {1: 1, 2: 0}, p_const + p_led0),
        _interval(2000, 3000, {1: 0, 2: 1}, p_const + p_led1),
        _interval(3000, 4000, {1: 1, 2: 1}, p_const + p_led0 + p_led1),
    ]


def test_recovers_known_draws():
    result = solve_breakdown(_blinky_intervals(), LAYOUT, QUANTUM, VOLTAGE)
    assert result.power_w["LED0"] == pytest.approx(0.0075, rel=0.01)
    assert result.power_w["LED1"] == pytest.approx(0.0067, rel=0.01)
    assert result.const_power_w == pytest.approx(0.0025, rel=0.02)
    assert result.relative_error < 0.01


def test_current_conversion():
    result = solve_breakdown(_blinky_intervals(), LAYOUT, QUANTUM, VOLTAGE)
    assert result.current_ma("LED0") == pytest.approx(2.5, rel=0.01)
    assert result.const_current_ma == pytest.approx(0.8333, rel=0.02)


def test_power_of_states_reconstruction():
    result = solve_breakdown(_blinky_intervals(), LAYOUT, QUANTUM, VOLTAGE)
    both_on = result.power_of_states([(1, 1), (2, 1)])
    assert both_on == pytest.approx(0.0075 + 0.0067 + 0.0025, rel=0.01)


def test_unobserved_column_dropped():
    layout = LAYOUT + [SinkColumn(3, 1, "Ghost")]
    result = solve_breakdown(_blinky_intervals(), layout, QUANTUM, VOLTAGE)
    assert "Ghost" not in result.power_w
    assert any(c.name == "Ghost" for c in result.dropped_columns)


def test_aliased_columns_detected():
    """Two sinks that always switch together cannot be separated — the
    paper's linear-independence limitation."""
    intervals = [
        _interval(0, 1000, {1: 0, 2: 0}, 0.002),
        _interval(1000, 2000, {1: 1, 2: 1}, 0.010),  # always co-active
    ]
    result = solve_breakdown(intervals, LAYOUT, QUANTUM, VOLTAGE)
    assert any({"LED0", "LED1"} <= set(group)
               for group in result.aliased_groups)


def test_no_intervals_rejected():
    with pytest.raises(RegressionError):
        solve_breakdown([], LAYOUT, QUANTUM, VOLTAGE)


def test_unknown_weighting_rejected():
    with pytest.raises(RegressionError):
        solve_breakdown(_blinky_intervals(), LAYOUT, QUANTUM, VOLTAGE,
                        weighting="vibes")


def test_group_intervals_merges_same_states():
    intervals = [
        _interval(0, 1000, {1: 1}, 0.01),
        _interval(1000, 2000, {1: 1}, 0.01),
        _interval(2000, 3000, {1: 0}, 0.002),
    ]
    vectors, times, energies = group_intervals(intervals, QUANTUM)
    assert len(vectors) == 2
    on_index = vectors.index((((1, 1)),))
    assert times[on_index] == ms(2000)


def test_multistate_sink_columns():
    layout = [
        SinkColumn(4, 3, "Radio.RX"),
        SinkColumn(4, 4, "Radio.TX"),
    ]
    intervals = [
        _interval(0, 1000, {4: 0}, 0.001),
        _interval(1000, 2000, {4: 3}, 0.001 + 0.0618),
        _interval(2000, 3000, {4: 4}, 0.001 + 0.0522),
    ]
    result = solve_breakdown(intervals, layout, QUANTUM, VOLTAGE)
    assert result.power_w["Radio.RX"] == pytest.approx(0.0618, rel=0.01)
    assert result.power_w["Radio.TX"] == pytest.approx(0.0522, rel=0.01)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(min_value=0.001, max_value=0.05),
             min_size=2, max_size=4),
    st.floats(min_value=0.0005, max_value=0.01),
)
def test_recovery_property(draws, const):
    """Property: with every singleton state observed long enough, the
    regression recovers arbitrary per-sink draws to within quantization."""
    layout = [SinkColumn(i + 1, 1, f"S{i}") for i in range(len(draws))]
    intervals = [_interval(0, 5000, {i + 1: 0 for i in range(len(draws))},
                           const)]
    t = 5000
    for i, draw in enumerate(draws):
        states = {j + 1: (1 if j == i else 0) for j in range(len(draws))}
        intervals.append(_interval(t, t + 5000, states, const + draw))
        t += 5000
    result = solve_breakdown(intervals, layout, QUANTUM, VOLTAGE)
    for i, draw in enumerate(draws):
        assert result.power_w[f"S{i}"] == pytest.approx(
            draw, rel=0.02, abs=2 * QUANTUM)
    assert result.const_power_w == pytest.approx(
        const, rel=0.05, abs=2 * QUANTUM)


def test_solve_from_currents_table2_shape():
    rows = [
        ((0, 0, 0), 0.74),
        ((1, 0, 0), 3.32),
        ((0, 1, 0), 3.05),
        ((1, 1, 0), 5.53),
        ((0, 0, 1), 1.62),
        ((1, 0, 1), 4.15),
        ((0, 1, 1), 3.88),
        ((1, 1, 1), 6.30),
    ]
    estimates, const, rel_error = solve_from_currents(
        rows, ("LED0", "LED1", "LED2"))
    # The paper's own Table 2 numbers, from its own measured Y column.
    assert estimates["LED0"] == pytest.approx(2.50, abs=0.02)
    assert estimates["LED1"] == pytest.approx(2.23, abs=0.02)
    assert estimates["LED2"] == pytest.approx(0.83, abs=0.02)
    assert const == pytest.approx(0.79, abs=0.02)
    assert rel_error == pytest.approx(0.0083, abs=0.002)


def test_solve_from_currents_empty_rejected():
    with pytest.raises(RegressionError):
        solve_from_currents([], ())
