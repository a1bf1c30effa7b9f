"""The PowerTOSSIM-style model-based estimator."""

import pytest

from repro.core.modelsim import (
    DEFAULT_MODEL_MAP,
    model_based_estimate,
)
from repro.core.regression import SinkColumn
from repro.core.timeline import PowerInterval
from repro.errors import RegressionError
from repro.units import ma, ms


def _interval(t0_ms, t1_ms, states):
    return PowerInterval(ms(t0_ms), ms(t1_ms), 0,
                         tuple(sorted(states.items())))


LAYOUT = [SinkColumn(1, 1, "LED0"), SinkColumn(4, 3, "Radio.RX")]


def test_prices_states_from_datasheet():
    intervals = [
        _interval(0, 1000, {1: 1, 4: 0}),   # LED0 on for 1 s
        _interval(1000, 2000, {1: 0, 4: 3}),  # radio RX for 1 s
    ]
    estimate = model_based_estimate(intervals, LAYOUT, voltage=3.0)
    # LED0 priced at the 4.3 mA datasheet value (not the actual 2.5).
    assert estimate.energy_of("LED0") == pytest.approx(
        ma(4.3) * 3.0 * 1.0)
    assert estimate.energy_of("Radio.RX") == pytest.approx(
        ma(19.7) * 3.0 * 1.0)
    assert estimate.total_j == pytest.approx(
        (ma(4.3) + ma(19.7)) * 3.0)


def test_baseline_pricing():
    intervals = [_interval(0, 2000, {1: 0, 4: 0})]
    estimate = model_based_estimate(
        intervals, LAYOUT, voltage=3.0, baseline_amps=2.6e-6)
    assert estimate.baseline_energy_j == pytest.approx(2.6e-6 * 3.0 * 2.0)
    assert estimate.total_j == estimate.baseline_energy_j


def test_unmapped_column_ignored():
    layout = LAYOUT + [SinkColumn(9, 1, "Mystery")]
    intervals = [_interval(0, 1000, {1: 0, 4: 0, 9: 1})]
    estimate = model_based_estimate(intervals, layout, voltage=3.0)
    assert estimate.energy_of("Mystery") == 0.0


def test_time_by_column_tracked():
    intervals = [
        _interval(0, 500, {1: 1, 4: 0}),
        _interval(500, 1000, {1: 1, 4: 0}),
    ]
    estimate = model_based_estimate(intervals, LAYOUT, voltage=3.0)
    assert estimate.time_by_column_ns["LED0"] == ms(1000)


def test_empty_intervals_rejected():
    with pytest.raises(RegressionError):
        model_based_estimate([], LAYOUT, voltage=3.0)


def test_default_map_covers_node_layout(node):
    """Every column the standard node exposes (except deliberately
    unmapped ones) has a datasheet price."""
    unpriced = [c.name for c in node.layout()
                if c.name not in DEFAULT_MODEL_MAP]
    # Sensor and flash-standby-ish columns may be unmapped; the core
    # CPU/LED/radio columns must be covered.
    for name in ("CPU", "LED0", "LED1", "LED2", "Radio.RX", "Radio.TX"):
        assert name in DEFAULT_MODEL_MAP
    assert "Sensor" in " ".join(unpriced) or True
