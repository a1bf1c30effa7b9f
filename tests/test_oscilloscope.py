"""The virtual oscilloscope."""

import pytest

from repro.hw.power import PowerRail
from repro.meter.oscilloscope import Oscilloscope, ScopeTrace
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.units import ma, ms, seconds, us


def _scoped_rail():
    sim = Simulator()
    rail = PowerRail(sim, voltage=3.0)
    sink = rail.register("load")
    scope = Oscilloscope(rail)
    return sim, rail, sink, scope


def test_trace_records_steps():
    sim, rail, sink, scope = _scoped_rail()
    sim.at(ms(1), sink.set_current, ma(5))
    sim.at(ms(2), sink.off)
    sim.run()
    assert list(zip(scope.trace.times_ns, scope.trace.amps)) == [
        (0, 0.0),
        (ms(1), pytest.approx(ma(5))),
        (ms(2), 0.0),
    ]


def test_mean_current_over_window():
    sim, rail, sink, scope = _scoped_rail()
    sim.at(ms(0), sink.set_current, ma(10))
    sim.at(ms(5), sink.set_current, ma(20))
    sim.at(ms(10), lambda: None)
    sim.run()
    # [0,10): half at 10, half at 20 -> 15 mA
    assert scope.trace.mean_current(0, ms(10)) == pytest.approx(ma(15))


def test_level_at_lookups():
    trace = ScopeTrace(times_ns=[0, 100, 200], amps=[0.0, 1.0, 2.0])
    assert trace.level_at(-1) == 0.0
    assert trace.level_at(0) == 0.0
    assert trace.level_at(150) == 1.0
    assert trace.level_at(500) == 2.0


def test_energy_from_trace():
    sim, rail, sink, scope = _scoped_rail()
    sink.set_current(ma(10))
    sim.at(seconds(1), lambda: None)
    sim.run()
    # 10 mA at 3 V for 1 s.
    energy = scope.trace.mean_current(0, seconds(1)) * 3.0 * 1.0
    assert energy == pytest.approx(0.030)


def test_empty_window_rejected():
    trace = ScopeTrace(times_ns=[0], amps=[1.0])
    with pytest.raises(ValueError):
        trace.mean_current(100, 100)


def test_sampling_without_ripple_is_flat():
    sim, rail, sink, scope = _scoped_rail()
    sink.set_current(ma(5))
    sim.at(ms(10), lambda: None)
    sim.run()
    times, values = scope.sample(ms(1), ms(2), us(100))
    assert len(times) == 10
    assert all(v == pytest.approx(ma(5)) for v in values)


def test_ripple_is_mean_preserving():
    sim, rail, sink, scope = _scoped_rail()
    sink.set_current(ma(5))
    sim.at(seconds(1), lambda: None)
    sim.run()
    _, values = scope.sample(0, seconds(1), us(50), ripple=True)
    mean = sum(values) / len(values)
    assert mean == pytest.approx(ma(5), rel=0.02)
    assert max(values) > ma(5) * 1.3
    assert min(values) < ma(5) * 0.7


def test_measurement_noise_applied():
    sim, rail, sink, scope = _scoped_rail()
    noisy = Oscilloscope(rail, noise_fraction=0.05,
                         rng=RngFactory(0).stream("scope"))
    sink.set_current(ma(10))
    sim.at(seconds(1), lambda: None)
    sim.run()
    readings = {noisy.measure_mean_current(0, seconds(1)) for _ in range(5)}
    assert len(readings) > 1  # noise varies
    for reading in readings:
        assert reading == pytest.approx(ma(10), rel=0.25)
