"""Ground-truth power integration: the PowerRail."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PowerModelError
from repro.hw.power import PowerRail
from repro.sim.engine import Simulator
from repro.units import ma, ms, seconds


def test_energy_of_constant_draw():
    sim = Simulator()
    rail = PowerRail(sim, voltage=3.0)
    sink = rail.register("led")
    sink.set_current(ma(10))
    sim.at(seconds(2), lambda: None)
    sim.run()
    # 3 V * 10 mA * 2 s = 60 mJ
    assert rail.energy() == pytest.approx(0.060)


def test_energy_piecewise():
    sim = Simulator()
    rail = PowerRail(sim, voltage=3.0)
    sink = rail.register("led")
    sim.at(0, sink.set_current, ma(10))
    sim.at(seconds(1), sink.set_current, ma(20))
    sim.at(seconds(2), sink.off)
    sim.at(seconds(3), lambda: None)
    sim.run()
    # 30 mW * 1 s + 60 mW * 1 s + 0
    assert rail.energy() == pytest.approx(0.090)


def test_per_sink_energy_tracked():
    sim = Simulator()
    rail = PowerRail(sim, voltage=3.0)
    a = rail.register("a")
    b = rail.register("b")
    a.set_current(ma(1))
    b.set_current(ma(2))
    sim.at(seconds(1), lambda: None)
    sim.run()
    assert rail.sink_energy("a") == pytest.approx(0.003)
    assert rail.sink_energy("b") == pytest.approx(0.006)
    assert rail.energy() == pytest.approx(0.009)


def test_duplicate_sink_rejected():
    rail = PowerRail(Simulator())
    rail.register("x")
    with pytest.raises(PowerModelError):
        rail.register("x")


def test_unknown_sink_lookup():
    rail = PowerRail(Simulator())
    with pytest.raises(PowerModelError):
        rail.sink_energy("nope")


def test_negative_current_rejected():
    rail = PowerRail(Simulator())
    sink = rail.register("x")
    with pytest.raises(PowerModelError):
        sink.set_current(-1.0)


def test_bad_voltage_rejected():
    with pytest.raises(PowerModelError):
        PowerRail(Simulator(), voltage=0.0)


def test_observer_sees_steps():
    sim = Simulator()
    rail = PowerRail(sim, voltage=3.0)
    sink = rail.register("x")
    steps = []
    rail.add_observer(lambda t, amps: steps.append((t, amps)))
    sim.at(ms(1), sink.set_current, ma(5))
    sim.at(ms(2), sink.off)
    sim.run()
    assert steps == [(ms(1), pytest.approx(ma(5))), (ms(2), 0.0)]


def test_idempotent_set_does_not_notify():
    sim = Simulator()
    rail = PowerRail(sim, voltage=3.0)
    sink = rail.register("x")
    steps = []
    rail.add_observer(lambda t, amps: steps.append(amps))
    sink.set_current(ma(5))
    sink.set_current(ma(5))
    assert len(steps) == 1


def test_current_and_power_queries():
    sim = Simulator()
    rail = PowerRail(sim, voltage=3.0)
    a = rail.register("a")
    b = rail.register("b")
    a.set_current(ma(1))
    b.set_current(ma(2))
    assert rail.current() == pytest.approx(ma(3))
    # 9 mW drawn for one second.
    sim.at(seconds(1), lambda: None)
    sim.run()
    assert rail.energy() == pytest.approx(0.009)


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(st.integers(min_value=1, max_value=1000),   # dt (ms)
              st.floats(min_value=0.0, max_value=0.1)),   # amps
    min_size=1, max_size=20,
))
def test_energy_matches_manual_integration(schedule):
    """Property: the rail's integral equals the hand-computed sum over an
    arbitrary piecewise-constant schedule."""
    sim = Simulator()
    rail = PowerRail(sim, voltage=3.0)
    sink = rail.register("x")
    t = 0
    expected = 0.0
    current = 0.0
    for dt_ms, amps in schedule:
        expected += 3.0 * current * dt_ms * 1e-3
        t += ms(dt_ms)
        sim.at(t, sink.set_current, amps)
        current = amps
    sim.run()
    assert rail.energy() == pytest.approx(expected, rel=1e-9, abs=1e-12)
