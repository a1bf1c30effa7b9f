"""The iCount meter model."""

import pytest

from repro.hw.power import PowerRail
from repro.meter.icount import DEFAULT_ENERGY_PER_PULSE_J, ICountMeter
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.units import ma, ms, seconds


def _rail_with_load(amps=ma(10), voltage=3.0):
    sim = Simulator()
    rail = PowerRail(sim, voltage=voltage)
    sink = rail.register("load")
    sink.set_current(amps)
    return sim, rail


def test_pulse_count_quantizes_energy():
    sim, rail = _rail_with_load()
    meter = ICountMeter(rail)
    sim.at(seconds(1), lambda: None)
    sim.run()
    # 30 mW * 1 s = 30 mJ -> 30e-3 / 8.33e-6 = 3601.4 -> 3601 pulses
    assert meter.read() == int(0.030 / DEFAULT_ENERGY_PER_PULSE_J)


def test_counter_is_monotone():
    sim, rail = _rail_with_load()
    meter = ICountMeter(rail)
    last = 0
    for k in range(1, 20):
        sim.at(ms(k * 10), lambda: None)
        sim.run(until=ms(k * 10))
        value = meter.read()
        assert value >= last
        last = value


def test_extrapolated_read_uses_current_power():
    sim, rail = _rail_with_load(amps=ma(100))  # 300 mW
    meter = ICountMeter(rail)
    sim.at(seconds(1), lambda: None)
    sim.run()
    now_pulses = meter.read()
    ahead = meter.read(at_ns=sim.now + ms(100))
    # 300 mW * 0.1 s = 30 mJ ~= 3601 more pulses
    assert ahead - now_pulses == pytest.approx(3601, abs=2)


def test_extrapolation_ignores_past_times():
    sim, rail = _rail_with_load()
    meter = ICountMeter(rail)
    sim.at(seconds(1), lambda: None)
    sim.run()
    assert meter.read(at_ns=sim.now - ms(100)) == meter.read()


def test_gain_error_scales_the_count():
    sim, rail = _rail_with_load()
    clean = ICountMeter(rail)
    low = ICountMeter(rail, gain_error=0.15)
    sim.at(seconds(10), lambda: None)
    sim.run()
    ratio = low.read() / clean.read()
    assert ratio == pytest.approx(1 / 1.15, rel=1e-3)


def test_jitter_never_goes_backwards():
    sim, rail = _rail_with_load()
    meter = ICountMeter(rail, jitter_pulses=3.0,
                        rng=RngFactory(0).stream("icount"))
    last = 0
    for k in range(1, 200):
        sim.at(ms(k), lambda: None)
        sim.run(until=ms(k))
        value = meter.read()
        assert value >= last
        last = value


def test_frequency_matches_paper_fit():
    sim, rail = _rail_with_load()
    meter = ICountMeter(rail)
    # I = 2.77 f - 0.05 -> at 2.77 mA, f = ~1.018 kHz
    freq = meter.frequency_for_current(ma(2.77))
    assert freq == pytest.approx((2.77 + 0.05) / 2.77 * 1e3, rel=1e-6)
    assert meter.frequency_for_current(0.0) >= 0.0
