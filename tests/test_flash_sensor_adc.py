"""Flash and sensor hardware models."""

import pytest

from repro.errors import HardwareError
from repro.hw.catalog import default_actual_profile
from repro.hw.flash import (
    PAGE_PROGRAM_NS,
    WAKEUP_NS,
    ExternalFlash,
)
from repro.hw.power import PowerRail
from repro.hw.sensor import (
    MEASURE_HUMIDITY_NS,
    MEASURE_TEMPERATURE_NS,
    Sht11Sensor,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory


def _flash():
    sim = Simulator()
    rail = PowerRail(sim, voltage=3.0)
    flash = ExternalFlash(sim, rail, default_actual_profile())
    return sim, rail, flash


def test_flash_wake_then_program_then_ready():
    sim, rail, flash = _flash()
    log = []
    flash.set_ready_listener(lambda state, busy: log.append((sim.now, state)))
    done = []
    flash.wake(lambda: flash.program_page(3, b"data", lambda: done.append(
        sim.now)))
    sim.run()
    assert done == [WAKEUP_NS + PAGE_PROGRAM_NS]
    states = [state for _, state in log]
    assert states == ["STANDBY", "WRITE", "STANDBY"]


def test_flash_stores_and_reads_back():
    sim, rail, flash = _flash()
    payload = b"quanto!"
    result = []

    def read():
        flash.read_page(3, len(payload), result.append)

    flash.wake(lambda: flash.program_page(3, payload, read))
    sim.run()
    assert result == [payload]


def test_flash_erase_clears_page():
    sim, rail, flash = _flash()
    result = []

    def erase():
        flash.erase_page(3, read)

    def read():
        flash.read_page(3, 4, result.append)

    flash.wake(lambda: flash.program_page(3, b"data", erase))
    sim.run()
    assert result == [b"\xff\xff\xff\xff"]


def test_flash_busy_rejected():
    sim, rail, flash = _flash()
    flash.wake(lambda: None)
    with pytest.raises(HardwareError):
        flash.wake(lambda: None)


def test_flash_power_down_draw():
    sim, rail, flash = _flash()
    assert flash.state == "POWER_DOWN"
    # Default profile zeroes the power-down draw (folded into baseline).
    assert rail.current() == pytest.approx(0.0, abs=1e-9)


def test_flash_bad_page_rejected():
    sim, rail, flash = _flash()
    done = []
    flash.wake(lambda: done.append(sim.now))
    sim.run()
    with pytest.raises(HardwareError):
        flash.program_page(1 << 20, b"x", lambda: None)


# -- SHT11 ---------------------------------------------------------------


def _sensor():
    sim = Simulator()
    rail = PowerRail(sim, voltage=3.0)
    sensor = Sht11Sensor(sim, rail, rng=RngFactory(0).stream("sht"))
    return sim, rail, sensor


def test_sensor_measurement_timing():
    sim, rail, sensor = _sensor()
    got = []
    sensor.measure_humidity(lambda v: got.append((sim.now, v)))
    sim.run()
    assert got[0][0] == MEASURE_HUMIDITY_NS
    assert 0 <= got[0][1] <= 100
    sensor.measure_temperature(lambda v: got.append((sim.now, v)))
    sim.run()
    assert got[1][0] == MEASURE_HUMIDITY_NS + MEASURE_TEMPERATURE_NS


def test_sensor_busy_rejected():
    sim, rail, sensor = _sensor()
    sensor.measure_humidity(lambda v: None)
    with pytest.raises(HardwareError):
        sensor.measure_temperature(lambda v: None)


def test_sensor_draw_while_measuring():
    sim, rail, sensor = _sensor()
    sensor.measure_humidity(lambda v: None)
    assert rail.current() == pytest.approx(0.55e-3)
    sim.run()
    assert rail.current() == pytest.approx(0.3e-6)


def test_sensor_state_follows_measurement():
    sim, rail, sensor = _sensor()
    sensor.measure_humidity(lambda v: None)
    assert sensor.state == "MEASURING"
    sim.run()
    assert sensor.state == "IDLE"
