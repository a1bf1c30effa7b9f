"""Platform assembly and the remaining MCU-internal blocks."""

import pytest

from repro.errors import HardwareError
from repro.hw.catalog import default_actual_profile
from repro.hw.misc import (
    AnalogComparator,
    InternalFlash,
    InternalTempSensor,
    SupplySupervisor,
)
from repro.hw.platform import HydrowatchPlatform, PlatformConfig
from repro.hw.power import PowerRail
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.units import ms, seconds, ua


def test_platform_registers_all_sinks():
    sim = Simulator()
    platform = HydrowatchPlatform(sim)
    names = set(platform.rail._sinks)
    expected = {
        "Baseline", "CPU", "LED0", "LED1", "LED2", "RadioRegulator",
        "RadioControlPath", "RadioRxPath", "RadioTxPath", "ExternalFlash",
        "SHT11", "VoltageReference", "ADC", "DAC", "InternalFlash",
        "TemperatureSensor", "AnalogComparator", "SupplySupervisor",
    }
    assert expected <= names


def test_platform_baseline_floor():
    sim = Simulator()
    platform = HydrowatchPlatform(sim)
    # At rest: the baseline floor plus the SHT11's 0.3 uA idle leak (the
    # CPU sleep and radio-off draws are zeroed into the baseline).
    assert platform.rail.current() == pytest.approx(
        platform.profile.baseline_amps + ua(0.3), rel=1e-6)


def test_platform_custom_voltage_flows_to_rail():
    sim = Simulator()
    platform = HydrowatchPlatform(sim, PlatformConfig(voltage=3.35))
    assert platform.rail.voltage == 3.35


def test_platform_variation_changes_profile_deterministically():
    sim1 = Simulator()
    p1 = HydrowatchPlatform(
        sim1, PlatformConfig(node_id=9, device_variation=0.05),
        RngFactory(1))
    sim2 = Simulator()
    p2 = HydrowatchPlatform(
        sim2, PlatformConfig(node_id=9, device_variation=0.05),
        RngFactory(1))
    led1 = p1.profile.current("LED0", "ON")
    assert led1 == p2.profile.current("LED0", "ON")
    assert led1 != default_actual_profile().current("LED0", "ON")


def test_platform_icount_reads():
    sim = Simulator()
    platform = HydrowatchPlatform(sim)
    sim.at(seconds(10), lambda: None)
    sim.run()
    # Baseline 0.82 mA at 3 V for 10 s = 24.6 mJ ~ 2953 pulses.
    assert platform.icount.read() == pytest.approx(2953, abs=3)


# -- the misc MCU blocks -----------------------------------------------------


def _rail():
    sim = Simulator()
    rail = PowerRail(sim, voltage=3.0)
    return sim, rail


def test_internal_flash_program_words():
    sim, rail = _rail()
    flash = InternalFlash(sim, rail, default_actual_profile())
    states = []
    flash.set_listener(states.append)
    done = []
    flash.program_words(10, lambda: done.append(sim.now))
    assert rail.current() == pytest.approx(3e-3)
    sim.run()
    assert done == [10 * 75_000]  # 75 us per word
    assert states == ["PROGRAM", "IDLE"]
    assert rail.current() == 0.0


def test_internal_flash_erase_segment():
    sim, rail = _rail()
    flash = InternalFlash(sim, rail, default_actual_profile())
    done = []
    flash.erase_segment(lambda: done.append(sim.now))
    sim.run()
    assert done == [ms(17)]


def test_internal_flash_busy_and_validation():
    sim, rail = _rail()
    flash = InternalFlash(sim, rail, default_actual_profile())
    flash.program_words(5, lambda: None)
    with pytest.raises(HardwareError):
        flash.erase_segment(lambda: None)
    sim.run()
    with pytest.raises(HardwareError):
        flash.program_words(0, lambda: None)


def test_internal_temp_sensor_draw():
    sim, rail = _rail()
    sensor = InternalTempSensor(rail, default_actual_profile())
    sensor.start_sample()
    assert rail.current() == pytest.approx(ua(60))
    sensor.stop_sample()
    assert rail.current() == 0.0


def test_comparator_draw():
    sim, rail = _rail()
    comparator = AnalogComparator(rail, default_actual_profile())
    comparator.enable()
    assert rail.current() == pytest.approx(ua(45))
    comparator.disable()
    assert rail.current() == 0.0


def test_supply_supervisor_default_on():
    sim, rail = _rail()
    svs = SupplySupervisor(rail, default_actual_profile(), enabled=True)
    assert rail.current() == pytest.approx(ua(15))
    svs.disable()
    assert rail.current() == 0.0
    svs.enable()
    assert svs.enabled
