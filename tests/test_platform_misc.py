"""Platform assembly."""

import pytest

from repro.hw.catalog import default_actual_profile
from repro.hw.platform import HydrowatchPlatform, PlatformConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.units import seconds, ua


def test_platform_registers_all_sinks():
    sim = Simulator()
    platform = HydrowatchPlatform(sim, 1)
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
    platform = HydrowatchPlatform(sim, 1)
    # At rest: the baseline floor plus the SHT11's 0.3 uA idle leak (the
    # CPU sleep and radio-off draws are zeroed into the baseline).
    assert platform.rail.current() == pytest.approx(
        platform.profile.baseline_amps + ua(0.3), rel=1e-6)


def test_platform_custom_voltage_flows_to_rail():
    sim = Simulator()
    platform = HydrowatchPlatform(sim, 1, PlatformConfig(voltage=3.35))
    assert platform.rail.voltage == 3.35


def test_platform_variation_changes_profile_deterministically():
    sim1 = Simulator()
    p1 = HydrowatchPlatform(
        sim1, 9, PlatformConfig(device_variation=0.05),
        RngFactory(1))
    sim2 = Simulator()
    p2 = HydrowatchPlatform(
        sim2, 9, PlatformConfig(device_variation=0.05),
        RngFactory(1))
    led1 = p1.profile.current("LED0", "ON")
    assert led1 == p2.profile.current("LED0", "ON")
    assert led1 != default_actual_profile().current("LED0", "ON")


def test_platform_icount_reads():
    sim = Simulator()
    platform = HydrowatchPlatform(sim, 1)
    sim.at(seconds(10), lambda: None)
    sim.run()
    # Baseline 0.82 mA at 3 V for 10 s = 24.6 mJ ~ 2953 pulses.
    assert platform.icount.read() == pytest.approx(2953, abs=3)
