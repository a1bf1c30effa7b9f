"""The HydroWatch platform: one node's worth of hardware, assembled.

A :class:`HydrowatchPlatform` owns the power rail, the MCU, both timer
blocks, the clock system, the LED bank, the SPI bus, the radio, the
external flash, the SHT11 sensor, and the iCount meter.  The MCU-internal
blocks of Table 1 that no workload drives (the ADC, DAC, voltage
reference, internal flash, temperature sensor, comparator and supply
supervisor) are sinks on the rail that never draw.  The OS layer
(:mod:`repro.tos`) builds on exactly this surface; nothing in the
platform knows about Quanto.

``PlatformConfig`` centralizes every knob the experiments turn: supply
voltage, actual-draw profile, device variation, meter error, scope noise,
the DCO-calibration leak, and the SPI transfer mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hw.catalog import ActualDrawProfile, default_actual_profile
from repro.hw.clock import ClockSystem
from repro.hw.flash import ExternalFlash
from repro.hw.hwtimer import TimerBlock
from repro.hw.leds import LedBank
from repro.hw.mcu import Mcu
from repro.hw.power import PowerRail
from repro.hw.radio import Radio
from repro.hw.sensor import Sht11Sensor
from repro.hw.spi import SpiBus
from repro.meter.icount import ICountMeter
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory


#: The MCU-internal Table 1 sinks that stay at zero draw (the supply
#: supervisor's is folded into the baseline), in registration order.
IDLE_MCU_SINKS = ("VoltageReference", "ADC", "DAC", "InternalFlash",
                  "TemperatureSensor", "AnalogComparator", "SupplySupervisor")


@dataclass
class PlatformConfig:
    """Per-node hardware configuration."""

    voltage: float = 3.0
    profile: Optional[ActualDrawProfile] = None
    sleep_state: str = "LPM3"
    dco_calibration: bool = False
    spi_mode: str = "irq"  # 'irq' or 'dma'
    icount_gain_error: float = 0.0
    icount_jitter_pulses: float = 0.0
    device_variation: float = 0.0

    def resolved_profile(self, rng_factory: RngFactory,
                         node_id: int) -> ActualDrawProfile:
        profile = self.profile if self.profile is not None else default_actual_profile()
        if self.device_variation:
            profile = ActualDrawProfile(
                draws=dict(profile.draws),
                baseline_amps=profile.baseline_amps,
                variation=self.device_variation,
            )
            profile = profile.with_variation(
                rng_factory.stream(f"node{node_id}.variation")
            )
        return profile


class HydrowatchPlatform:
    """All the hardware of one node, wired to a shared simulator."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        config: Optional[PlatformConfig] = None,
        rng_factory: Optional[RngFactory] = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.config = config or PlatformConfig()
        self.rng = rng_factory or RngFactory(0)
        self.profile = self.config.resolved_profile(self.rng, node_id)

        self.rail = PowerRail(sim, voltage=self.config.voltage)
        # The always-on floor (regulator quiescent draw, sleep leakage,
        # supervisor): the regressions report this as the "Const." column.
        self._baseline = self.rail.register("Baseline")
        self._baseline.set_current(self.profile.baseline_amps)

        self.mcu = Mcu(
            sim, self.rail, self.profile, sleep_state=self.config.sleep_state
        )
        self.timer_a = TimerBlock(sim, "TIMERA", 3)
        self.timer_b = TimerBlock(sim, "TIMERB", 7)
        self.clock = ClockSystem(
            sim, self.timer_a, dco_calibration=self.config.dco_calibration
        )
        self.leds = LedBank(self.rail, self.profile)
        self.spi = SpiBus(sim)
        self.radio = Radio(sim, self.rail, self.profile, node_id)
        self.flash = ExternalFlash(sim, self.rail, self.profile)
        self.sensor = Sht11Sensor(
            sim, self.rail, rng=self.rng.stream(f"node{node_id}.sht11")
        )
        for name in IDLE_MCU_SINKS:
            self.rail.register(name)
        self.icount = ICountMeter(
            self.rail,
            gain_error=self.config.icount_gain_error,
            jitter_pulses=self.config.icount_jitter_pulses,
            rng=self.rng.stream(f"node{node_id}.icount"),
        )

    # -- warm-start reset -------------------------------------------------

    def reset(self) -> None:
        """Return every hardware block to its post-construction state.

        Part of the warm-start protocol.  The caller has already re-keyed
        ``self.rng`` (:meth:`RngFactory.reseed`) and reset the simulator;
        this re-resolves the per-device draw variation for the new seed —
        consuming the variation stream exactly as construction would —
        and pushes the fresh profile into every block that caches draws,
        then re-applies the initial currents onto the zeroed rail.
        """
        self.profile = self.config.resolved_profile(self.rng, self.node_id)
        profile = self.profile
        self.rail.reset()
        self._baseline.set_current(profile.baseline_amps)
        self.mcu.reset(profile)
        self.timer_a.reset()
        self.timer_b.reset()
        self.clock.reset()
        self.leds.reset(profile)
        self.spi.reset()
        self.radio.reset(profile)
        self.flash.reset(profile)
        self.sensor.reset()
        self.icount.reset()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<HydrowatchPlatform node={self.node_id}>"
