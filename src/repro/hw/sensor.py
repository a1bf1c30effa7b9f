"""SHT11-class humidity/temperature sensor model.

A split-phase device: the CPU issues a measurement command, the sensor
draws its measuring current for a fixed conversion time, then pulls the
data line low to signal completion (an interrupt on real hardware).  The
paper instrumented this driver (Table 5 lists SHT11 at 10 changed lines).

Conversion times follow the datasheet: ~55 ms for 12-bit humidity,
~210 ms for 14-bit temperature.  The measuring draw is 0.55 mA; idle is
0.3 uA (not in the paper's Table 1, which only covers the MCU-internal
sensor — the SHT11 is an external part).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import HardwareError
from repro.hw.power import PowerRail
from repro.sim.engine import Simulator
from repro.units import ma, ms, ua

MEASURE_HUMIDITY_NS = ms(55)
MEASURE_TEMPERATURE_NS = ms(210)

IDLE_AMPS = ua(0.3)
MEASURING_AMPS = ma(0.55)

STATE_IDLE = "IDLE"
STATE_MEASURING = "MEASURING"


class Sht11Sensor:
    """The sensor chip: one measurement in flight at a time."""

    def __init__(self, sim: Simulator, rail: PowerRail, rng=None):
        self.sim = sim
        self._sink = rail.register("SHT11")
        self._rng = rng
        self.state = STATE_IDLE
        self.measurements = 0
        self._sink.set_current(IDLE_AMPS)

    def reset(self) -> None:
        """Warm-start reset: idle, tally zeroed.  The rng stream is
        re-seeded by the factory that owns it."""
        self.state = STATE_IDLE
        self.measurements = 0
        self._sink.set_current(IDLE_AMPS)

    def _apply(self, state: str, amps: float) -> None:
        self.state = state
        self._sink.set_current(amps)

    def _measure(self, duration_ns: int, base: float, spread: float,
                 on_done: Callable[[float], None]) -> None:
        if self.state != STATE_IDLE:
            raise HardwareError("sensor is already measuring")
        self._apply(STATE_MEASURING, MEASURING_AMPS)
        self.measurements += 1

        def done() -> None:
            self._apply(STATE_IDLE, IDLE_AMPS)
            value = base
            if self._rng is not None:
                value += self._rng.gauss(0.0, spread)
            on_done(value)

        self.sim.after(duration_ns, done)

    def measure_humidity(self, on_done: Callable[[float], None]) -> None:
        """Start a humidity conversion; ``on_done(percent_rh)`` at the end."""
        self._measure(MEASURE_HUMIDITY_NS, 45.0, 2.0, on_done)

    def measure_temperature(self, on_done: Callable[[float], None]) -> None:
        """Start a temperature conversion; ``on_done(celsius)`` at the end."""
        self._measure(MEASURE_TEMPERATURE_NS, 21.5, 0.5, on_done)
