"""LED bank: three GPIO-driven LEDs (red, green, blue).

The hardware side is trivial — each LED is a sink that draws its actual
profile current while the pin is low (LEDs on this platform are active-low,
as the paper's Figure 2 comments note).  The instrumented driver signals
the power state itself, just before it flips the pin.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import HardwareError
from repro.hw.catalog import ActualDrawProfile
from repro.hw.power import PowerRail

LED_NAMES = ("LED0", "LED1", "LED2")
LED_COLORS = {"LED0": "red", "LED1": "green", "LED2": "blue"}


class Led:
    """A single LED: on/off with ground-truth current bookkeeping."""

    def __init__(self, rail: PowerRail, profile: ActualDrawProfile, name: str):
        if name not in LED_NAMES:
            raise HardwareError(f"unknown LED {name!r}")
        self.name = name
        self.color = LED_COLORS[name]
        self._sink = rail.register(name)
        self._on_amps = profile.current(name, "ON")
        self._is_on = False
        self.toggle_count = 0

    @property
    def is_on(self) -> bool:
        return self._is_on

    def on(self) -> None:
        if self._is_on:
            return
        self._is_on = True
        self.toggle_count += 1
        self._sink.set_current(self._on_amps)

    def off(self) -> None:
        if not self._is_on:
            return
        self._is_on = False
        self.toggle_count += 1
        self._sink.off()

    def reset(self, profile: Optional[ActualDrawProfile] = None) -> None:
        """Warm-start reset: off, tally zeroed, the on-draw re-derived
        for the (possibly re-varied) profile."""
        if profile is not None:
            self._on_amps = profile.current(self.name, "ON")
        self._is_on = False
        self.toggle_count = 0


class LedBank:
    """The platform's three LEDs."""

    def __init__(self, rail: PowerRail, profile: ActualDrawProfile):
        self.leds = tuple(Led(rail, profile, name) for name in LED_NAMES)

    def led(self, index: int) -> Led:
        try:
            return self.leds[index]
        except IndexError:
            raise HardwareError(f"no LED {index}") from None

    def reset(self, profile: Optional[ActualDrawProfile] = None) -> None:
        """Warm-start reset of all three LEDs."""
        for led in self.leds:
            led.reset(profile)
