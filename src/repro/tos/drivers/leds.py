"""The LED driver (paper Figure 2): the simplest instrumented driver.

Each LED has a binary power-state variable, set immediately before the
pin flips — exactly the paper's example.  ``paint`` copies the CPU's
current activity onto an LED's activity device (the pattern of the
Blink application: "each LED, when on, gets labeled with the respective
activity by the CPU").
"""

from __future__ import annotations

from repro.core.activity import SingleActivityDevice
from repro.core.labels import ActivityLabel
from repro.core.powerstate import PowerStateVar
from repro.hw.leds import LedBank
from repro.hw.mcu import Mcu

#: Cycles to flip a GPIO pin.
PIN_CYCLES = 3


class LedsDriver:
    """Instrumented access to the three LEDs."""

    def __init__(
        self,
        mcu: Mcu,
        bank: LedBank,
        powerstates: list[PowerStateVar],
        activities: list[SingleActivityDevice],
        cpu_activity: SingleActivityDevice,
        idle_label: ActivityLabel,
    ) -> None:
        if len(powerstates) != 3 or len(activities) != 3:
            raise ValueError("need exactly three LED powerstates/activities")
        self.mcu = mcu
        self.bank = bank
        self.powerstates = powerstates
        self.activities = activities
        self.cpu_activity = cpu_activity
        self.idle_label = idle_label

    def led_on(self, index: int) -> None:
        """Turn an LED on, signalling the power state first (Figure 2)."""
        self.powerstates[index].set(1)
        self.mcu.consume(PIN_CYCLES)
        self.bank.led(index).on()

    def led_off(self, index: int) -> None:
        self.powerstates[index].set(0)
        self.mcu.consume(PIN_CYCLES)
        self.bank.led(index).off()

    def paint(self, index: int) -> None:
        """Paint an LED's activity device with the CPU's current activity
        (how applications color LED usage)."""
        self.activities[index].set(self.cpu_activity.get())

    def unpaint(self, index: int) -> None:
        """Return an LED's activity to idle."""
        self.activities[index].set(self.idle_label)

    def is_on(self, index: int) -> bool:
        return self.bank.led(index).is_on
