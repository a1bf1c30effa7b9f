"""The timer-leak application (paper Figure 15).

A simple two-activity app — ActA toggles LED0, ActB toggles LED2 on their
own periodic timers.  Run it on a node configured with
``dco_calibration=True`` and Quanto's trace shows ``int_TIMERA1`` firing
16 times per second for oscillator calibration nobody asked for: the
surprise that "the lack of visibility into the system made ... go
unnoticed".
"""

from __future__ import annotations

from repro.tos.node import QuantoNode
from repro.units import ms

TOGGLE_CYCLES = 18

#: The two activities' toggle periods.
PERIOD_A_NS = ms(250)
PERIOD_B_NS = ms(400)


class TimerLeakApp:
    """Two LED activities on a node with the DCO-calibration leak."""

    def __init__(self) -> None:
        self.node: QuantoNode | None = None

    def start(self, node: QuantoNode) -> None:
        self.node = node
        node.set_cpu_activity("ActA")
        node.vtimers.start_periodic(self._fire_a, PERIOD_A_NS, name="a")
        node.set_cpu_activity("ActB")
        node.vtimers.start_periodic(self._fire_b, PERIOD_B_NS, name="b")
        node.cpu_activity.set(node.idle)

    def _fire_a(self) -> None:
        node = self.node
        assert node is not None
        node.set_cpu_activity("ActA")
        node.platform.mcu.consume(TOGGLE_CYCLES)
        if node.leds.is_on(0):
            node.leds.led_off(0)
            node.leds.unpaint(0)
        else:
            node.leds.paint(0)
            node.leds.led_on(0)

    def _fire_b(self) -> None:
        node = self.node
        assert node is not None
        node.set_cpu_activity("ActB")
        node.platform.mcu.consume(TOGGLE_CYCLES)
        if node.leds.is_on(2):
            node.leds.led_off(2)
            node.leds.unpaint(2)
        else:
            node.leds.paint(2)
            node.leds.led_on(2)

    def calibration_interrupts(self) -> int:
        """How often the leak fired (the Figure 15 evidence)."""
        assert self.node is not None
        return self.node.interrupts.count("int_TIMERA1")
