"""Blink: the TinyOS hello-world, instrumented as in paper Section 4.2.1.

Three independent periodic timers (1, 2, 4 s) toggle the red, green, and
blue LEDs, so over 8 seconds the node walks through all eight LED
combinations with the CPU asleep in between.  The instrumentation divides
the program into three application activities — Red, Green, Blue — each
painting its LED while on, plus the timer subsystem's VTimer activity and
the timer interrupt proxy.
"""

from __future__ import annotations

from repro.tos.node import QuantoNode
from repro.units import seconds

#: Cycles of real work per toggle (branching, pin math) besides logging.
TOGGLE_CYCLES = 22


class BlinkApp:
    """Red/Green/Blue blinking with per-activity attribution."""

    def __init__(self) -> None:
        self.periods = (seconds(1), seconds(2), seconds(4))
        self.names = ("Red", "Green", "Blue")
        self.node: QuantoNode | None = None
        self.toggles = [0, 0, 0]

    def start(self, node: QuantoNode) -> None:
        """Boot hook: register activities and start the three timers.
        Painting the CPU before each ``start_periodic`` makes the timer
        carry that activity to every firing (paper Figure 7's idiom)."""
        self.node = node
        for index, (name, period) in enumerate(zip(self.names, self.periods)):
            node.set_cpu_activity(name)
            node.vtimers.start_periodic(
                self._toggler(index), period, name=name.lower())
        node.cpu_activity.set(node.idle)

    def _toggler(self, index: int):
        def fire() -> None:
            self._toggle(index)

        return fire

    def _toggle(self, index: int) -> None:
        """Timer callback (task context, already restored to this LED's
        activity by the timer instrumentation)."""
        node = self.node
        assert node is not None
        node.set_cpu_activity(self.names[index])
        node.platform.mcu.consume(TOGGLE_CYCLES)
        self.toggles[index] += 1
        if node.leds.is_on(index):
            node.leds.led_off(index)
            node.leds.unpaint(index)
        else:
            node.leds.paint(index)
            node.leds.led_on(index)
