"""The clock subsystem, including the DCO-calibration energy leak.

The paper's second case study (Figure 15) found that TimerA1 fired 16 times
per second to recalibrate the digitally controlled oscillator against the
32 kHz crystal — even in applications that never use asynchronous serial —
because the calibration was unconditionally enabled.  We model that as a
clock-subsystem behaviour: when ``dco_calibration`` is on, TimerA compare
unit 1 is re-armed every 1/16 s and its handler burns a small number of
cycles, exactly the kind of invisible background draw Quanto exposes.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.hw.hwtimer import TimerBlock
from repro.sim.engine import Simulator
from repro.units import NS_PER_S

#: Calibration rate observed in the paper: 16 Hz.
DCO_CALIBRATION_HZ = 16

#: Cycles the calibration ISR burns per firing (compare, adjust, return).
DCO_CALIBRATION_CYCLES = 80


class ClockSystem:
    """Owns the DCO calibration loop on TimerA1."""

    def __init__(
        self,
        sim: Simulator,
        timer_a: TimerBlock,
        dco_calibration: bool = False,
    ) -> None:
        self.sim = sim
        self.timer_a = timer_a
        self.dco_calibration = dco_calibration
        self._period_ns = NS_PER_S // DCO_CALIBRATION_HZ
        self._isr: Optional[Callable[[], None]] = None
        self.calibration_count = 0

    def start(self, isr: Callable[[], None]) -> None:
        """Begin the calibration loop; ``isr`` is the interrupt-controller
        entry point for TimerA1 (it receives no arguments)."""
        self._isr = isr
        if self.dco_calibration:
            self.timer_a.unit(1).set_handler(self._fire)
            self.timer_a.unit(1).arm(self.sim.now + self._period_ns)

    def _fire(self) -> None:
        self.calibration_count += 1
        if self._isr is not None:
            self._isr()
        self.timer_a.unit(1).arm(self.sim.now + self._period_ns)

    def reset(self, dco_calibration: Optional[bool] = None) -> None:
        """Warm-start reset: zero the tally and, when calibration is
        configured on, re-arm the loop exactly as :meth:`start` did at
        construction (the ISR wiring survives the reset)."""
        if dco_calibration is not None:
            self.dco_calibration = dco_calibration
        self.calibration_count = 0
        if self.dco_calibration and self._isr is not None:
            self.timer_a.unit(1).set_handler(self._fire)
            self.timer_a.unit(1).arm(self.sim.now + self._period_ns)
