"""Hardware timer blocks (MSP430 TimerA / TimerB).

Each block owns several *compare units*; arming a compare unit schedules an
interrupt callback at an absolute simulation time.  The TinyOS-like virtual
timer system multiplexes all its software timers onto one compare unit
(TimerB0 on this platform), and the radio uses another for SFD capture
(TimerB1) — matching the interrupt names that appear in the paper's
figures (``int_TIMERB0``, ``int_TIMERB1``, ``int_TIMERA1``).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import HardwareError
from repro.sim.engine import Event, Simulator


class CompareUnit:
    """One compare register: fires a callback at an absolute time."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self._event: Optional[Event] = None
        self._handler: Optional[Callable[[], None]] = None
        self.fire_count = 0

    def set_handler(self, fn: Callable[[], None]) -> None:
        """Install the interrupt handler (the interrupt controller hook)."""
        self._handler = fn

    def arm(self, at_ns: int) -> None:
        """Arm the compare for an absolute time, replacing any prior arm."""
        if self._handler is None:
            raise HardwareError(f"{self.name}: arm() before set_handler()")
        if at_ns < self.sim.now:
            raise HardwareError(
                f"{self.name}: compare time {at_ns} is in the past "
                f"(now={self.sim.now})"
            )
        self.disarm()
        self._event = self.sim.at(at_ns, self._fire)

    def disarm(self) -> None:
        """Cancel a pending compare, if any."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def reset(self) -> None:
        """Warm-start reset: forget the pending arm (the simulator reset
        already detached the event) and the fire tally.  The installed
        handler is construction wiring and survives."""
        self._event = None
        self.fire_count = 0

    def _fire(self) -> None:
        self._event = None
        self.fire_count += 1
        assert self._handler is not None
        self._handler()


class TimerBlock:
    """A named timer block with N compare units (TimerA has 3, TimerB 7)."""

    def __init__(self, sim: Simulator, name: str, units: int):
        self.sim = sim
        self.name = name
        self.units = tuple(
            CompareUnit(sim, f"{name}{i}") for i in range(units)
        )

    def unit(self, index: int) -> CompareUnit:
        try:
            return self.units[index]
        except IndexError:
            raise HardwareError(
                f"{self.name} has no compare unit {index}"
            ) from None

    def reset(self) -> None:
        """Warm-start reset of every compare unit in the block."""
        for unit in self.units:
            unit.reset()
