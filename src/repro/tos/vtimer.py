"""Virtual timers multiplexed on one hardware compare unit (TimerB0).

TinyOS applications use many logical timers; the timer subsystem keeps
them in a deadline list and programs the single compare register for the
earliest one.  Quanto's instrumentation (paper §3.3, Table 5 "Timers"):

* each started timer **saves the CPU activity**; when it fires, its
  callback task **restores** that activity — so deferral through time
  keeps labels intact;
* the subsystem's own bookkeeping (scanning deadlines, re-arming the
  compare) runs under a dedicated **VTimer activity**, which is what shows
  up as ``1:VTimer`` in every figure of the paper;
* the hardware timer is a **multi-activity device**: it is concurrently
  "working for" every scheduled timer's activity, so started timers add
  their label to it and expired one-shots remove it (paper Figure 6's
  canonical example).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.activity import MultiActivityDevice, SingleActivityDevice
from repro.core.labels import ActivityLabel
from repro.errors import SimulationError
from repro.hw.hwtimer import CompareUnit
from repro.hw.mcu import Mcu
from repro.tos.interrupts import InterruptController
from repro.tos.scheduler import Scheduler

#: Bookkeeping cycles per dispatch: deadline scan, 32-bit deadline
#: arithmetic on a 16-bit MCU, compare re-arm.  Calibrated so Blink's
#: VTimer CPU share lands near the paper's Table 3(a).
DISPATCH_CYCLES = 560
#: Cycles per expired timer processed in one dispatch.
PER_TIMER_CYCLES = 90


class VirtualTimer:
    """One logical timer."""

    __slots__ = ("callback", "period_ns", "deadline_ns", "saved_activity",
                 "name", "fire_count")

    def __init__(self, callback: Callable[[], None], name: str):
        self.callback = callback
        self.period_ns = 0
        self.deadline_ns = 0
        self.saved_activity: Optional[ActivityLabel] = None
        self.name = name
        self.fire_count = 0


class VirtualTimerSystem:
    """The timer multiplexer."""

    def __init__(
        self,
        mcu: Mcu,
        scheduler: Scheduler,
        interrupts: InterruptController,
        compare: CompareUnit,
        cpu_activity: SingleActivityDevice,
        timer_device: MultiActivityDevice,
        vtimer_activity: ActivityLabel,
    ) -> None:
        self.mcu = mcu
        self.scheduler = scheduler
        self.compare = compare
        self.cpu_activity = cpu_activity
        self.timer_device = timer_device
        self.vtimer_activity = vtimer_activity
        self._timers: list[VirtualTimer] = []
        self.dispatches = 0
        trigger = interrupts.wire("int_TIMERB0", self._dispatch,
                                  body_cycles=70)
        compare.set_handler(trigger)

    # -- starting ----------------------------------------------------------------

    def start_periodic(
        self,
        callback: Callable[[], None],
        period_ns: int,
        name: str = "timer",
        activity: Optional[ActivityLabel] = None,
    ) -> VirtualTimer:
        """Start a periodic timer.  The current CPU activity (or the
        explicit ``activity``) is saved and restored around every firing."""
        return self._start(callback, period_ns, period_ns, name, activity)

    def start_oneshot(
        self,
        callback: Callable[[], None],
        delay_ns: int,
        name: str = "timer",
        activity: Optional[ActivityLabel] = None,
    ) -> VirtualTimer:
        """Start a one-shot timer."""
        return self._start(callback, delay_ns, 0, name, activity)

    def _start(
        self,
        callback: Callable[[], None],
        delay_ns: int,
        period_ns: int,
        name: str,
        activity: Optional[ActivityLabel],
    ) -> VirtualTimer:
        if delay_ns <= 0:
            raise SimulationError(f"timer delay must be positive: {delay_ns}")
        timer = VirtualTimer(callback, name)
        timer.period_ns = period_ns
        timer.deadline_ns = self.mcu.sim.now + delay_ns
        timer.saved_activity = (
            activity if activity is not None else self.cpu_activity.get()
        )
        self._timers.append(timer)
        # The hardware timer now also works on behalf of this activity.
        self.timer_device.add(timer.saved_activity)
        self._rearm()
        return timer

    # -- dispatch ------------------------------------------------------------

    def _rearm(self) -> None:
        # Single pass over the (small) timer list: find the earliest
        # deadline without materializing the pending list.  One
        # compare arm per wakeup keeps the engine's event count
        # O(wakeups), however fine the underlying timer granularity —
        # tests/test_vtimer.py pins that property on a Blink run.
        next_deadline = None
        for timer in self._timers:
            if next_deadline is None or timer.deadline_ns < next_deadline:
                next_deadline = timer.deadline_ns
        if next_deadline is None:
            self.compare.disarm()
            return
        now = self.mcu.sim.now
        self.compare.arm(next_deadline if next_deadline > now else now)

    def _dispatch(self) -> None:
        """The TimerB0 handler body (already under the int_TIMERB0 proxy):
        switch to the VTimer activity, fire expired timers as tasks, and
        re-arm the compare unit."""
        self.dispatches += 1
        self.cpu_activity.set(self.vtimer_activity)
        self.mcu.consume(DISPATCH_CYCLES)
        now = self.mcu.sim.now
        expired = [t for t in self._timers if t.deadline_ns <= now]
        for timer in expired:
            self.mcu.consume(PER_TIMER_CYCLES)
            timer.fire_count += 1
            if timer.period_ns > 0:
                timer.deadline_ns += timer.period_ns
            else:
                self._timers.remove(timer)
                self.timer_device.remove(timer.saved_activity)
            # The callback runs as a task that restores the timer's saved
            # activity — deferral keeps the label.
            self.scheduler.post_function(
                timer.callback,
                cycles=0,
                label=f"vtimer:{timer.name}",
                activity=timer.saved_activity,
            )
        self._rearm()

    def reset(self) -> None:
        """Warm-start reset: drop every logical timer and the dispatch
        tally.  The compare unit and its interrupt wiring survive (the
        unit itself is reset with its timer block)."""
        self._timers.clear()
        self.dispatches = 0
