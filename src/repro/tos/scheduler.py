"""The TinyOS task scheduler, instrumented for activity propagation.

TinyOS has a single stack and an event-driven execution model: the
schedulable unit is the *task* — posted from any context, run to
completion in FIFO order, never preempting another task (but preemptible
by interrupts).  Quanto's instrumentation (paper §3.3, Table 5 "Tasks"):
**save the current CPU activity when a task is posted, and restore it just
before the task runs**, so logical threads of computation keep their
labels across arbitrary multiplexing.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.activity import SingleActivityDevice
from repro.core.labels import ActivityLabel
from repro.hw.mcu import Mcu
from repro.tos.context import CpuContext

#: Cost of posting a task (queue insert).
POST_CYCLES = 6
#: Scheduler dispatch overhead per task.
DISPATCH_CYCLES = 10


class Scheduler:
    """Posts instrumented task jobs onto the MCU."""

    def __init__(
        self,
        mcu: Mcu,
        context: CpuContext,
        cpu_activity: SingleActivityDevice,
    ) -> None:
        self.mcu = mcu
        self.context = context
        self.cpu_activity = cpu_activity
        self.tasks_posted = 0
        self.tasks_run = 0

    def reset(self) -> None:
        """Warm-start reset: zero the tallies.  Queued jobs live in the
        MCU queues (reset separately)."""
        self.tasks_posted = 0
        self.tasks_run = 0

    def post_function(
        self,
        fn: Callable[[], None],
        cycles: int = 0,
        label: str = "task",
        activity: Optional[ActivityLabel] = None,
    ) -> None:
        """Post a function as a task.  The poster's activity is captured
        here; ``activity`` overrides it (the virtual timer system uses
        this to restore a timer's saved activity)."""
        saved = activity if activity is not None else self.cpu_activity.get()
        self.tasks_posted += 1
        if self.mcu._in_job:  # posting from CPU code costs cycles
            self.mcu.consume(POST_CYCLES)
        # No per-post closures: the wrapper, the task body, and its
        # captured state all travel as job args.
        self.mcu.post_task(
            self.context.run_wrapped, label=label,
            args=(self._task_body, fn, cycles, saved),
        )

    def _task_body(
        self,
        fn: Callable[[], None],
        cycles: int,
        saved: ActivityLabel,
    ) -> None:
        self.tasks_run += 1
        # Restore the activity saved at post time (the instrumentation
        # the paper added to the TinyOS scheduler).
        self.cpu_activity.set(saved)
        self.mcu.consume(DISPATCH_CYCLES + cycles)
        fn()
