"""MSP430F1611-class microcontroller model.

The MCU executes *jobs*: run-to-completion blocks of code with declared
cycle costs.  A job's Python callback runs at the instant the job starts;
cycle costs are declared by calling :meth:`Mcu.consume` (e.g. the Quanto
logger charges 102 cycles per record), and the job occupies the CPU for the
total declared cycles at 1 cycle/us (1 MHz clock).  Jobs queued while the
CPU is busy start when the current job's cycles elapse; interrupt jobs
queue ahead of task jobs, which models TinyOS's "async preempts tasks"
semantics with a latency of at most the current job's remaining cycles.

Power: the CPU sink draws its ACTIVE current while any job is running and
its sleep-state current otherwise.  The Quanto instrumentation exposes the
CPU power state from the OS side (:mod:`repro.tos.context`), never by
reading this ground truth.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.errors import HardwareError
from repro.hw.catalog import ActualDrawProfile
from repro.hw.power import PowerRail
from repro.sim.engine import Simulator

#: CPU sleep modes, shallowest to deepest (Table 1).
SLEEP_STATES = ("LPM0", "LPM1", "LPM2", "LPM3", "LPM4")

#: One cycle at the 1 MHz clock.
CYCLE_NS = 1000


class CpuJob:
    """One run-to-completion block: a callback whose cycle cost it
    declares with :meth:`Mcu.consume` as it runs.

    ``args`` are passed to ``fn`` when the job runs — callers that would
    otherwise build a closure per post (the scheduler and interrupt
    layers post thousands of jobs per run) pass the target and its
    arguments instead.
    """

    __slots__ = ("fn", "args", "label", "irq")

    def __init__(self, fn: Callable[..., None], label: str, irq: bool,
                 args: tuple = ()):
        self.fn = fn
        self.args = args
        self.label = label
        self.irq = irq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "irq" if self.irq else "task"
        return f"<CpuJob {kind} {self.label!r}>"


class Mcu:
    """The CPU: job queues, cycle accounting, and power-state transitions."""

    def __init__(
        self,
        sim: Simulator,
        rail: PowerRail,
        profile: ActualDrawProfile,
        sleep_state: str = "LPM3",
    ) -> None:
        if sleep_state not in SLEEP_STATES:
            raise HardwareError(f"unknown sleep state {sleep_state!r}")
        self.sim = sim
        self.profile = profile
        self.sleep_state = sleep_state
        # The CPU toggles ACTIVE/sleep on every wakeup; look the two
        # draws up once instead of hitting the catalog per transition.
        self._active_amps = profile.current("CPU", "ACTIVE")
        self._sleep_amps = profile.current("CPU", sleep_state)
        self._sink = rail.register("CPU")
        self._irq_jobs: deque[CpuJob] = deque()
        self._task_jobs: deque[CpuJob] = deque()
        self._active = False
        self._in_job = False
        self._pending_cycles = 0
        self._job_start_ns = 0
        # Statistics for Table 4 / cost accounting.
        self.total_active_cycles = 0
        self.jobs_executed = 0
        self._apply_sleep_current()

    # -- warm-start reset ------------------------------------------------

    def reset(self, profile: Optional[ActualDrawProfile] = None) -> None:
        """Return to the post-construction state (idle, queues empty,
        counters zero), optionally against a new draw profile.

        Part of the warm-start protocol: a re-seeded run re-resolves the
        per-device variation, so the cached ACTIVE/sleep draws must be
        re-derived, not just re-applied.  The caller resets the rail
        first; this re-applies the sleep current on the zeroed sink.
        """
        if profile is not None:
            self.profile = profile
            self._active_amps = profile.current("CPU", "ACTIVE")
            self._sleep_amps = profile.current("CPU", self.sleep_state)
        self._irq_jobs.clear()
        self._task_jobs.clear()
        self._active = False
        self._in_job = False
        self._pending_cycles = 0
        self._job_start_ns = 0
        self.total_active_cycles = 0
        self.jobs_executed = 0
        self._apply_sleep_current()

    # -- power-state plumbing -------------------------------------------

    def _apply_active_current(self) -> None:
        self._sink.set_current(self._active_amps)

    def _apply_sleep_current(self) -> None:
        self._sink.set_current(self._sleep_amps)

    # -- job submission ----------------------------------------------------

    def post_irq(self, fn: Callable[..., None], label: str = "irq",
                 args: tuple = ()) -> None:
        """Queue an interrupt-context job (runs ahead of task jobs)."""
        self._post(CpuJob(fn, label, irq=True, args=args))

    def post_task(self, fn: Callable[..., None], label: str = "task",
                  args: tuple = ()) -> None:
        """Queue a task-context job (FIFO among tasks)."""
        self._post(CpuJob(fn, label, irq=False, args=args))

    def _post(self, job: CpuJob) -> None:
        if job.irq:
            self._irq_jobs.append(job)
        else:
            self._task_jobs.append(job)
        if not self._active:
            self._wake()

    def _wake(self) -> None:
        self._active = True
        self._apply_active_current()
        self.sim.call_now(self._dispatch)

    # -- execution -----------------------------------------------------

    def _dispatch(self) -> None:
        if self._in_job:
            return
        # Interrupt jobs first, then tasks in FIFO order.
        if self._irq_jobs:
            job = self._irq_jobs.popleft()
        elif self._task_jobs:
            job = self._task_jobs.popleft()
        else:
            self._go_to_sleep()
            return
        sim = self.sim
        self._in_job = True
        self._job_start_ns = sim._now
        self.jobs_executed += 1
        try:
            job.fn(*job.args)
        finally:
            cycles = self._pending_cycles
            self._pending_cycles = 0
            self._in_job = False
            self.total_active_cycles += cycles
            # at() directly: cycles are validated non-negative, so the
            # after() delay check is redundant on this per-job path.
            sim.at(sim._now + cycles * CYCLE_NS, self._dispatch)

    def _go_to_sleep(self) -> None:
        if not self._active:
            return
        self._active = False
        self._apply_sleep_current()

    # -- cycle accounting ----------------------------------------------

    def consume(self, cycles: int) -> None:
        """Charge extra cycles to the currently executing job.

        Called from inside a job callback (the Quanto logger does this for
        every record).  Calling it outside a job is an error: cycle costs
        must always be attributable to a job.
        """
        if not self._in_job:
            raise HardwareError("Mcu.consume() called outside a job")
        if cycles < 0:
            raise HardwareError(f"negative cycle cost: {cycles}")
        self._pending_cycles += int(cycles)

    def jobs_pending(self) -> int:
        """Queued (not yet started) jobs — used by the instrumentation to
        decide whether the CPU is about to sleep."""
        return len(self._irq_jobs) + len(self._task_jobs)

    def virtual_now(self) -> int:
        """Cycle-advanced time within the current job.

        A job's Python callback executes at the job's start instant, but
        the cycles it declares occupy real time.  Instrumentation (the
        Quanto logger in particular) timestamps events with this virtual
        clock so consecutive records within one job carry strictly
        increasing times, exactly as a real CPU reading its timer
        mid-execution would see.  Outside a job this is just ``sim.now``.
        """
        if not self._in_job:
            return self.sim._now
        return self._job_start_ns + self._pending_cycles * CYCLE_NS

    @property
    def total_active_time_ns(self) -> int:
        """Total CPU-active time implied by executed cycles."""
        return self.total_active_cycles * CYCLE_NS

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "ACTIVE" if self._active else self.sleep_state
        return (
            f"<Mcu {state} irq={len(self._irq_jobs)} "
            f"tasks={len(self._task_jobs)}>"
        )
