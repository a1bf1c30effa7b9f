"""Energy-aware scheduling (paper §5.3, "Energy-Aware Scheduling").

"Since Quanto already tracks energy usage by activity, an extension to
the operating system scheduler would enable energy-aware policies like
equal-energy scheduling for threads, rather than equal-time scheduling."

This module implements that extension on top of the online counters: an
:class:`EnergyBudgetScheduler` wraps task posting so that each activity
has an energy budget (absolute, or a fair share), and tasks posted on
behalf of over-budget activities are deferred until the activity's usage
falls back under its allowance (budgets refill per epoch).  The policy
object is pluggable; :class:`EqualEnergyPolicy` gives every registered
activity the same share of the epoch's energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.counters import CounterAccountant
from repro.core.labels import ActivityLabel
from repro.errors import ActivityError


class EqualEnergyPolicy:
    """Every registered activity gets epoch_budget / n_activities."""

    def __init__(self, epoch_budget_j: float):
        if epoch_budget_j <= 0:
            raise ActivityError("epoch budget must be positive")
        self.epoch_budget_j = epoch_budget_j

    def allowance(self, label: ActivityLabel,
                  registered: list[ActivityLabel]) -> float:
        if not registered:
            return self.epoch_budget_j
        return self.epoch_budget_j / len(registered)


@dataclass
class _Deferred:
    fn: Callable[[], None]
    label: str
    activity: ActivityLabel


class EnergyBudgetScheduler:
    """Budget-enforcing wrapper around the TinyOS scheduler.

    Post through :meth:`post`; if the posting activity has exhausted its
    allowance for the current epoch, the task is parked and released when
    :meth:`new_epoch` refills budgets.  Deferral statistics make the
    policy's effect measurable (the ablation bench uses them).
    """

    def __init__(
        self,
        scheduler,
        counters: CounterAccountant,
        policy,
    ) -> None:
        self.scheduler = scheduler
        self.counters = counters
        self.policy = policy
        self._registered: list[ActivityLabel] = []
        self._spent_at_epoch: dict[ActivityLabel, float] = {}
        self._deferred: list[_Deferred] = []
        self.deferrals = 0
        self.releases = 0

    def register_activity(self, label: ActivityLabel) -> None:
        """Declare an activity subject to budgeting."""
        if label not in self._registered:
            self._registered.append(label)
            self._spent_at_epoch[label] = self._energy_of(label)

    def _energy_of(self, label: ActivityLabel) -> float:
        snapshot = self.counters.snapshot()
        slot = snapshot.get(label)
        return slot.energy_j if slot is not None else 0.0

    def _over_budget(self, label: ActivityLabel) -> bool:
        if label not in self._registered:
            return False
        allowance = self.policy.allowance(label, self._registered)
        spent = self._energy_of(label) - self._spent_at_epoch[label]
        return spent >= allowance

    def post(
        self,
        fn: Callable[[], None],
        label: str = "task",
        activity: Optional[ActivityLabel] = None,
    ) -> bool:
        """Post a task subject to its activity's budget.  Returns True if
        posted now, False if deferred to the next epoch."""
        acting = (
            activity if activity is not None
            else self.scheduler.cpu_activity.get()
        )
        if self._over_budget(acting):
            self._deferred.append(_Deferred(fn, label, acting))
            self.deferrals += 1
            return False
        self.scheduler.post_function(fn, label=label, activity=acting)
        return True

    def new_epoch(self) -> int:
        """Refill budgets and release deferred tasks (in order).  Returns
        how many tasks were released."""
        for label in self._registered:
            self._spent_at_epoch[label] = self._energy_of(label)
        released = 0
        still_deferred: list[_Deferred] = []
        for item in self._deferred:
            if self._over_budget(item.activity):
                still_deferred.append(item)
                continue
            self.scheduler.post_function(
                item.fn, label=item.label, activity=item.activity)
            released += 1
        self._deferred = still_deferred
        self.releases += released
        return released

