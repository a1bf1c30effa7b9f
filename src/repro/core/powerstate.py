"""The PowerState / PowerStateTrack interfaces (paper Figures 1 and 3).

Device drivers expose hardware power states by calling ``set`` on their
:class:`PowerStateVar`.
The variable is idempotent — signalling the same state twice produces no
notification — and the :class:`PowerStateTracker` fans actual changes out
to registered listeners (the Quanto logger, tests, online accountants).

Each variable also carries *instrumentation metadata*: names for its state
values and which value is the baseline (off/sleep).  The offline analysis
uses that metadata to build regression columns; it is knowledge about the
instrumented platform, not ground truth about actual draws.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import PowerModelError

#: Tracker callback: fn(var, new_value)
PowerTrackFn = Callable[["PowerStateVar", int], None]


class PowerStateVar:
    """One energy sink's power state, as the driver exposes it."""

    def __init__(
        self,
        name: str,
        res_id: int,
        state_names: Optional[dict[int, str]] = None,
        baseline_value: int = 0,
    ):
        self.name = name
        self.res_id = res_id
        self.state_names = dict(state_names or {0: "OFF", 1: "ON"})
        self.baseline_value = baseline_value
        self._value = 0
        self._trackers: list[PowerTrackFn] = []
        self.change_count = 0

    def add_tracker(self, fn: PowerTrackFn) -> None:
        """Subscribe to PowerStateTrack change events."""
        self._trackers.append(fn)

    @property
    def value(self) -> int:
        return self._value

    def state_name(self) -> str:
        return self.state_names.get(self._value, f"state{self._value}")

    def set(self, value: int) -> None:
        """Set the power state.  Idempotent: no change, no notification."""
        # Idempotent first: the stored value already passed the range
        # check when it was set, so equality implies validity.
        if value == self._value:
            return
        if not 0 <= value <= 0xFFFF:
            raise PowerModelError(
                f"{self.name}: power state {value} does not fit in 16 bits"
            )
        self._value = value
        self.change_count += 1
        for tracker in self._trackers:
            tracker(self, value)

    def reset(self) -> None:
        """Warm-start reset: back to 0 without notifying trackers (the
        boot snapshot re-records the starting vector, just as it did on
        the cold run)."""
        self._value = 0
        self.change_count = 0


class PowerStateTracker:
    """The node-wide registry of power-state variables.

    The glue component of paper Section 2.4: drivers own the variables;
    the tracker knows all of them, forwards changes to node-level
    listeners, and hands the offline analysis its column layout.
    """

    def __init__(self) -> None:
        self._vars: dict[int, PowerStateVar] = {}
        self._listeners: list[PowerTrackFn] = []

    def create(
        self,
        name: str,
        res_id: int,
        state_names: Optional[dict[int, str]] = None,
        baseline_value: int = 0,
    ) -> PowerStateVar:
        """Create and register a variable for one energy sink, at 0."""
        if res_id in self._vars:
            raise PowerModelError(f"res_id {res_id} already registered "
                                  f"({self._vars[res_id].name})")
        var = PowerStateVar(name, res_id, state_names, baseline_value)
        var.add_tracker(self._forward)
        self._vars[res_id] = var
        return var

    def _forward(self, var: PowerStateVar, value: int) -> None:
        for listener in self._listeners:
            listener(var, value)

    def add_listener(self, fn: PowerTrackFn) -> None:
        """Subscribe to changes of *every* registered variable."""
        self._listeners.append(fn)

    def all_vars(self) -> list[PowerStateVar]:
        """All variables, ordered by res_id (the analysis layout)."""
        return [self._vars[rid] for rid in sorted(self._vars)]
