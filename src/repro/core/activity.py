"""Activity devices: the "painting" abstraction (paper Section 3).

Each hardware component that can do work on behalf of an activity is
represented by one activity device:

* :class:`SingleActivityDevice` — components that serve one activity at a
  time (the CPU, the radio transmit path, an LED).  Mirrors the paper's
  interface: ``get`` / ``set`` / ``bind``, where ``bind`` additionally
  declares that the *previous* activity's resource usage should be charged
  to the new one — the mechanism that resolves interrupt proxy activities.
* :class:`MultiActivityDevice` — components that can serve several
  activities simultaneously (hardware timers, the radio receive path while
  listening): ``add`` / ``remove`` over a set of labels.

Observers subscribe via the Track interfaces (paper Figure 9): callbacks
on changed/bound (single) and added/removed (multi).  The Quanto logger is
one such observer; the online counter accountant is another.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ActivityError
from repro.core.labels import ActivityLabel, idle_label

#: Single-device observer: fn(device, new_label, bound: bool)
SingleTrackFn = Callable[["SingleActivityDevice", ActivityLabel, bool], None]

#: Multi-device observer: fn(device, label, added: bool)
MultiTrackFn = Callable[["MultiActivityDevice", ActivityLabel, bool], None]


class SingleActivityDevice:
    """A component that is painted with exactly one activity at a time."""

    def __init__(self, name: str, res_id: int,
                 initial: Optional[ActivityLabel] = None):
        self.name = name
        self.res_id = res_id
        self._current = initial if initial is not None else idle_label()
        self._trackers: list[SingleTrackFn] = []
        self.change_count = 0
        self.bind_count = 0

    def add_tracker(self, fn: SingleTrackFn) -> None:
        """Subscribe to SingleActivityTrack events."""
        self._trackers.append(fn)

    def get(self) -> ActivityLabel:
        """The device's current activity."""
        return self._current

    def set(self, new: ActivityLabel) -> None:
        """Paint the device with ``new``.  Idempotent sets do not notify."""
        current = self._current
        # Identity first: labels are widely interned (decode cache, app
        # references), making the common idempotent set pointer-cheap.
        # The fallback compares the 16-bit wire encodings — injective in
        # (origin, aid), so it is exactly label equality without the
        # dataclass tuple comparison.
        if new is current or new._encoded == current._encoded:
            return
        self._current = new
        self.change_count += 1
        for tracker in self._trackers:
            tracker(self, new, False)

    def bind(self, new: ActivityLabel) -> None:
        """Paint the device with ``new`` *and* declare that the previous
        activity's usage (typically a proxy) belongs to ``new``."""
        self._current = new
        self.bind_count += 1
        for tracker in self._trackers:
            tracker(self, new, True)

    def reset(self, initial: ActivityLabel) -> None:
        """Warm-start reset: repaint to the initial label and zero the
        tallies without notifying trackers (the boot snapshot re-records
        the starting activities)."""
        self._current = initial
        self.change_count = 0
        self.bind_count = 0


class MultiActivityDevice:
    """A component that can serve several activities concurrently."""

    def __init__(self, name: str, res_id: int):
        self.name = name
        self.res_id = res_id
        self._current: set[ActivityLabel] = set()
        self._trackers: list[MultiTrackFn] = []
        self.change_count = 0

    def add_tracker(self, fn: MultiTrackFn) -> None:
        """Subscribe to MultiActivityTrack events."""
        self._trackers.append(fn)

    def add(self, label: ActivityLabel) -> bool:
        """Add an activity; returns False if it was already present
        (mirrors the paper's error_t return)."""
        if label in self._current:
            return False
        self._current.add(label)
        self.change_count += 1
        for tracker in self._trackers:
            tracker(self, label, True)
        return True

    def remove(self, label: ActivityLabel) -> bool:
        """Remove an activity; returns False if it was not present."""
        if label not in self._current:
            return False
        self._current.discard(label)
        self.change_count += 1
        for tracker in self._trackers:
            tracker(self, label, False)
        return True

    def reset(self) -> None:
        """Warm-start reset: empty set, zero tally, no notifications."""
        self._current.clear()
        self.change_count = 0


class ProxyActivitySet:
    """The static proxy activities of a node's interrupt vectors.

    TinyOS on the MSP430 has no reentrant interrupts, so the paper assigns
    each interrupt routine a fixed proxy activity.  This helper hands out
    those labels for a given node."""

    def __init__(self, node_id: int, proxy_ids: dict[str, int]):
        if not 0 <= node_id <= 0xFF:
            raise ActivityError(f"node id {node_id} does not fit in 8 bits")
        self.node_id = node_id
        self._labels = {
            name: ActivityLabel(origin=node_id, aid=aid)
            for name, aid in proxy_ids.items()
        }

    def label(self, name: str) -> ActivityLabel:
        try:
            return self._labels[name]
        except KeyError:
            raise ActivityError(f"no proxy activity named {name!r}") from None
