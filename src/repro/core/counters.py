"""Online counter-based accounting (paper Section 5.1, "Logging vs
counting", and the Section 5.3 "real time tracking" direction).

Instead of logging every event for offline analysis, a node can keep a
fixed set of per-activity accumulators: time and metered energy charged to
the CPU's current activity as it changes.  Memory is constant (a small
slot table), and the logging overhead disappears — the trade-off the paper
discusses.

This accountant subscribes to the same observer interfaces as the logger
(SingleActivityTrack on the CPU plus the iCount meter), so it demonstrates
that Quanto's event generation cleanly decouples from event consumption.
Slot exhaustion goes to an overflow bucket rather than dropping data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.labels import ActivityLabel

#: Slots in the table (12 bytes of state each on the real node).
SLOTS = 16


@dataclass
class ActivityCounters:
    """One slot: accumulated CPU time and node energy for an activity."""

    label: ActivityLabel
    time_ns: int = 0
    energy_j: float = 0.0
    switches: int = 0


class CounterAccountant:
    """Fixed-memory, always-current accounting of the CPU's activities.

    Attribution model: between consecutive CPU activity changes, all
    elapsed time and all metered node energy are charged to the activity
    the CPU carried.  This is coarser than the offline regression (it
    cannot split concurrent sinks), but it is *live* and constant-space —
    an energy ``top``.
    """

    def __init__(self, sim, icount, mcu=None):
        self.sim = sim
        self.icount = icount
        self.mcu = mcu  # when set, spans use the cycle-advanced clock
        self.energy_per_pulse_j = icount.nominal_energy_per_pulse_j
        self._slots: dict[ActivityLabel, ActivityCounters] = {}
        self._overflow = ActivityCounters(ActivityLabel(0, 0xFF))
        self._current: Optional[ActivityLabel] = None
        self._mark_time_ns = sim.now
        self._mark_pulses = icount.read()

    def reset(self) -> None:
        """Warm-start reset: empty slot table, marks re-taken at the
        (reset) simulator's t=0 and the meter's rewound count."""
        self._slots.clear()
        self._overflow = ActivityCounters(ActivityLabel(0, 0xFF))
        self._current = None
        self._mark_time_ns = self.sim.now
        self._mark_pulses = self.icount.read()

    def _now(self) -> int:
        """The accounting clock: virtual (cycle-advanced) time when a CPU
        is attached, so activity switches inside one job still accrue the
        cycles spent between them."""
        if self.mcu is not None:
            return self.mcu.virtual_now()
        return self.sim.now

    # -- the observer interface (same shape as the logger's) ----------------

    def on_single_activity(self, device, label: ActivityLabel,
                           bound: bool) -> None:
        """Track the CPU's SingleActivityDevice."""
        self._charge_current()
        if bound and self._current is not None:
            # Fold what the proxy just accumulated into the bind target.
            self._merge(self._current, label)
        self._current = label
        slot = self._slot_for(label)
        if slot is not None:
            slot.switches += 1

    # -- internals ---------------------------------------------------------

    def _slot_for(self, label: ActivityLabel) -> Optional[ActivityCounters]:
        slot = self._slots.get(label)
        if slot is not None:
            return slot
        if len(self._slots) >= SLOTS:
            return None  # falls into the overflow bucket
        slot = ActivityCounters(label)
        self._slots[label] = slot
        return slot

    def _charge_current(self) -> None:
        now = self._now()
        pulses = self.icount.read(at_ns=now)
        dt_ns = now - self._mark_time_ns
        d_energy = (pulses - self._mark_pulses) * self.energy_per_pulse_j
        self._mark_time_ns = now
        self._mark_pulses = pulses
        if self._current is None or dt_ns <= 0 and d_energy <= 0:
            return
        slot = self._slot_for(self._current)
        target = slot if slot is not None else self._overflow
        target.time_ns += max(dt_ns, 0)
        target.energy_j += max(d_energy, 0.0)

    def _merge(self, source: ActivityLabel, target: ActivityLabel) -> None:
        src = self._slots.get(source)
        if src is None:
            return
        dst = self._slot_for(target)
        if dst is None:
            dst = self._overflow
        dst.time_ns += src.time_ns
        dst.energy_j += src.energy_j
        src.time_ns = 0
        src.energy_j = 0.0

    # -- reading the counters ------------------------------------------------

    def snapshot(self) -> dict[ActivityLabel, ActivityCounters]:
        """Charge the open span and return the current counters."""
        self._charge_current()
        return dict(self._slots)

    def memory_bytes(self) -> int:
        """RAM the counter table would occupy on the node: 12 bytes per
        slot (2-byte label, 4-byte time, 4-byte energy, 2-byte count)."""
        return 12 * SLOTS
