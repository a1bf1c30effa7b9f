"""Quanto-top: always-on, real-time energy profiling (paper §5.3).

"An extension of the framework can include performing the regression
online, and replacing the logging with accumulators for time and energy
usage per activity ... could be used as an always on, network-wide energy
profiler analogous to top."

:class:`QuantoTop` samples the online counters on a periodic timer and
keeps a bounded history of per-interval deltas, so at any moment the node
can report "who spent what, lately" — power per activity over the last
refresh interval, plus cumulative totals — without any log or offline
pass.  The sampler's own CPU time runs under Quanto's activity, so the
profiler appears in its own output, exactly like Unix ``top``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.core.counters import CounterAccountant
from repro.core.labels import ActivityLabel
from repro.core.report import format_table
from repro.units import seconds, to_s

#: Refresh intervals kept, and activities shown per screen.
HISTORY = 30
TOP_N = 10


@dataclass
class TopSample:
    """One refresh interval's view."""

    t0_ns: int
    t1_ns: int
    #: per-activity (time_ns, energy_j) deltas over the interval
    deltas: dict[ActivityLabel, tuple[int, float]] = field(
        default_factory=dict)

    @property
    def dt_s(self) -> float:
        return (self.t1_ns - self.t0_ns) * 1e-9


class QuantoTop:
    """Periodic sampler over a node's online counters."""

    def __init__(
        self,
        node,
        refresh_ns: int = seconds(2),
    ) -> None:
        if node.counters is None:
            raise ValueError(
                "QuantoTop needs NodeConfig(enable_counters=True)")
        self.node = node
        self.counters: CounterAccountant = node.counters
        self.refresh_ns = refresh_ns
        self.samples: deque[TopSample] = deque(maxlen=HISTORY)
        self._last_totals: dict[ActivityLabel, tuple[int, float]] = {}
        self._last_t_ns = node.sim.now

    def start(self) -> None:
        """Begin sampling (call from a CPU context, e.g. the app start)."""
        self.node.vtimers.start_periodic(
            self._refresh, self.refresh_ns, name="quanto-top",
            activity=self.node.quanto_label)

    def _refresh(self) -> None:
        """Timer callback (runs under Quanto's own activity)."""
        self.node.platform.mcu.consume(120)  # snapshot + delta bookkeeping
        now = self.node.sim.now
        snapshot = self.counters.snapshot()
        sample = TopSample(t0_ns=self._last_t_ns, t1_ns=now)
        for label, slot in snapshot.items():
            prev_time, prev_energy = self._last_totals.get(label, (0, 0.0))
            d_time = slot.time_ns - prev_time
            d_energy = slot.energy_j - prev_energy
            if d_time or d_energy:
                sample.deltas[label] = (d_time, d_energy)
            self._last_totals[label] = (slot.time_ns, slot.energy_j)
        self.samples.append(sample)
        self._last_t_ns = now

    # -- reporting -------------------------------------------------------

    def latest(self) -> Optional[TopSample]:
        return self.samples[-1] if self.samples else None

    def render(self) -> str:
        """The `top`-style screen: last interval's power per activity,
        sorted descending, with cumulative energy alongside."""
        registry = self.node.registry
        sample = self.latest()
        if sample is None:
            return "(no samples yet)"
        rows = []
        ranked = sorted(sample.deltas.items(),
                        key=lambda kv: kv[1][1], reverse=True)
        for label, (d_time, d_energy) in ranked[:TOP_N]:
            total_time, total_energy = self._last_totals.get(label,
                                                             (0, 0.0))
            rows.append((
                registry.name_of(label),
                f"{d_energy / sample.dt_s * 1e3:.3f}",
                f"{d_time / 1e6:.2f}",
                f"{total_energy * 1e3:.2f}",
                f"{to_s(total_time):.3f}",
            ))
        return format_table(
            ("activity", "P now (mW)", "CPU now (ms)", "E total (mJ)",
             "CPU total (s)"),
            rows,
            title=f"quanto-top, interval {sample.dt_s:.1f} s "
                  f"(refresh #{len(self.samples)})")
