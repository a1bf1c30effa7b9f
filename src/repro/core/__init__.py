"""Quanto core: the paper's contribution.

* :mod:`repro.core.labels` — activity labels ⟨origin node : id⟩ with the
  16-bit wire encoding and the name registry.
* :mod:`repro.core.activity` — Single/MultiActivityDevice (the "painting"
  abstraction), proxy activities, and binding.
* :mod:`repro.core.powerstate` — the PowerState / PowerStateTrack
  interfaces drivers use to expose hardware power states.
* :mod:`repro.core.logger` — 12-byte log entries, the fixed RAM buffer,
  and the 102-cycle cost model (paper Table 4).
* :mod:`repro.core.regression` — the weighted least-squares energy
  breakdown (paper Section 2.5).
* :mod:`repro.core.timeline` — offline reconstruction of power-state and
  activity intervals from logs.
* :mod:`repro.core.accounting` — the energy map: time and energy by
  hardware component and by activity (paper Table 3).
* :mod:`repro.core.counters` — the online counter alternative to logging
  (paper Section 5.1).
* :mod:`repro.core.netmerge` — network-wide merge of per-node logs.
* :mod:`repro.core.sched_ext` — energy-aware scheduling built on Quanto
  accounting (paper Section 5.3).
* :mod:`repro.core.report` — ASCII tables, timelines, and plots.
"""

from repro.core.labels import ActivityLabel, ActivityRegistry, IDLE_ID
from repro.core.activity import MultiActivityDevice, SingleActivityDevice
from repro.core.powerstate import PowerStateTracker, PowerStateVar
from repro.core.logger import LogEntry, QuantoLogger, decode_log, iter_entries
from repro.core.regression import RegressionResult, SinkColumn, solve_breakdown
from repro.core.timeline import (
    ActivitySegment,
    MultiActivitySegment,
    PowerInterval,
    TimelineStream,
)
from repro.core.accounting import (
    EnergyAccumulator,
    EnergyMap,
    build_energy_map,
    stream_energy_map,
)
from repro.core.counters import CounterAccountant

__all__ = [
    "ActivityLabel",
    "ActivityRegistry",
    "IDLE_ID",
    "SingleActivityDevice",
    "MultiActivityDevice",
    "PowerStateVar",
    "PowerStateTracker",
    "LogEntry",
    "QuantoLogger",
    "decode_log",
    "iter_entries",
    "SinkColumn",
    "RegressionResult",
    "solve_breakdown",
    "TimelineStream",
    "PowerInterval",
    "ActivitySegment",
    "MultiActivitySegment",
    "EnergyMap",
    "EnergyAccumulator",
    "build_energy_map",
    "stream_energy_map",
    "CounterAccountant",
]
