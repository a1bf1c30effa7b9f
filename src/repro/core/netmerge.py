"""Network-wide energy accounting: merging per-node energy maps.

The payoff of carrying activity labels across nodes (paper §3.3 and the
"tracking butterfly effects" direction in §5.3): because node B's work on
node A's packet is charged to ``A:Activity``, summing per-node energy
maps by activity yields the *network-wide* cost of each activity — e.g.
the total energy a flood initiated at one node consumed everywhere.

The merge is incremental: :class:`NetworkMerger` folds one node's map at
a time into the running report, so a fleet-scale analysis can price
nodes as their logs are decoded (and a node's map can be dropped once
folded).  :func:`merge_energy_maps` is the batch wrapper.

Per-node logs use per-node clocks; this merge only aggregates totals, so
clock skew between nodes does not matter (time-aligned cross-node
timelines would need a sync protocol, which the paper also does not
assume).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.accounting import CONST_KEY, EnergyMap


def origin_of(activity_name: str) -> Optional[int]:
    """The originating node id of a rendered ``origin:Name`` activity,
    or None for pseudo-activities (Const., Idle, proxies…)."""
    prefix, sep, _ = activity_name.partition(":")
    if not sep:
        return None
    try:
        return int(prefix)
    except ValueError:
        return None


@dataclass
class NetworkEnergyReport:
    """Aggregated network-wide view."""

    #: (node_id, component, activity) -> joules
    per_node: dict[tuple[int, str, str], float] = field(default_factory=dict)
    #: activity -> joules across all nodes
    by_activity: dict[str, float] = field(default_factory=dict)
    #: activity -> {node_id: joules}; shows how an activity's cost spreads
    spread: dict[str, dict[int, float]] = field(default_factory=dict)
    total_j: float = 0.0

    def remote_fraction(self, activity: str, origin_node: int) -> float:
        """Fraction of an activity's energy spent on *other* nodes — the
        quantified butterfly effect.  0.0 when the activity is unknown
        or carries no energy (nothing was spent, so nothing was spent
        remotely)."""
        nodes = self.spread.get(activity, {})
        total = sum(nodes.values())
        if total == 0.0:
            return 0.0
        remote = sum(j for node, j in nodes.items() if node != origin_node)
        return remote / total

    def remote_fractions(self) -> dict[str, float]:
        """``remote_fraction`` for every activity whose origin is
        encoded in its name, keyed by activity name."""
        fractions: dict[str, float] = {}
        for activity in self.by_activity:
            origin = origin_of(activity)
            if origin is not None:
                fractions[activity] = self.remote_fraction(activity, origin)
        return fractions


class NetworkMerger:
    """Folds per-node :class:`EnergyMap`s into one running report.

    Each node's constant baseline (Const.) is left out, so the report
    shows *attributable* energy (the paper's activity tables treat
    Const. as its own row for the same reason).
    """

    def __init__(self) -> None:
        self._report = NetworkEnergyReport()

    def add(self, node_id: int, energy_map: EnergyMap) -> None:
        """Fold one node's map; the map can be dropped afterwards."""
        report = self._report
        for (component, activity), joules in energy_map.energy_j.items():
            if activity == CONST_KEY:
                continue
            report.per_node[(node_id, component, activity)] = (
                report.per_node.get((node_id, component, activity), 0.0)
                + joules
            )
            report.by_activity[activity] = (
                report.by_activity.get(activity, 0.0) + joules
            )
            report.spread.setdefault(activity, {})
            report.spread[activity][node_id] = (
                report.spread[activity].get(node_id, 0.0) + joules
            )
            report.total_j += joules

    def report(self) -> NetworkEnergyReport:
        return self._report


def merge_energy_maps(maps: dict[int, EnergyMap]) -> NetworkEnergyReport:
    """Aggregate per-node maps into the network-wide report (the batch
    wrapper over :class:`NetworkMerger`), Const. excluded."""
    merger = NetworkMerger()
    for node_id, energy_map in maps.items():
        merger.add(node_id, energy_map)
    return merger.report()
