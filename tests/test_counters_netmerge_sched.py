"""Online counters, the network merge, and energy-aware scheduling."""

import pytest

from repro.core.accounting import EnergyMap
from repro.core.counters import SLOTS, CounterAccountant
from repro.core.labels import ActivityLabel
from repro.core.netmerge import (
    NetworkMerger,
    merge_energy_maps,
    origin_of,
)
from repro.core.sched_ext import (
    EnergyBudgetScheduler,
    EqualEnergyPolicy,
)
from repro.errors import ActivityError
from repro.hw.power import PowerRail
from repro.meter.icount import ICountMeter
from repro.sim.engine import Simulator
from repro.units import ma, seconds

RED = ActivityLabel(1, 1)
BLUE = ActivityLabel(1, 2)
PROXY = ActivityLabel(1, 0xC8)


def _counter_stack():
    sim = Simulator()
    rail = PowerRail(sim, voltage=3.0)
    load = rail.register("load")
    load.set_current(ma(10))  # 30 mW constant
    meter = ICountMeter(rail)
    counters = CounterAccountant(sim, meter)
    return sim, counters


class _FakeDevice:
    pass


def test_counters_charge_current_activity():
    sim, counters = _counter_stack()
    device = _FakeDevice()
    counters.on_single_activity(device, RED, bound=False)
    sim.at(seconds(1), lambda: None)
    sim.run()
    counters.on_single_activity(device, BLUE, bound=False)
    sim.at(seconds(3), lambda: None)
    sim.run()
    snapshot = counters.snapshot()
    # RED held the CPU for 1 s at 30 mW, BLUE for 2 s.
    assert snapshot[RED].energy_j == pytest.approx(0.030, rel=0.01)
    assert snapshot[BLUE].energy_j == pytest.approx(0.060, rel=0.01)
    assert snapshot[RED].time_ns == seconds(1)
    assert snapshot[BLUE].time_ns == seconds(2)


def test_counters_bind_merges_proxy_usage():
    sim, counters = _counter_stack()
    device = _FakeDevice()
    counters.on_single_activity(device, PROXY, bound=False)
    sim.at(seconds(1), lambda: None)
    sim.run()
    counters.on_single_activity(device, RED, bound=True)
    snapshot = counters.snapshot()
    assert snapshot[PROXY].energy_j == 0.0
    assert snapshot[RED].energy_j == pytest.approx(0.030, rel=0.01)


def test_counters_overflow_bucket():
    """Activities past the slot table are charged to the overflow bucket,
    not to a slot and not dropped from the table's own slots."""
    sim, counters = _counter_stack()
    device = _FakeDevice()
    labels = [ActivityLabel(1, i + 1) for i in range(SLOTS + 2)]
    for label in labels:
        counters.on_single_activity(device, label, bound=False)
        sim.at(sim.now + seconds(1), lambda: None)
        sim.run()
    snapshot = counters.snapshot()
    assert set(snapshot) == set(labels[:SLOTS])
    # 1 s at 30 mW per slotted activity; the last two seconds overflowed.
    assert sum(slot.energy_j for slot in snapshot.values()) == \
        pytest.approx(0.030 * SLOTS, rel=0.01)


def test_counters_memory_and_total():
    sim, counters = _counter_stack()
    assert counters.memory_bytes() == 12 * SLOTS
    device = _FakeDevice()
    counters.on_single_activity(device, RED, bound=False)
    sim.at(seconds(2), lambda: None)
    sim.run()
    total = sum(slot.energy_j for slot in counters.snapshot().values())
    assert total == pytest.approx(0.060, rel=0.01)


# -- netmerge ---------------------------------------------------------------


def _map_with(entries):
    emap = EnergyMap()
    for component, activity, joules in entries:
        emap.add_energy(component, activity, joules)
    return emap


def test_merge_aggregates_across_nodes():
    maps = {
        1: _map_with([("Radio", "4:BounceApp", 0.002),
                      ("LED1", "4:BounceApp", 0.003),
                      ("Const.", "Const.", 0.010)]),
        4: _map_with([("Radio", "4:BounceApp", 0.004),
                      ("CPU", "1:BounceApp", 0.001)]),
    }
    report = merge_energy_maps(maps)
    assert report.by_activity["4:BounceApp"] == pytest.approx(0.009)
    assert report.by_activity["1:BounceApp"] == pytest.approx(0.001)
    # Const. is never merged: the report holds attributable energy.
    assert "Const." not in report.by_activity
    merger = NetworkMerger()
    for node_id, emap in maps.items():
        merger.add(node_id, emap)
    merged = merger.report()
    assert "Const." not in merged.by_activity
    assert all(activity != "Const."
               for _node, _component, activity in merged.per_node)
    assert merged.total_j == pytest.approx(0.002 + 0.003 + 0.004 + 0.001)


def test_remote_fraction_butterfly():
    maps = {
        1: _map_with([("Radio", "1:Flood", 0.001)]),
        2: _map_with([("Radio", "1:Flood", 0.002)]),
        3: _map_with([("Radio", "1:Flood", 0.003)]),
    }
    report = merge_energy_maps(maps)
    # 5/6 of the flood's energy was spent away from its origin.
    assert report.remote_fraction("1:Flood", 1) == pytest.approx(5 / 6)


def test_remote_fraction_zero_energy_activity_is_zero():
    """An activity that never consumed anything has no remote share —
    no division-by-zero, just 0.0."""
    report = merge_energy_maps({
        1: _map_with([("Radio", "1:Flood", 0.0)]),
        2: _map_with([("Radio", "1:Flood", 0.0)]),
    })
    assert report.remote_fraction("1:Flood", 1) == 0.0
    # Unknown activities behave the same way.
    assert report.remote_fraction("9:Ghost", 9) == 0.0
    assert report.remote_fractions()["1:Flood"] == 0.0


def test_spread_aggregates_per_node_per_activity():
    maps = {
        1: _map_with([("Radio", "1:Flood", 0.001),
                      ("CPU", "1:Flood", 0.002),
                      ("Radio", "2:App", 0.004)]),
        2: _map_with([("Radio", "1:Flood", 0.003)]),
    }
    report = merge_energy_maps(maps)
    # Components merge within a node; nodes stay separate.
    assert report.spread["1:Flood"] == {
        1: pytest.approx(0.003), 2: pytest.approx(0.003)}
    assert report.spread["2:App"] == {1: pytest.approx(0.004)}
    assert report.total_j == pytest.approx(0.010)
    assert sorted({node for node, _, _ in report.per_node}) == [1, 2]
    assert report.remote_fractions() == {
        "1:Flood": pytest.approx(0.5),
        "2:App": pytest.approx(1.0),  # all of 2:App's cost landed on node 1
    }


def test_incremental_merger_equals_batch_merge():
    maps = {
        1: _map_with([("Radio", "1:Flood", 0.001),
                      ("Const.", "Const.", 0.05)]),
        4: _map_with([("Radio", "1:Flood", 0.002),
                      ("CPU", "4:App", 0.003)]),
    }
    merger = NetworkMerger()
    for node_id, emap in maps.items():
        merger.add(node_id, emap)
    incremental = merger.report()
    batch = merge_energy_maps(maps)
    assert incremental.per_node == batch.per_node
    assert incremental.by_activity == batch.by_activity
    assert incremental.spread == batch.spread
    assert incremental.total_j == batch.total_j


def test_origin_of_parses_rendered_activity_names():
    assert origin_of("12:Collect") == 12
    assert origin_of("Const.") is None
    assert origin_of("pxy_RX") is None
    assert origin_of("weird:name") is None


# -- energy-aware scheduling --------------------------------------------------


class _FakeScheduler:
    def __init__(self, cpu_activity_label):
        self.posted = []

        class _Act:
            def __init__(self, label):
                self._label = label

            def get(self):
                return self._label

        self.cpu_activity = _Act(cpu_activity_label)

    def post_function(self, fn, cycles=0, label="task", activity=None):
        self.posted.append((fn, activity))


def test_budget_defers_over_budget_activity():
    sim, counters = _counter_stack()
    device = _FakeDevice()
    scheduler = _FakeScheduler(RED)
    budget = EnergyBudgetScheduler(
        scheduler, counters, EqualEnergyPolicy(0.010))
    budget.register_activity(RED)
    # Burn 30 mJ under RED: over its 10 mJ budget.
    counters.on_single_activity(device, RED, bound=False)
    sim.at(seconds(1), lambda: None)
    sim.run()
    assert budget.post(lambda: None, activity=RED) is False
    assert scheduler.posted == []
    # New epoch refills; the deferred task is released.
    assert budget.new_epoch() == 1
    assert len(scheduler.posted) == 1


def test_budget_unregistered_activity_unthrottled():
    sim, counters = _counter_stack()
    scheduler = _FakeScheduler(BLUE)
    budget = EnergyBudgetScheduler(
        scheduler, counters, EqualEnergyPolicy(0.010))
    assert budget.post(lambda: None, activity=BLUE) is True
    assert len(scheduler.posted) == 1


def test_equal_energy_policy_shares():
    policy = EqualEnergyPolicy(0.010)
    assert policy.allowance(RED, [RED, BLUE]) == pytest.approx(0.005)
    assert policy.allowance(RED, []) == pytest.approx(0.010)
    with pytest.raises(ActivityError):
        EqualEnergyPolicy(0.0)
