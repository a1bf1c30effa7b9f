"""Cross-cutting property tests on the analysis invariants.

These generate random-but-valid workload schedules and check the
pipeline's conservation laws: activity segments tile time exactly, the
energy map redistributes (never creates) energy, and the whole system is
a deterministic function of its seed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.labels import ActivityLabel, ActivityRegistry
from repro.core.logger import (
    ENTRY_STRUCT,
    TYPE_ACT_CHANGE,
    TYPE_BOOT,
    TYPE_POWERSTATE,
    LogColumns,
    decode_log,
)
from repro.core.regression import SinkColumn, solve_breakdown
from repro.core.accounting import build_energy_map
from repro.core.timeline import ColumnarTimeline

QUANTUM = 8.33e-6

label_values = st.integers(min_value=0x0101, max_value=0x01050)


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.integers(min_value=1, max_value=1000),  # gap (us)
              st.integers(min_value=0x0101, max_value=0x0110)),
    min_size=1, max_size=30,
))
def test_activity_segments_tile_time(steps):
    """Property: segments of a device partition [first, end] with no gaps
    or overlaps, whatever the change sequence."""
    rows = []
    t = 0
    for gap_us, value in steps:
        t += gap_us
        rows.append(ENTRY_STRUCT.pack(TYPE_ACT_CHANGE, 0, t, 0,
                                      value & 0xFFFF))
    end_ns = (t + 500) * 1000
    entries = decode_log(b"".join(rows))
    timeline = ColumnarTimeline(LogColumns.from_entries(entries),
                                end_time_ns=end_ns, single_res_ids=[0],
                                multi_res_ids=[])
    segments = timeline.activity_segments(0)
    if not segments:
        return
    assert segments[0].t0_ns == entries[0].time_ns
    assert segments[-1].t1_ns == end_ns
    for a, b in zip(segments, segments[1:]):
        assert a.t1_ns == b.t0_ns
        assert a.dt_ns > 0


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=50, max_value=2000),  # dwell (ms)
                  st.integers(min_value=0, max_value=1),      # LED state
                  st.sampled_from([0x0101, 0x0102, 0x0103])), # activity
        min_size=3, max_size=15),
    st.floats(min_value=0.001, max_value=0.02),  # LED power (W)
    st.floats(min_value=0.0005, max_value=0.005),  # const power (W)
)
def test_energy_map_conserves_energy(schedule, led_power, const_power):
    """Property: the map's total equals the regression replayed over the
    intervals — attribution moves joules around but never invents any."""
    registry = ActivityRegistry()
    rows = [ENTRY_STRUCT.pack(TYPE_BOOT, 1, 0, 0, 0)]
    t_us = 0
    pulses = 0.0
    state = 0
    for dwell_ms, new_state, activity in schedule:
        power = const_power + (led_power if state else 0.0)
        pulses += power * dwell_ms * 1e-3 / QUANTUM
        t_us += dwell_ms * 1000
        rows.append(ENTRY_STRUCT.pack(
            TYPE_ACT_CHANGE, 1, t_us, int(pulses), activity))
        if new_state != state:
            rows.append(ENTRY_STRUCT.pack(
                TYPE_POWERSTATE, 1, t_us, int(pulses), new_state))
            state = new_state
    entries = decode_log(b"".join(rows))
    timeline = ColumnarTimeline(LogColumns.from_entries(entries),
                                end_time_ns=t_us * 1000, single_res_ids=[1],
                                multi_res_ids=[])
    intervals = timeline.power_intervals()
    if not intervals:
        return
    layout = [SinkColumn(1, 1, "LED0")]
    regression = solve_breakdown(intervals, layout, QUANTUM, 3.0)
    emap = build_energy_map(timeline, regression, registry, {1: "LED0"},
                            QUANTUM)
    replayed = sum(
        regression.power_of_states(iv.states) * iv.dt_ns * 1e-9
        for iv in intervals)
    assert emap.total_energy_j() == pytest.approx(replayed, rel=1e-6,
                                                  abs=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_network_run_is_deterministic_in_seed(seed):
    """Property: the full two-node Bounce byte log is a function of the
    seed alone."""
    from repro.apps.bounce import BounceApp
    from repro.tos.network import Network
    from repro.tos.node import NodeConfig
    from repro.units import ms, seconds

    def run():
        network = Network(seed=seed)
        network.add_node(NodeConfig(node_id=1, mac="csma"))
        network.add_node(NodeConfig(node_id=4, mac="csma"))
        app1 = BounceApp(peer_id=4, originate_delay_ns=ms(250))
        app4 = BounceApp(peer_id=1, originate_delay_ns=ms(650))
        network.boot_all({1: app1.start, 4: app4.start})
        network.run(seconds(2))
        return (network.node(1).logger.raw_bytes(),
                network.node(4).logger.raw_bytes())

    assert run() == run()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=0xFFFF),
                min_size=1, max_size=20))
def test_multi_device_time_split_sums_to_presence(values):
    """Property: a multi-activity device's per-label time, summed, never
    exceeds its total covered time (equal-split can only redistribute)."""
    from repro.core.logger import TYPE_ACT_ADD, TYPE_ACT_REMOVE

    rows = []
    t = 0
    present: set[int] = set()
    for value in values:
        t += 100
        if value in present:
            rows.append(ENTRY_STRUCT.pack(TYPE_ACT_REMOVE, 9, t, 0, value))
            present.discard(value)
        else:
            rows.append(ENTRY_STRUCT.pack(TYPE_ACT_ADD, 9, t, 0, value))
            present.add(value)
    end_ns = (t + 100) * 1000
    entries = decode_log(b"".join(rows))
    timeline = ColumnarTimeline(LogColumns.from_entries(entries),
                                end_time_ns=end_ns, single_res_ids=[],
                                multi_res_ids=[9])
    spans = timeline._multis.get(9)
    segments = [(t1 - t0, timeline.label_sets[set_id])
                for t0, t1, set_id in zip(spans.t0.tolist(),
                                          spans.t1.tolist(), spans.set_ids)]
    covered = sum(dt for dt, _labels in segments)
    split_total = sum(
        dt // len(labels) * len(labels)
        for dt, labels in segments if labels)
    assert split_total <= covered
