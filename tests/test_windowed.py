"""Windowed (online) energy accounting.

The contract that makes live windows trustworthy: the window sequence
*folds* back to the batch :func:`build_energy_map` result bit-for-bit —
same float bits, same dict insertion order — on every workload, under
both analysis backends, for any stride.  Each snapshot carries the
accumulator's exact cumulative sums (the same IEEE-754 add sequence the
batch path performs), so :func:`fold_windows` is reconstruction, not
re-summation.  Also pinned: bounded memory via the retention deque,
gap-free window indices, the sliding view, and misuse errors.
"""

import pytest

from repro.core.accounting import (
    ANALYSIS_BACKENDS as BACKENDS,
    WindowedAccumulator,
    build_energy_map,
    fold_windows,
)
from repro.core.logger import iter_entries
from repro.errors import WindowingError
from repro.experiments.common import run_blink
from repro.tos.node import COMPONENT_NAMES
from repro.units import ms, seconds


def windowed_for(node, timeline, regression, stride_ns, **kwargs):
    return WindowedAccumulator(
        regression, node.registry, COMPONENT_NAMES,
        node.platform.icount.nominal_energy_per_pulse_j,
        stride_ns=stride_ns,
        idle_name=node.registry.name_of(node.idle),
        single_res_ids=node.single_res_ids,
        multi_res_ids=node.multi_res_ids,
        end_time_ns=timeline.end_time_ns,
        **kwargs,
    )


def assert_folds_to_batch(node, stride_ns, backend):
    timeline = node.timeline()
    regression = node.regression(timeline)
    batch = build_energy_map(
        timeline, regression, node.registry, COMPONENT_NAMES,
        node.platform.icount.nominal_energy_per_pulse_j,
        fold_proxies=False,
        idle_name=node.registry.name_of(node.idle),
        backend=backend,
    )
    accumulator = windowed_for(node, timeline, regression, stride_ns,
                               retain=None)
    accumulator.feed_all(iter_entries(node.logger.raw_bytes()))
    folded = fold_windows(list(accumulator.windows))
    assert list(folded.energy_j) == list(batch.energy_j)  # insertion order
    assert folded.energy_j == batch.energy_j  # float bits
    assert list(folded.time_ns) == list(batch.time_ns)
    assert folded.time_ns == batch.time_ns
    assert folded.metered_energy_j == batch.metered_energy_j
    assert folded.reconstructed_energy_j == batch.reconstructed_energy_j
    assert folded.span_ns == batch.span_ns
    return accumulator


# -- the fold contract -------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("stride_s", [0.25, 1, 3, 100])
def test_blink_windows_fold_to_batch(backend, stride_s):
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    accumulator = assert_folds_to_batch(node, int(seconds(stride_s)),
                                        backend)
    if stride_s == 100:  # one giant window: everything is in the final
        assert accumulator.windows_emitted == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_network_windows_fold_to_batch(backend):
    from repro.apps.bounce import BounceApp
    from repro.tos.network import Network
    from repro.tos.node import NodeConfig

    network = Network(seed=1)
    network.add_node(NodeConfig(node_id=1, mac="csma"))
    network.add_node(NodeConfig(node_id=4, mac="csma"))
    app1 = BounceApp(peer_id=4, originate_delay_ns=ms(250))
    app4 = BounceApp(peer_id=1, originate_delay_ns=ms(650))
    network.boot_all({1: app1.start, 4: app4.start})
    network.run(seconds(3))
    for node_id in (1, 4):
        assert_folds_to_batch(network.node(node_id), int(ms(400)), backend)


def test_windows_are_gap_free_and_deltas_cover_the_run():
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    timeline = node.timeline()
    regression = node.regression(timeline)
    accumulator = windowed_for(node, timeline, regression,
                               int(seconds(1)), retain=None)
    accumulator.feed_all(iter_entries(node.logger.raw_bytes()))
    snapshots = list(accumulator.windows)
    assert [s.index for s in snapshots] == list(range(len(snapshots)))
    assert snapshots[-1].final and not any(s.final for s in snapshots[:-1])
    for earlier, later in zip(snapshots, snapshots[1:]):
        assert earlier.t1_ns == later.t0_ns or later.final
    # Interval counts partition the run.
    assert sum(s.intervals for s in snapshots) == \
        accumulator._intervals_seen
    # Delta energies are display-quality: they sum to ~the total.
    total = sum(value for s in snapshots for value in s.energy_j.values())
    assert total == pytest.approx(
        accumulator.map.reconstructed_energy_j, rel=1e-9)


def test_retention_bounds_snapshot_memory():
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    timeline = node.timeline()
    regression = node.regression(timeline)
    accumulator = windowed_for(node, timeline, regression, int(ms(100)),
                               retain=4)
    accumulator.feed_all(iter_entries(node.logger.raw_bytes()))
    assert len(accumulator.windows) == 4  # deque bound
    assert accumulator.windows_emitted > 4  # ...but all were emitted
    # The last retained window still carries the exact final state.
    folded = fold_windows(list(accumulator.windows))
    assert folded.energy_j == accumulator.map.energy_j


def test_on_window_callback_sees_every_close():
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    timeline = node.timeline()
    regression = node.regression(timeline)
    seen = []
    accumulator = windowed_for(node, timeline, regression,
                               int(seconds(1)), on_window=seen.append)
    accumulator.feed_all(iter_entries(node.logger.raw_bytes()))
    assert len(seen) == accumulator.windows_emitted
    assert seen[-1].final


def test_live_breakdown_tracks_the_stream():
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    timeline = node.timeline()
    regression = node.regression(timeline)
    accumulator = windowed_for(node, timeline, regression, int(seconds(1)))
    entries = list(iter_entries(node.logger.raw_bytes()))
    for entry in entries[: len(entries) // 2]:
        accumulator.feed(entry)
    mid = accumulator.live_breakdown()
    assert 0 < mid["reconstructed_energy_j"]
    for entry in entries[len(entries) // 2:]:
        accumulator.feed(entry)
    accumulator.finish()
    done = accumulator.live_breakdown()
    assert done["reconstructed_energy_j"] \
        >= mid["reconstructed_energy_j"]
    assert done["energy_j"] == accumulator.map.energy_j


def test_sliding_view_merges_recent_strides():
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    timeline = node.timeline()
    regression = node.regression(timeline)
    accumulator = windowed_for(node, timeline, regression,
                               int(seconds(1)), retain=None)
    accumulator.feed_all(iter_entries(node.logger.raw_bytes()))
    view = accumulator.sliding(int(seconds(3)))
    assert view["windows"] == 3
    recent = list(accumulator.windows)[-3:]
    assert view["t0_ns"] == recent[0].t0_ns
    assert view["intervals"] == sum(s.intervals for s in recent)
    merged = {}
    for snapshot in recent:
        for key, value in snapshot.energy_j.items():
            merged[key] = merged.get(key, 0.0) + value
    assert view["energy_j"] == merged


# -- misuse ------------------------------------------------------------------


def test_bad_stride_rejected():
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(2))
    timeline = node.timeline()
    regression = node.regression(timeline)
    with pytest.raises(WindowingError, match="stride"):
        windowed_for(node, timeline, regression, 0)


def test_fold_of_nothing_rejected():
    with pytest.raises(WindowingError, match="empty"):
        fold_windows([])


def test_sliding_misuse_rejected():
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    timeline = node.timeline()
    regression = node.regression(timeline)
    accumulator = windowed_for(node, timeline, regression,
                               int(seconds(1)), retain=2)
    accumulator.feed_all(iter_entries(node.logger.raw_bytes()))
    with pytest.raises(WindowingError, match="multiple"):
        accumulator.sliding(int(seconds(1)) + 1)
    with pytest.raises(WindowingError, match="retention"):
        accumulator.sliding(int(seconds(5)))


def test_snapshot_under_other_devices_is_refused():
    """A snapshot records its declared device sets: an accumulator
    declared otherwise refuses it and stays as it was (a restoring
    server then replays the journal), one declared alike loads it."""
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    timeline = node.timeline()
    regression = node.regression(timeline)
    accumulator = windowed_for(node, timeline, regression, int(ms(100)))
    accumulator.feed_columns(node.logger.columns()[:60])
    blob = accumulator.snapshot()
    other = WindowedAccumulator(
        regression, node.registry, COMPONENT_NAMES,
        node.platform.icount.nominal_energy_per_pulse_j,
        stride_ns=int(ms(100)), single_res_ids=node.single_res_ids[1:],
        multi_res_ids=node.multi_res_ids,
        end_time_ns=timeline.end_time_ns)
    with pytest.raises(WindowingError, match="device sets"):
        other.load_snapshot(blob)
    assert other.windows_emitted == 0
    same = windowed_for(node, timeline, regression, int(ms(100)))
    same.load_snapshot(blob)
    assert same.windows_emitted == accumulator.windows_emitted > 0


def test_refused_chunk_is_never_buffered():
    """A record of an undeclared device raises when its chunk is fed —
    well below a batch, before any fold — and the accumulator keeps
    none of that chunk: a query or checkpoint folding the buffered rows
    next does not fail, and the map is as if the chunk never came."""
    from repro.core.logger import TYPE_ACT_CHANGE
    from repro.errors import LoggerError
    from repro.tos.node import RES_LED0

    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    timeline = node.timeline()
    regression = node.regression(timeline)
    columns = node.logger.columns()
    first_led = int(((columns.type == TYPE_ACT_CHANGE)
                     & (columns.res_id == RES_LED0)).argmax())
    assert first_led > 1

    def without_led():
        return WindowedAccumulator(
            regression, node.registry, COMPONENT_NAMES,
            node.platform.icount.nominal_energy_per_pulse_j,
            stride_ns=int(ms(100)),
            single_res_ids=[rid for rid in node.single_res_ids
                            if rid != RES_LED0],
            multi_res_ids=node.multi_res_ids,
            end_time_ns=timeline.end_time_ns)

    accumulator = without_led()
    accumulator.feed_columns(columns[:first_led])
    with pytest.raises(LoggerError, match="did not declare"):
        accumulator.feed_columns(columns[first_led:first_led + 2])
    assert accumulator.live_breakdown()["span_ns"] >= 0
    accumulator.snapshot()
    clean = without_led()
    clean.feed_columns(columns[:first_led])
    served, expected = accumulator.finish(), clean.finish()
    assert list(served.energy_j.items()) == list(expected.energy_j.items())
    assert list(served.time_ns.items()) == list(expected.time_ns.items())
    assert served.reconstructed_energy_j == expected.reconstructed_energy_j
