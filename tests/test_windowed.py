"""Windowed (online) energy accounting.

The contract that makes live windows trustworthy: the window sequence
folds back to the batch result bit for bit — same float bits, same
dict insertion order — on every workload, under both analysis
backends, for any stride.  Each snapshot carries the accumulator's
exact cumulative sums, so the last window *is* the finished map.
Here the differential harness's live fold (``tests/differential.py``)
runs on real Blink and Bounce logs at several strides: its final map
must be the streaming reference's and the last window's, and equal the
batch ``build_energy_map`` of each backend.  The harness's own runs
(``tests/test_differential.py``) split and batch generated logs every
way and show each option has an effect (retention keeping the newest
windows included).  Also pinned: gap-free window indices
and deltas that cover the run, the live breakdown mid-stream, and
misuse errors (a bad stride, a snapshot or chunk naming other devices).
"""

import pytest

import differential
from differential import (
    Plan,
    assert_same_map,
    live_fold,
    map_of_window,
    node_case,
    take_rows,
)
from repro.core.accounting import (
    ANALYSIS_BACKENDS as BACKENDS,
    WindowedAccumulator,
    build_energy_map,
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


def assert_folds_to_batch(case, stride_ns, backend):
    """``case``'s log in one chunk through the harness's live fold at
    ``stride_ns``: the final map is the streaming reference's and the
    last window's cumulative map, and ``backend``'s batch map equals
    it.  (The window sequences themselves are pinned by
    ``test_window_goldens``.)  Returns the number of windows emitted."""
    plan = Plan(cuts=[0, len(case.raw)], stride_ns=stride_ns)
    windows, final, emitted = live_fold(
        case, plan, plan.cuts, min_batch=plan.min_batch, retain=None)
    assert_same_map(case, "windowed", case.oracle_map(False), final)
    assert_same_map(case, "windowed last window", final,
                    map_of_window(windows[-1]))
    batch = build_energy_map(
        case.timeline(), case.regression, case.registry, case.names,
        case.pulse_j, idle_name=case.idle_name, backend=backend)
    assert_same_map(case, f"{backend} batch", batch, final)
    return emitted


# -- the fold contract -------------------------------------------------------


@pytest.fixture(scope="module")
def blink():
    return node_case("blink", differential.blink_node())


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("stride_s", [0.25, 1, 3, 100])
def test_blink_windows_fold_to_batch(blink, backend, stride_s):
    emitted = assert_folds_to_batch(blink, int(seconds(stride_s)), backend)
    if stride_s == 100:  # one giant window: everything is in the final
        assert emitted == 1


@pytest.fixture(scope="module")
def bounce():
    network = differential.bounce_network()
    return [node_case(f"bounce-{node_id}", network.node(node_id))
            for node_id in (1, 4)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_network_windows_fold_to_batch(bounce, backend):
    for case in bounce:
        assert_folds_to_batch(case, int(ms(400)), backend)


# -- the window sequence ------------------------------------------------------


def test_windows_are_gap_free_and_deltas_cover_the_run():
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    timeline = node.timeline()
    regression = node.regression(timeline)
    accumulator = windowed_for(node, timeline, regression,
                               int(seconds(1)), retain=None)
    accumulator.feed_columns(node.logger.columns())
    accumulator.finish()
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


# -- misuse ------------------------------------------------------------------


def test_bad_stride_rejected():
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(2))
    timeline = node.timeline()
    regression = node.regression(timeline)
    with pytest.raises(WindowingError, match="stride"):
        windowed_for(node, timeline, regression, 0)


def test_snapshot_under_other_devices_is_refused():
    """A snapshot records its declared device sets: an accumulator
    declared otherwise refuses it and stays as it was (a restoring
    server then replays the journal), one declared alike loads it."""
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    timeline = node.timeline()
    regression = node.regression(timeline)
    accumulator = windowed_for(node, timeline, regression, int(ms(100)))
    accumulator.feed_columns(take_rows(node.logger.columns(), slice(60)))
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
    accumulator.feed_columns(take_rows(columns, slice(first_led)))
    with pytest.raises(LoggerError, match="did not declare"):
        accumulator.feed_columns(
            take_rows(columns, slice(first_led, first_led + 2)))
    assert accumulator.live_breakdown()["span_ns"] >= 0
    accumulator.snapshot()
    clean = without_led()
    clean.feed_columns(take_rows(columns, slice(first_led)))
    served, expected = accumulator.finish(), clean.finish()
    assert list(served.energy_j.items()) == list(expected.energy_j.items())
    assert list(served.time_ns.items()) == list(expected.time_ns.items())
    assert served.reconstructed_energy_j == expected.reconstructed_energy_j
