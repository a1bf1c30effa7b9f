"""The streaming pipeline: log -> TimelineStream -> EnergyAccumulator.

Two contracts pin the refactor down:

* **Byte-identity** — the streaming path produces an EnergyMap exactly
  equal to the batch path (same float bits, same dict insertion order)
  on real logs from every kind of workload: single-node Blink, the
  cross-node Bounce with proxy binds, and multihop collection — in both
  proxy-folding modes.
* **Bounded memory** — with binds untracked (the ``fold_proxies=False``
  accounting path), the stream's open state and the accumulator's
  pending-segment buffer stay flat as the log grows.
"""

import struct

import numpy as np
import pytest

import oracle
from repro.core.accounting import EnergyAccumulator, build_energy_map
from repro.core.logger import ENTRY_STRUCT, decode_log, iter_entries
from repro.core.regression import RegressionResult
from repro.core.timeline import TimelineStream
from repro.experiments.common import run_blink
from repro.tos.network import Network
from repro.tos.node import COMPONENT_NAMES, NodeConfig
from repro.units import ms, seconds


#: Both analysis implementations must reproduce the batch reference
#: exactly from the same decoded entries: "streaming" feeds the
#: accumulator, "columnar" routes them through the column pipeline.
BACKENDS = tuple(oracle.ANALYZE)


def _stream_map_for(node, timeline, regression, fold_proxies,
                    backend="streaming"):
    return oracle.ANALYZE[backend](
        iter_entries(node.logger.raw_bytes()),
        regression,
        node.registry,
        COMPONENT_NAMES,
        node.platform.icount.nominal_energy_per_pulse_j,
        fold_proxies=fold_proxies,
        idle_name=node.registry.name_of(node.idle),
        end_time_ns=timeline.end_time_ns,
        single_res_ids=node.single_res_ids,
        multi_res_ids=node.multi_res_ids,
    )


def _assert_node_streams_identically(node, backend="streaming"):
    timeline = node.timeline()
    regression = node.regression(timeline)
    for fold in (False, True):
        batch = build_energy_map(
            timeline, regression, node.registry, COMPONENT_NAMES,
            node.platform.icount.nominal_energy_per_pulse_j,
            fold_proxies=fold,
            idle_name=node.registry.name_of(node.idle),
            backend="streaming",
        )
        stream = _stream_map_for(node, timeline, regression, fold,
                                 backend=backend)
        oracle.assert_same_map(batch, stream)


@pytest.mark.parametrize("backend", BACKENDS)
def test_blink_streams_identically(backend):
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    _assert_node_streams_identically(node, backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_bounce_network_streams_identically(backend):
    """Cross-node Bounce exercises proxies, binds, and remote labels —
    the retrospective part of the fold path."""
    from repro.apps.bounce import BounceApp

    network = Network(seed=1)
    network.add_node(NodeConfig(node_id=1, mac="csma"))
    network.add_node(NodeConfig(node_id=4, mac="csma"))
    app1 = BounceApp(peer_id=4, originate_delay_ns=ms(250))
    app4 = BounceApp(peer_id=1, originate_delay_ns=ms(650))
    network.boot_all({1: app1.start, 4: app4.start})
    network.run(seconds(3))
    for node_id in (1, 4):
        _assert_node_streams_identically(network.node(node_id), backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_collection_network_streams_identically(backend):
    """Multihop collection: forwarding queues, multi-activity timers."""
    from repro.apps.collection import build_line_topology

    network = Network(seed=5)
    for node_id in (10, 11, 12):
        network.add_node(NodeConfig(node_id=node_id, mac="csma"))
    apps = build_line_topology(network, [10, 11, 12], root_id=10,
                               sample_period_ns=seconds(4))
    network.boot_all({nid: app.start for nid, app in apps.items()})
    network.run(seconds(10))
    for node_id in (10, 11, 12):
        _assert_node_streams_identically(network.node(node_id), backend)


def test_timeline_stream_matches_builder_on_blink():
    """The stream's emitted intervals/segments equal the ones the node's
    (columnar) timeline builds for the whole log."""
    node, _app, _sim = run_blink(seed=2, duration_ns=seconds(4))
    timeline = node.timeline()
    intervals, segments, multis = [], [], []
    stream = TimelineStream(
        single_res_ids=node.single_res_ids,
        multi_res_ids=node.multi_res_ids,
        on_interval=intervals.append,
        on_segment=segments.append,
        on_multi_segment=multis.append,
    )
    stream.feed_all(iter_entries(node.logger.raw_bytes()),
                    timeline.end_time_ns)
    assert intervals == timeline.power_intervals()
    batch_segments = [
        seg for res_id in timeline.single_device_ids()
        for seg in timeline.activity_segments(res_id)
    ]
    # The stream interleaves devices by close time; compare as sets of
    # value tuples (each segment appears exactly once on both sides).
    def seg_key(seg):
        return (seg.res_id, seg.t0_ns, seg.t1_ns, seg.label, seg.bound_to)

    assert sorted(map(seg_key, segments)) == \
        sorted(map(seg_key, batch_segments))
    batch_multis = []
    for res_id in timeline.multi_device_ids():
        spans = timeline.multi_columns(res_id)
        batch_multis += [
            (res_id, t0, t1, timeline.label_sets[set_id])
            for t0, t1, set_id in zip(
                spans.t0.tolist(), spans.t1.tolist(), spans.set_ids)]
    assert sorted((m.res_id, m.t0_ns, m.t1_ns, m.labels) for m in multis) \
        == sorted(batch_multis)


def test_iter_entries_is_lazy_and_equals_decode():
    node, _app, _sim = run_blink(seed=0, duration_ns=seconds(2))
    raw = node.logger.raw_bytes()
    iterator = iter_entries(raw)
    first = next(iterator)
    assert first.seq == 0
    assert [first, *iterator] == decode_log(raw)


# -- bounded memory ---------------------------------------------------------


RED = 0x0101
BLUE = 0x0102


def _synthetic_log(n_cycles):
    """A log that alternates activity changes and power toggles so
    segments and intervals keep closing; length grows with n_cycles."""
    rows = [(6, 0, 0, 0, 0)]  # boot: device 0 baseline
    t = 100
    for i in range(n_cycles):
        rows.append((2, 0, t, i * 7, RED if i % 2 else BLUE))  # act change
        rows.append((1, 0, t + 40, i * 7 + 3, i % 2))  # power toggle
        t += 100
    raw = b"".join(ENTRY_STRUCT.pack(*row) for row in rows)
    return raw, t * 1000


def _minimal_regression():
    return RegressionResult(
        columns=[], power_w={}, const_power_w=0.001, voltage=3.0,
        y=np.zeros(1), y_hat=np.zeros(1), weights=np.ones(1),
        group_states=[], group_time_ns=[], group_energy_j=[],
    )


@pytest.mark.parametrize("fold", [False])
def test_stream_open_state_independent_of_log_length(fold):
    from repro.core.labels import ActivityRegistry

    registry = ActivityRegistry()
    peaks = []
    for n_cycles in (200, 800, 3200):
        raw, end_ns = _synthetic_log(n_cycles)
        accumulator = EnergyAccumulator(
            _minimal_regression(), registry, {0: "CPU"}, 1e-6,
            fold_proxies=fold, single_res_ids=[0], end_time_ns=end_ns,
        )
        accumulator.feed_all(iter_entries(raw))
        # The O(1)-maintained high-water mark must bound the polled
        # live state (they are computed independently).
        assert accumulator.stream.open_items() \
            <= accumulator.stream.peak_open_items
        peaks.append((accumulator.stream.peak_open_items,
                      accumulator.peak_pending_segments))
    # 16x more log, same high-water marks: the streaming contract.
    assert peaks[0] == peaks[1] == peaks[2]
    open_peak, pending_peak = peaks[0]
    assert open_peak <= 4
    assert pending_peak <= 4


def test_stream_peak_flat_on_real_blink_as_log_grows():
    """On real Blink logs the stream's live state stays at its small
    plateau while the materialized reconstruction grows with runtime."""
    def measure(duration_s):
        node, _app, _sim = run_blink(seed=1, duration_ns=seconds(duration_s))
        timeline = node.timeline()
        total_segments = sum(
            len(timeline.activity_segments(res_id))
            for res_id in timeline.single_device_ids())
        accumulator = EnergyAccumulator(
            node.regression(timeline), node.registry, COMPONENT_NAMES,
            node.platform.icount.nominal_energy_per_pulse_j,
            fold_proxies=False,
            idle_name=node.registry.name_of(node.idle),
            single_res_ids=node.single_res_ids,
            multi_res_ids=node.multi_res_ids,
            end_time_ns=timeline.end_time_ns,
        )
        accumulator.feed_all(iter_entries(node.logger.raw_bytes()))
        return (total_segments, accumulator.stream.peak_open_items,
                accumulator.peak_pending_segments)

    total_short, open_short, pending_short = measure(8)
    total_long, open_long, pending_long = measure(32)
    assert total_long > 3 * total_short  # the batch product keeps growing
    assert open_long == open_short  # ...the live state does not
    assert pending_long == pending_short
    assert open_long < 32 and pending_long < 32
