"""The streaming pipeline: log -> TimelineStream -> EnergyAccumulator.

The streaming path is the reference every product path is held to bit
for bit by the differential harness (``tests/differential.py``, run
over every path by ``tests/test_differential.py``).  Pinned here:

* **Byte-identity** — on real logs from every kind of workload
  (single-node Blink, the cross-node Bounce with proxy binds, multihop
  collection), the one-log entry point ``build_energy_map`` under each
  analysis backend gives the streaming reference's map (same float
  bits, same dict insertion order) in both proxy-folding modes, and the
  harness's columnar check (decode, the stream's emitted intervals and
  segments against the columnar build, both maps) passes;
* ``iter_entries`` decodes lazily;
* **bounded memory** — with binds untracked (the ``fold_proxies=False``
  accounting path), the stream's open state and the accumulator's
  pending-segment buffer stay flat as the log grows.
"""

import pytest

import differential
from differential import (
    assert_same_map,
    check_columnar,
    node_case,
    regression,
)
from repro.core.accounting import (
    ANALYSIS_BACKENDS,
    EnergyAccumulator,
    build_energy_map,
)
from repro.core.logger import ENTRY_STRUCT, decode_log, iter_entries
from repro.experiments.common import run_blink
from repro.tos.node import COMPONENT_NAMES
from repro.units import seconds


@pytest.fixture(scope="module")
def blink():
    return node_case("blink", differential.blink_node())


def assert_node_streams_identically(case, backend):
    """``build_energy_map`` over ``case``'s timeline with ``backend``
    gives the streaming reference's map in both proxy modes; on the
    columnar backend the harness's whole columnar check runs too."""
    timeline = case.timeline()
    for fold in (False, True):
        emap = build_energy_map(
            timeline, case.regression, case.registry, case.names,
            case.pulse_j, fold_proxies=fold, idle_name=case.idle_name,
            backend=backend)
        assert_same_map(case, f"{backend} fold_proxies={fold}",
                        case.oracle_map(fold), emap)
    if backend == "columnar":
        check_columnar(case)


@pytest.mark.parametrize("backend", ANALYSIS_BACKENDS)
def test_blink_streams_identically(blink, backend):
    assert_node_streams_identically(blink, backend)


@pytest.mark.parametrize("backend", ANALYSIS_BACKENDS)
def test_bounce_network_streams_identically(backend):
    """Cross-node Bounce exercises proxies, binds, and remote labels —
    the retrospective part of the fold path."""
    network = differential.bounce_network()
    for node_id in (1, 4):
        assert_node_streams_identically(
            node_case(f"bounce-{node_id}", network.node(node_id)), backend)


@pytest.mark.parametrize("backend", ANALYSIS_BACKENDS)
def test_collection_network_streams_identically(backend):
    """Multihop collection: forwarding queues, multi-activity timers."""
    network = differential.collection_network()
    for node_id in (11, 12, 13):
        assert_node_streams_identically(
            node_case(f"collection-{node_id}", network.node(node_id)),
            backend)


def test_timeline_stream_matches_builder_on_blink(blink):
    """The stream's emitted intervals, segments and multi-device spans
    equal the ones the columnar timeline builds for the whole log."""
    check_columnar(blink, folds=())


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


@pytest.mark.parametrize("fold", [False])
def test_stream_open_state_independent_of_log_length(fold):
    from repro.core.labels import ActivityRegistry

    registry = ActivityRegistry()
    peaks = []
    for n_cycles in (200, 800, 3200):
        raw, end_ns = _synthetic_log(n_cycles)
        accumulator = EnergyAccumulator(
            regression({}, 0.001), registry, {0: "CPU"}, 1e-6,
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
