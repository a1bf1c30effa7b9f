"""Timeline reconstruction: power intervals, activity segments, binds."""

import struct

import pytest

from repro.core.labels import ActivityLabel
from repro.core.logger import (
    ENTRY_STRUCT,
    TYPE_ACT_ADD,
    TYPE_ACT_BIND,
    TYPE_ACT_CHANGE,
    TYPE_ACT_REMOVE,
    TYPE_BOOT,
    TYPE_POWERSTATE,
    LogColumns,
    decode_log,
)
from repro.core.timeline import ColumnarTimeline, TimelineStream
from repro.errors import LoggerError

RED = ActivityLabel(1, 1).encode()
BLUE = ActivityLabel(1, 2).encode()
PROXY = ActivityLabel(1, 0xC8).encode()
PROXY2 = ActivityLabel(1, 0xC9).encode()
REMOTE = ActivityLabel(4, 1).encode()


def _entries(*rows):
    """rows: (type, res_id, time_us, icount, value)."""
    raw = b"".join(ENTRY_STRUCT.pack(*row) for row in rows)
    return decode_log(raw)


def _timeline(entries, end_time_ns):
    """The timeline of a log whose devices are single 0 and multi 9."""
    return ColumnarTimeline(LogColumns.from_entries(entries),
                            end_time_ns=end_time_ns, single_res_ids=[0],
                            multi_res_ids=[9])


def test_power_intervals_basic():
    entries = _entries(
        (TYPE_BOOT, 0, 0, 0, 0),
        (TYPE_BOOT, 1, 0, 0, 0),
        (TYPE_POWERSTATE, 1, 100, 10, 1),   # LED on at 100 us
        (TYPE_POWERSTATE, 1, 300, 40, 0),   # LED off at 300 us
    )
    timeline = _timeline(entries, 400_000)
    intervals = timeline.power_intervals()
    # Two measured intervals; time past the last record (300..400 us) is
    # unobservable energy-wise and is not fabricated.
    assert len(intervals) == 2
    first, second = intervals
    assert (first.t0_ns, first.t1_ns, first.pulses) == (0, 100_000, 10)
    assert dict(first.states) == {0: 0, 1: 0}
    assert dict(second.states)[1] == 1
    assert second.pulses == 30
    assert second.t1_ns == 300_000


def test_power_interval_energy():
    entries = _entries(
        (TYPE_BOOT, 0, 0, 0, 0),
        (TYPE_POWERSTATE, 0, 100, 12, 1),
    )
    timeline = _timeline(entries, 200_000)
    interval = timeline.power_intervals()[0]
    assert interval.energy_j(8.33e-6) == pytest.approx(12 * 8.33e-6)
    assert interval.state_of(0) == 0
    assert interval.state_of(99) is None


def test_simultaneous_changes_fold_into_one_boundary():
    entries = _entries(
        (TYPE_BOOT, 0, 0, 0, 0),
        (TYPE_BOOT, 1, 0, 0, 0),
        (TYPE_POWERSTATE, 0, 100, 5, 1),
        (TYPE_POWERSTATE, 1, 100, 5, 1),  # same microsecond
        (TYPE_POWERSTATE, 0, 200, 9, 0),
    )
    timeline = _timeline(entries, 300_000)
    intervals = timeline.power_intervals()
    # [0,100) both off; [100,200) both on (one boundary, not two).
    assert len(intervals) == 2
    assert dict(intervals[1].states) == {0: 1, 1: 1}


def test_activity_segments_basic():
    entries = _entries(
        (TYPE_ACT_CHANGE, 0, 0, 0, RED),
        (TYPE_ACT_CHANGE, 0, 100, 0, BLUE),
        (TYPE_ACT_CHANGE, 0, 250, 0, RED),
    )
    timeline = _timeline(entries, 400_000)
    segments = timeline.activity_segments(0)
    assert [(s.t0_ns, s.t1_ns, s.label.encode()) for s in segments] == [
        (0, 100_000, RED),
        (100_000, 250_000, BLUE),
        (250_000, 400_000, RED),
    ]


def test_bind_marks_proxy_segment():
    entries = _entries(
        (TYPE_ACT_CHANGE, 0, 0, 0, PROXY),
        (TYPE_ACT_BIND, 0, 100, 0, REMOTE),
        (TYPE_ACT_CHANGE, 0, 200, 0, RED),
    )
    timeline = _timeline(entries, 300_000)
    segments = timeline.activity_segments(0)
    proxy_seg = segments[0]
    assert proxy_seg.label.encode() == PROXY
    assert proxy_seg.bound_to is not None
    assert proxy_seg.bound_to.encode() == REMOTE
    assert proxy_seg.effective_label.encode() == REMOTE
    # The bound span itself is charged to the remote activity.
    assert segments[1].label.encode() == REMOTE


def test_bind_resolves_all_unresolved_proxy_segments():
    """Multiple proxy spans (interrupt, SPI pairs) before the decode bind:
    all of them belong to the bound activity."""
    entries = _entries(
        (TYPE_ACT_CHANGE, 0, 0, 0, PROXY),
        (TYPE_ACT_CHANGE, 0, 50, 0, RED),      # interrupted by other work
        (TYPE_ACT_CHANGE, 0, 100, 0, PROXY),   # proxy again
        (TYPE_ACT_BIND, 0, 150, 0, REMOTE),    # decode: bind proxy
    )
    timeline = _timeline(entries, 200_000)
    segments = timeline.activity_segments(0)
    proxy_segments = [s for s in segments if s.label.encode() == PROXY]
    assert len(proxy_segments) == 2
    assert all(s.effective_label.encode() == REMOTE for s in proxy_segments)


def test_bind_chains_resolve_transitively():
    """UART proxy bound to RX proxy bound to the remote activity."""
    entries = _entries(
        (TYPE_ACT_CHANGE, 0, 0, 0, PROXY2),   # int_UART0RX
        (TYPE_ACT_BIND, 0, 50, 0, PROXY),     # bound to pxy_RX
        (TYPE_ACT_BIND, 0, 100, 0, REMOTE),   # pxy_RX bound to 4:...
    )
    timeline = _timeline(entries, 150_000)
    segments = timeline.activity_segments(0)
    uart_seg = segments[0]
    assert uart_seg.label.encode() == PROXY2
    assert uart_seg.effective_label.encode() == REMOTE


def test_multi_activity_segments():
    entries = _entries(
        (TYPE_ACT_ADD, 9, 0, 0, RED),
        (TYPE_ACT_ADD, 9, 100, 0, BLUE),
        (TYPE_ACT_REMOVE, 9, 200, 0, RED),
    )
    timeline = _timeline(entries, 300_000)
    spans = timeline._multis.get(9)
    assert spans.t0.tolist() == [0, 100_000, 200_000]
    assert spans.t1.tolist() == [100_000, 200_000, 300_000]
    sets = [frozenset(l.encode() for l in timeline.label_sets[set_id])
            for set_id in spans.set_ids]
    assert sets == [
        frozenset({RED}),
        frozenset({RED, BLUE}),
        frozenset({BLUE}),
    ]


def test_device_kind_inference():
    """Only the streaming reference infers devices, from entry types:
    a change marks a single device, an add a multi one.  The columnar
    timeline refuses a record of a device it was not told of."""
    entries = _entries(
        (TYPE_ACT_CHANGE, 0, 0, 0, RED),
        (TYPE_ACT_ADD, 9, 0, 0, RED),
    )
    stream = TimelineStream()
    stream.feed_all(entries, 100_000)
    assert stream.single_device_ids() == [0]
    assert stream.multi_device_ids() == [9]
    with pytest.raises(LoggerError, match="device 9"):
        ColumnarTimeline(LogColumns.from_entries(entries),
                         single_res_ids=[0, 9], multi_res_ids=[])


def test_empty_log():
    timeline = _timeline([], 0)
    assert timeline.power_intervals() == []
    assert timeline.activity_segments(0) == []
    assert len(timeline._multis.get(9)) == 0
