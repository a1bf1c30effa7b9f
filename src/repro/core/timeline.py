"""Offline reconstruction of power-state intervals and activity segments.

The decoded log is a single interleaved stream of power-state changes and
activity changes across all devices.  This module rebuilds:

* **Power intervals** — maximal spans during which *every* sink's power
  state is constant, each annotated with the iCount pulse delta (the
  ``(dE, dt, alpha-vector)`` tuples that feed the Section 2.5 regression);
* **Activity segments** — per-device spans painted with one activity
  (single-activity devices) or a set (multi-activity devices), with proxy
  ``bind`` events resolved so a proxy segment knows which real activity
  absorbed it.

Two independent reconstructions produce the same spans:

* :class:`ColumnarTimeline` — the whole log as column arrays, rebuilt
  with vectorized passes over :class:`~repro.core.logger.LogColumns`.
  It is the one timeline type every caller holds
  (:meth:`repro.tos.node.QuantoNode.timeline` returns it) and the input
  of the columnar analysis backend.
* :class:`TimelineStream` — the streaming visitor, the reference the
  columnar path is tested against.  Feed it decoded entries in log
  order and it emits each :class:`PowerInterval`,
  :class:`ActivitySegment`, and :class:`MultiActivitySegment` through a
  callback *the moment it closes*.  Its working state is the set of
  currently-open spans (one per device plus one power interval), so a
  log of any length can be folded into an energy map without the entry
  list, interval list, or segment lists ever being materialized.

One semantic caveat is inherent to the paper's bind model: a proxy
segment's ``bound_to`` may be assigned *after* the segment closed (a
bind reaches back over every unresolved segment of the label it binds).
The stream therefore emits segments whose ``bound_to`` can still mutate
until the stream finishes; consumers that fold proxies must defer label
resolution (see :class:`repro.core.accounting.EnergyAccumulator`), and
consumers that do not (``fold_proxies=False``) can run with
``track_binds=False`` for strictly bounded memory.

Everything here consumes only the log plus instrumentation metadata (which
res_ids exist, what their state values are named) — never ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Optional

import numpy as np

from repro.core.labels import ActivityLabel
from repro.core.logger import (
    LogColumns,
    LogEntry,
    TYPE_ACT_ADD,
    TYPE_ACT_BIND,
    TYPE_ACT_CHANGE,
    TYPE_ACT_REMOVE,
    TYPE_BOOT,
    TYPE_POWERSTATE,
)
from repro.errors import LoggerError, RegressionError


@dataclass(slots=True)
class PowerInterval:
    """A span of constant power states across all sinks.

    Not frozen (cheap construction on the per-interval hot path); treat
    as immutable once emitted.
    """

    t0_ns: int
    t1_ns: int
    pulses: int  # iCount pulses accumulated over the interval
    states: tuple[tuple[int, int], ...]  # sorted (res_id, value) pairs

    @property
    def dt_ns(self) -> int:
        return self.t1_ns - self.t0_ns

    def energy_j(self, energy_per_pulse_j: float) -> float:
        return self.pulses * energy_per_pulse_j

    def state_of(self, res_id: int) -> Optional[int]:
        for rid, value in self.states:
            if rid == res_id:
                return value
        return None


@dataclass(slots=True)
class ActivitySegment:
    """A span during which one device was painted with one activity."""

    res_id: int
    t0_ns: int
    t1_ns: int
    label: ActivityLabel
    bound_to: Optional[ActivityLabel] = None

    @property
    def dt_ns(self) -> int:
        return self.t1_ns - self.t0_ns

    @property
    def effective_label(self) -> ActivityLabel:
        """The activity this segment's usage is charged to (the bind
        target when a proxy was resolved, else the painted label)."""
        return self.bound_to if self.bound_to is not None else self.label


@dataclass(slots=True)
class MultiActivitySegment:
    """A span during which a multi-activity device served a label set."""

    res_id: int
    t0_ns: int
    t1_ns: int
    labels: frozenset[ActivityLabel]

    @property
    def dt_ns(self) -> int:
        return self.t1_ns - self.t0_ns


# -- streaming trackers ----------------------------------------------------
#
# Each tracker owns one kind of open span and pushes closed spans to an
# ``emit`` callback.  They are the single source of truth for the
# streaming reconstruction's semantics; TimelineStream is wiring
# around them.


class _IntervalTracker:
    """Folds BOOT/POWERSTATE entries into closed :class:`PowerInterval`s.

    State: the current power-state vector (interned), the open span's
    start time and pulse count, and the last entry seen — O(sinks),
    independent of log length.
    """

    __slots__ = ("emit", "bump", "_states", "_interned", "_vector",
                 "_dirty", "_span_start_ns", "_span_start_pulses",
                 "_last_time_ns", "_last_icount", "_saw_any",
                 "last_emitted_t1_ns")

    def __init__(self, emit: Callable[[PowerInterval], None],
                 bump: Optional[Callable[[int], None]] = None) -> None:
        self.emit = emit
        self.bump = bump
        self._states: dict[int, int] = {}
        self._interned: dict[tuple[tuple[int, int], ...],
                             tuple[tuple[int, int], ...]] = {}
        self._vector: tuple[tuple[int, int], ...] = ()
        self._dirty = False
        self._span_start_ns: Optional[int] = None
        self._span_start_pulses = 0
        self._last_time_ns = 0
        self._last_icount = 0
        self._saw_any = False
        self.last_emitted_t1_ns: Optional[int] = None

    def _current_vector(self) -> tuple[tuple[int, int], ...]:
        # The state vector is rebuilt only when a transition actually
        # changed it, and equal vectors are interned to one tuple — the
        # regression groups intervals by vector, so identical objects make
        # that grouping (and this loop) allocation-light.
        if self._dirty:
            built = tuple(sorted(self._states.items()))
            self._vector = self._interned.setdefault(built, built)
            self._dirty = False
        return self._vector

    def _set_state(self, res_id: int, value: int) -> None:
        if self._states.get(res_id) != value:
            self._states[res_id] = value
            self._dirty = True

    def note_record(self, time_ns: int, icount: int) -> None:
        """Advance the "last record" watermark without an interval
        boundary — for entries of other types: the trailing interval
        ends at the last *record*, whatever it was (energy past it is
        unobservable)."""
        self._saw_any = True
        self._last_time_ns = time_ns
        self._last_icount = icount

    def feed(self, entry: LogEntry) -> None:
        # Every entry type updates the "last record" watermark (see
        # note_record).
        self._saw_any = True
        self._last_time_ns = entry.time_ns
        self._last_icount = entry.icount
        entry_type = entry.type
        if entry_type == TYPE_BOOT:
            # Boot entries establish the initial vector without opening
            # an interval boundary.
            self._set_state(entry.res_id, entry.value)
            if self._span_start_ns is None:
                self._span_start_ns = entry.time_ns
                self._span_start_pulses = entry.icount
                if self.bump is not None:
                    self.bump(1)
            return
        if entry_type != TYPE_POWERSTATE:
            return
        if self._span_start_ns is None:
            self._span_start_ns = entry.time_ns
            self._span_start_pulses = entry.icount
            self._set_state(entry.res_id, entry.value)
            if self.bump is not None:
                self.bump(1)
            return
        time_ns = entry.time_ns
        if time_ns > self._span_start_ns:
            interval = PowerInterval(
                t0_ns=self._span_start_ns,
                t1_ns=time_ns,
                pulses=entry.icount - self._span_start_pulses,
                states=self._current_vector(),
            )
            self._span_start_ns = time_ns
            self._span_start_pulses = entry.icount
            self.last_emitted_t1_ns = time_ns
            self.emit(interval)
        self._set_state(entry.res_id, entry.value)

    def finish(self) -> None:
        """Close the trailing span at the last record.  Time past the
        last record is unobservable, exactly as when a real node dumps
        its log.  Idempotent: the span is consumed, so a second finish
        emits nothing."""
        if self._span_start_ns is None or not self._saw_any:
            return
        if self._last_time_ns > self._span_start_ns:
            interval = PowerInterval(
                t0_ns=self._span_start_ns,
                t1_ns=self._last_time_ns,
                pulses=max(self._last_icount - self._span_start_pulses, 0),
                states=self._current_vector(),
            )
            self.last_emitted_t1_ns = self._last_time_ns
            self.emit(interval)
        self._span_start_ns = None

    def open_count(self) -> int:
        return 1 if self._span_start_ns is not None else 0


class _SingleTracker:
    """Rebuilds one single-activity device's painted history.

    Bind semantics follow the paper: "the resources used by a proxy
    activity are accounted for separately, and then assigned to the
    real activity as soon as the system can determine what this
    activity is."  Concretely, a bind of label ``N`` while the device
    carries label ``L`` resolves *every not-yet-resolved segment of
    L* (one reception episode spans many proxy fragments interleaved
    with sleep), and resolution chains transitively — a UART proxy
    bound to the RX proxy bound to a remote activity ends up charged
    to the remote activity.

    ``bind_horizon_ns`` optionally limits how far back a bind
    reaches; useful when the same proxy has unrelated earlier
    episodes that legitimately never resolved (e.g. LPL false
    positives followed by a real reception).

    ``track_binds=False`` drops the unresolved-segment bookkeeping
    entirely: closed segments are emitted and forgotten, so memory is
    bounded by the one open segment.  ``bound_to`` is then never set —
    only valid for consumers that read ``label``, not
    ``effective_label`` (i.e. ``fold_proxies=False`` accounting).
    """

    __slots__ = ("res_id", "emit", "bump", "track_binds",
                 "bind_horizon_ns", "_unresolved", "_open")

    def __init__(
        self,
        res_id: int,
        emit: Callable[[ActivitySegment], None],
        track_binds: bool = True,
        bind_horizon_ns: Optional[int] = None,
        bump: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.res_id = res_id
        self.emit = emit
        self.bump = bump
        self.track_binds = track_binds
        self.bind_horizon_ns = bind_horizon_ns
        # Segments awaiting resolution, keyed by the label they are
        # currently attributed to (their own label, or a proxy they were
        # already bound to).
        self._unresolved: dict[ActivityLabel, list[ActivitySegment]] = {}
        # The currently-open segment (t1_ns finalized at close), or None.
        self._open: Optional[ActivitySegment] = None

    @property
    def open_segment(self) -> Optional[ActivitySegment]:
        return self._open

    def _close(self, t1_ns: int) -> None:
        segment = self._open
        if segment is None:
            return
        self._open = None
        if self.bump is not None:
            self.bump(-1)
        if t1_ns <= segment.t0_ns:
            return  # zero-length: never existed
        segment.t1_ns = t1_ns
        if self.track_binds:
            self._unresolved.setdefault(segment.label, []).append(segment)
            if self.bump is not None:
                self.bump(1)
        self.emit(segment)

    def feed(self, entry: LogEntry) -> None:
        if entry.type not in (TYPE_ACT_CHANGE, TYPE_ACT_BIND):
            return
        new_label = entry.label
        previous = self._open
        self._close(entry.time_ns)
        if (entry.type == TYPE_ACT_BIND and previous is not None
                and self.track_binds):
            pending = self._unresolved.pop(previous.label, [])
            kept: list[ActivitySegment] = []
            for segment in pending:
                if (self.bind_horizon_ns is not None
                        and entry.time_ns - segment.t1_ns
                        > self.bind_horizon_ns):
                    continue  # stale episode: stays unbound
                segment.bound_to = new_label
                kept.append(segment)
            # Transitivity: these now follow the new label's fate.
            if kept:
                self._unresolved.setdefault(new_label, []).extend(kept)
            if self.bump is not None:
                self.bump(len(kept) - len(pending))
        self._open = ActivitySegment(
            res_id=self.res_id, t0_ns=entry.time_ns, t1_ns=entry.time_ns,
            label=new_label,
        )
        if self.bump is not None:
            self.bump(1)

    def finish(self, end_time_ns: int) -> None:
        self._close(end_time_ns)

    def open_count(self) -> int:
        count = 1 if self._open is not None else 0
        if self.track_binds:
            count += sum(len(v) for v in self._unresolved.values())
        return count


class _MultiTracker:
    """Rebuilds one multi-activity device's label-set history."""

    __slots__ = ("res_id", "emit", "bump", "_current", "_start_ns",
                 "_started")

    def __init__(self, res_id: int,
                 emit: Callable[[MultiActivitySegment], None],
                 bump: Optional[Callable[[int], None]] = None) -> None:
        self.res_id = res_id
        self.emit = emit
        self.bump = bump
        self._current: set[ActivityLabel] = set()
        self._start_ns = 0
        self._started = False

    @property
    def started(self) -> bool:
        return self._started

    @property
    def open_start_ns(self) -> int:
        return self._start_ns

    def current_labels(self) -> frozenset[ActivityLabel]:
        """Snapshot of the open span's label set (it mutates in place)."""
        return frozenset(self._current)

    def feed(self, entry: LogEntry) -> None:
        if entry.type not in (TYPE_ACT_ADD, TYPE_ACT_REMOVE):
            return
        if self._started and entry.time_ns > self._start_ns:
            self.emit(
                MultiActivitySegment(
                    res_id=self.res_id,
                    t0_ns=self._start_ns,
                    t1_ns=entry.time_ns,
                    labels=frozenset(self._current),
                )
            )
        if entry.type == TYPE_ACT_ADD:
            self._current.add(entry.label)
        else:
            self._current.discard(entry.label)
        self._start_ns = entry.time_ns
        if not self._started:
            self._started = True
            if self.bump is not None:
                self.bump(1)

    def finish(self, end_time_ns: int) -> None:
        if self._started and end_time_ns > self._start_ns:
            self.emit(
                MultiActivitySegment(
                    res_id=self.res_id,
                    t0_ns=self._start_ns,
                    t1_ns=end_time_ns,
                    labels=frozenset(self._current),
                )
            )
        if self._started:
            self._started = False
            if self.bump is not None:
                self.bump(-1)

    def open_count(self) -> int:
        return 1 if self._started else 0


def _ignore(_obj) -> None:
    pass


class TimelineStream:
    """The streaming visitor: feed entries in log order, receive each
    interval and segment through a callback the moment it closes.

    Entries must arrive sorted by ``(time_us, seq)`` — the order the
    logger writes them (``iter_entries`` yields them that way; the
    timestamps a node records are monotone).

    Devices may be declared up front (``single_res_ids`` /
    ``multi_res_ids``) or inferred from entry types as they arrive.
    ``peak_open_items`` tracks the high-water mark of open state (open
    interval + open segments + unresolved bind candidates), maintained
    by O(1) deltas at each span open/close so the instrumentation costs
    nothing on the per-entry path: with ``track_binds=False`` it is
    O(devices), independent of log length — the bounded-memory contract
    the tests pin down.
    """

    def __init__(
        self,
        *,
        single_res_ids: Optional[Iterable[int]] = None,
        multi_res_ids: Optional[Iterable[int]] = None,
        track_binds: bool = True,
        bind_horizon_ns: Optional[int] = None,
        on_interval: Optional[Callable[[PowerInterval], None]] = None,
        on_segment: Optional[Callable[[ActivitySegment], None]] = None,
        on_multi_segment: Optional[
            Callable[[MultiActivitySegment], None]] = None,
    ) -> None:
        self.track_binds = track_binds
        self.bind_horizon_ns = bind_horizon_ns
        self.on_segment = on_segment or _ignore
        self.on_multi_segment = on_multi_segment or _ignore
        self._open_items = 0
        self.peak_open_items = 0
        self.intervals = _IntervalTracker(on_interval or _ignore,
                                          bump=self._bump)
        self._single_ids: set[int] = set(single_res_ids or [])
        self._multi_ids: set[int] = set(multi_res_ids or [])
        self._singles: dict[int, _SingleTracker] = {
            res_id: self._make_single(res_id) for res_id in self._single_ids
        }
        self._multis: dict[int, _MultiTracker] = {
            res_id: _MultiTracker(res_id, self.on_multi_segment,
                                  bump=self._bump)
            for res_id in self._multi_ids
        }
        self._last_entry_time_ns = 0
        self._saw_any = False

    def _bump(self, delta: int) -> None:
        self._open_items += delta
        if self._open_items > self.peak_open_items:
            self.peak_open_items = self._open_items

    def _make_single(self, res_id: int) -> _SingleTracker:
        return _SingleTracker(
            res_id, self.on_segment,
            track_binds=self.track_binds,
            bind_horizon_ns=self.bind_horizon_ns,
            bump=self._bump,
        )

    # -- feeding -----------------------------------------------------------

    def feed(self, entry: LogEntry) -> None:
        self._saw_any = True
        time_ns = entry.time_ns
        self._last_entry_time_ns = time_ns
        entry_type = entry.type
        if entry_type == TYPE_POWERSTATE or entry_type == TYPE_BOOT:
            # Only power entries can open or close an interval; the
            # activity types below just advance the watermark.
            self.intervals.feed(entry)
            return
        self.intervals.note_record(time_ns, entry.icount)
        if entry_type == TYPE_ACT_CHANGE or entry_type == TYPE_ACT_BIND:
            res_id = entry.res_id
            # A change/bind marks a single-activity device unless the id
            # is already multi.
            if res_id not in self._multi_ids:
                tracker = self._singles.get(res_id)
                if tracker is None:
                    tracker = self._singles[res_id] = \
                        self._make_single(res_id)
                    self._single_ids.add(res_id)
                tracker.feed(entry)
        elif entry_type == TYPE_ACT_ADD or entry_type == TYPE_ACT_REMOVE:
            res_id = entry.res_id
            tracker = self._multis.get(res_id)
            if tracker is None:
                tracker = self._multis[res_id] = \
                    _MultiTracker(res_id, self.on_multi_segment,
                                  bump=self._bump)
                self._multi_ids.add(res_id)
            tracker.feed(entry)

    def feed_all(self, entries: Iterable[LogEntry],
                 end_time_ns: Optional[int] = None) -> None:
        """Feed a whole entry iterable, then :meth:`finish`."""
        for entry in entries:
            self.feed(entry)
        self.finish(end_time_ns)

    def finish(self, end_time_ns: Optional[int] = None) -> None:
        """Close every open span.  ``end_time_ns`` defaults to the last
        entry's time."""
        if end_time_ns is None:
            end_time_ns = self._last_entry_time_ns if self._saw_any else 0
        self.intervals.finish()
        for tracker in self._singles.values():
            tracker.finish(end_time_ns)
        for tracker in self._multis.values():
            tracker.finish(end_time_ns)

    # -- introspection ------------------------------------------------------

    def open_items(self) -> int:
        """Open spans plus retained bind candidates — the stream's live
        state, the quantity that must stay flat as the log grows."""
        return (
            self.intervals.open_count()
            + sum(t.open_count() for t in self._singles.values())
            + sum(t.open_count() for t in self._multis.values())
        )

    def single_tracker(self, res_id: int) -> Optional[_SingleTracker]:
        return self._singles.get(res_id)

    def multi_tracker(self, res_id: int) -> Optional[_MultiTracker]:
        return self._multis.get(res_id)

    def single_device_ids(self) -> list[int]:
        return sorted(self._single_ids)

    def multi_device_ids(self) -> list[int]:
        return sorted(self._multi_ids)


# -- columnar reconstruction ------------------------------------------------


@dataclass
class TimelineCarry:
    """The spans a batch-built :class:`ColumnarTimeline` hands to the
    next batch: the columnar form of the streaming trackers' state,
    O(devices) however long the stream.

    * ``states`` — each sink's current power-state value;
    * ``span_t0`` / ``span_pulses`` — the open power span (``None``: no
      power record seen yet);
    * ``last_time`` / ``last_icount`` — the last record of any type,
      where the trailing span closes at finish;
    * ``single_open`` — each single device's open segment,
      ``res_id -> (t0_ns, label encoding)``;
    * ``multi_open`` — each started multi device's open span,
      ``res_id -> (t0_ns, label encodings)``;
    * ``single_done`` / ``multi_done`` — segments already closed that
      end inside the open power span, so still overlap the interval it
      becomes: ``res_id -> (t0s, t1s, labels)``, label encodings for a
      single device, encoding sets for a multi one.
    """

    states: dict[int, int] = field(default_factory=dict)
    span_t0: Optional[int] = None
    span_pulses: int = 0
    last_time: Optional[int] = None
    last_icount: int = 0
    single_open: dict[int, tuple[int, int]] = field(default_factory=dict)
    multi_open: dict[int, tuple[int, frozenset[int]]] = field(
        default_factory=dict)
    single_done: dict[int, tuple] = field(default_factory=dict)
    multi_done: dict[int, tuple] = field(default_factory=dict)

    def copy(self) -> "TimelineCarry":
        return TimelineCarry(
            dict(self.states), self.span_t0, self.span_pulses,
            self.last_time, self.last_icount, dict(self.single_open),
            dict(self.multi_open), dict(self.single_done),
            dict(self.multi_done))

    def overlaps_open_span(self, t1: np.ndarray) -> np.ndarray:
        """Which closed segments (by end time) reach into the open
        power span — all of them before the span opens."""
        if self.span_t0 is None:
            return np.ones(len(t1), dtype=bool)
        return t1 > self.span_t0


class _SingleColumns:
    """One single-activity device's segments as parallel columns.

    ``t0``/``t1`` are sorted, non-overlapping int64 arrays (zero-length
    segments were never emitted); ``labels`` holds the painted 16-bit
    encodings and ``bound`` the bind-resolved encoding (``-1`` where no
    bind resolved the segment), both int64 arrays — the columnar form
    of :class:`ActivitySegment`.
    ``close_row`` is the row whose record closed each segment (see
    :meth:`ColumnarTimeline._segments_single`).
    """

    __slots__ = ("t0", "t1", "labels", "bound", "close_row")

    def __init__(self, t0, t1, labels, bound, close_row) -> None:
        self.t0 = t0
        self.t1 = t1
        self.labels = labels
        self.bound = bound
        self.close_row = close_row

    def __len__(self) -> int:
        return len(self.labels)

    def label_values(self, fold_proxies: bool) -> np.ndarray:
        """The encoding each segment is charged to: its bound label where
        a bind resolved one and ``fold_proxies`` asks for it, else its
        painted label."""
        if not fold_proxies:
            return self.labels
        return np.where(self.bound >= 0, self.bound, self.labels)


class _MultiColumns:
    """One multi-activity device's segments as parallel columns;
    ``set_ids`` indexes :attr:`ColumnarTimeline.label_sets` and
    ``close_row`` is as for :class:`_SingleColumns`."""

    __slots__ = ("t0", "t1", "set_ids", "close_row")

    def __init__(self, t0, t1, set_ids, close_row) -> None:
        self.t0 = t0
        self.t1 = t1
        self.set_ids = set_ids
        self.close_row = close_row

    def __len__(self) -> int:
        return len(self.set_ids)


def _odd_multipliers(count: int) -> np.ndarray:
    """``count`` fixed odd 64-bit multipliers (a 64-bit LCG walk)."""
    state, out = 0x5EED, []
    for _ in range(count):
        state = (state * 6364136223846793005 + 1442695040888963407) \
            & 0xFFFFFFFFFFFFFFFF
        out.append(state | 1)
    return np.array(out, dtype=np.uint64)


#: One multiplier per sink column: a state-vector row hashes to its dot
#: product with them (mod 2**64).
_ROW_HASH = _odd_multipliers(256)


def _intern_vectors(value_matrix: np.ndarray, sink_ids: list[int]):
    """State-vector rows (``-1``: sink not yet set) → interned vector
    tuples in sorted-``res_id`` order, numbered in first-occurrence
    order (the order the streaming tracker would have produced them):
    a unique over one 64-bit hash per row — checked against the rows
    themselves, with a byte-view unique of whole rows should two rows
    ever collide — plus a first-index renumbering, no per-row python.
    Returns ``(vectors, per-row vector ids)``."""
    if not len(value_matrix):
        return [], np.empty(0, dtype=np.intp)
    matrix = np.ascontiguousarray(value_matrix)
    if matrix.shape[1]:
        keys = (matrix.astype(np.uint64)
                * _ROW_HASH[:matrix.shape[1]]).sum(axis=1)
        _, first_idx, inverse = np.unique(
            keys, return_index=True, return_inverse=True)
        if not (matrix[first_idx][inverse] == matrix).all():
            row_view = matrix.view(
                [("", matrix.dtype)] * matrix.shape[1]).ravel()
            _, first_idx, inverse = np.unique(
                row_view, return_index=True, return_inverse=True)
    else:
        first_idx = np.zeros(1, dtype=np.intp)
        inverse = np.zeros(len(matrix), dtype=np.intp)
    rank = np.argsort(first_idx, kind="stable")
    remap = np.empty(len(first_idx), dtype=np.intp)
    remap[rank] = np.arange(len(first_idx), dtype=np.intp)
    vectors = [
        tuple((rid, value)
              for rid, value in zip(sink_ids, matrix[row].tolist())
              if value != -1)
        for row in first_idx[rank].tolist()
    ]
    return vectors, remap[inverse]


class ColumnarTimeline:
    """The whole reconstruction as column arrays: power intervals and
    activity segments rebuilt from :class:`~repro.core.logger.LogColumns`
    without materializing a single :class:`LogEntry`,
    :class:`PowerInterval`, or segment object (the views below build
    them on request).

    Semantics mirror the streaming trackers entry-for-entry (the
    backend-equivalence tests pin the outputs bit-for-bit):

    * intervals close at each power-state boundary and finally at the
      last record of *any* type; state vectors are interned tuples in
      sorted-``res_id`` order, exactly like :class:`_IntervalTracker`;
    * single-device segments span consecutive change/bind records, with
      zero-length spans dropped and the trailing span closed at
      ``end_time_ns``; bind events resolve every unresolved segment of
      the label they rebind, transitively, like :class:`_SingleTracker`
      with an unbounded horizon;
    * multi-device spans carry interned ``frozenset`` label sets — the
      *same* interned objects per distinct set, so downstream iteration
      order matches the streaming path's.

    Entries must be in log order, which is time order: a record
    stamped earlier than the one before it (in batch mode, also the
    carry's last record) raises :class:`~repro.errors.LoggerError`, so
    every interval the fold divides is strictly positive.  Devices may
    be declared up front (always the case on node paths); otherwise they
    are inferred over the whole log with the stream's in-order rule.

    With a ``carry`` the columns are one batch of a longer stream (see
    :meth:`_build_batch`): the batch continues the spans the carry holds
    open and, unless ``final``, hands back the spans still open at its
    end instead of closing them.
    """

    def __init__(
        self,
        columns: LogColumns,
        end_time_ns: Optional[int] = None,
        single_res_ids: Optional[Iterable[int]] = None,
        multi_res_ids: Optional[Iterable[int]] = None,
        carry: Optional[TimelineCarry] = None,
        final: bool = True,
    ) -> None:
        times = columns.time_ns
        last_time = carry.last_time if carry is not None else None
        if len(times) and (
                (last_time is not None and int(times[0]) < last_time)
                or bool((times[1:] < times[:-1]).any())):
            raise LoggerError(
                "log time goes backwards: the columnar timeline needs "
                "its records in time order")
        self.columns = columns
        self.label_sets: list[frozenset[ActivityLabel]] = []
        self._set_intern: dict[tuple[int, ...], int] = {}
        self._set_values: list[frozenset[int]] = []
        if carry is not None:
            self._build_batch(carry, end_time_ns, set(single_res_ids or []),
                              set(multi_res_ids or []), final)
            return
        n = len(columns)
        if end_time_ns is None:
            end_time_ns = int(columns.time_ns[-1]) if n else 0
        self.end_time_ns = end_time_ns
        types = columns.type
        res = columns.res_id
        is_single_entry = (types == TYPE_ACT_CHANGE) \
            | (types == TYPE_ACT_BIND)
        is_multi_entry = (types == TYPE_ACT_ADD) | (types == TYPE_ACT_REMOVE)
        self._single_ids = set(single_res_ids or [])
        self._multi_ids = set(multi_res_ids or [])
        # Whole-log device inference, replicating the stream's in-order
        # rule: add/remove marks a device multi; change/bind
        # marks it single only if it was not yet multi at that point —
        # i.e. its first change precedes its first add/remove.
        single_pos = np.nonzero(is_single_entry)[0]
        multi_pos = np.nonzero(is_multi_entry)[0]
        first_multi: dict[int, int] = {rid: -1 for rid in self._multi_ids}
        if len(multi_pos):
            rids, firsts = np.unique(res[multi_pos], return_index=True)
            for rid, first in zip(rids.tolist(), firsts.tolist()):
                pos = int(multi_pos[first])
                if rid not in first_multi:
                    first_multi[rid] = pos
                self._multi_ids.add(rid)
        if len(single_pos):
            rids, firsts = np.unique(res[single_pos], return_index=True)
            for rid, first in zip(rids.tolist(), firsts.tolist()):
                bound = first_multi.get(rid)
                if bound is None or int(single_pos[first]) < bound:
                    self._single_ids.add(rid)
        self._build_intervals(TimelineCarry(), final=True)
        self._singles: dict[int, _SingleColumns] = {}
        for rid in sorted(self._single_ids):
            mask = is_single_entry & (res == rid)
            rows = np.nonzero(mask)[0]
            # The streaming feed drops a change/bind the moment its
            # res_id is known to be multi, so rows at or past the
            # device's first add/remove (or all rows, when it was
            # declared multi up front: bound -1) never reach the
            # single tracker.
            bound = first_multi.get(rid)
            if bound is not None:
                rows = rows[rows < bound]
            self._singles[rid] = self._build_single(rid, rows)
        self._multis: dict[int, _MultiColumns] = {}
        for rid in sorted(self._multi_ids):
            mask = is_multi_entry & (res == rid)
            self._multis[rid] = self._segments_multi(
                rid, np.nonzero(mask)[0], TimelineCarry(),
                self.end_time_ns, final=True)

    # -- construction -------------------------------------------------------

    def _build_batch(self, carry: TimelineCarry,
                     end_time_ns: Optional[int], single_ids: set[int],
                     multi_ids: set[int], final: bool) -> None:
        """Batch mode: these rows continue the stream ``carry``
        describes, with exactly the streaming trackers' semantics.

        Devices are the given sets — no inference: a caller that meets
        a new device splits its batch there.  A device in both sets is
        covered as single, and its change/bind rows are dropped (the
        stream stops feeding its single tracker once it turns multi).
        Unless ``final``, the power span and every activity span still
        open at the batch's end go back into ``carry``; for covering,
        an open activity span is clamped at the batch's last record (no
        interval of the batch ends later).  ``final`` closes them as the
        stream's finish does: the trailing interval at the last record,
        activity spans at ``end_time_ns`` (default: the last record).

        Batch mode also records each interval's emitting row
        (``interval_row``; ``n`` for the trailing interval) and each
        segment's closing row (``close_row``: ``-1`` for a segment an
        earlier batch closed, ``n`` when closed at finish, ``n + 1``
        while still open).
        """
        columns = self.columns
        self._build_intervals(carry, final)
        last_time = carry.last_time if carry.last_time is not None else 0
        close_ns = end_time_ns if final and end_time_ns is not None \
            else last_time
        # Read by the fold only to separate devices' time bands, so it
        # must bound every segment and interval time of the batch.
        self.end_time_ns = max(close_ns, last_time)
        self._single_ids = single_ids
        self._multi_ids = multi_ids
        types = columns.type
        res = columns.res_id
        rows = np.nonzero((types == TYPE_ACT_CHANGE)
                          | (types == TYPE_ACT_BIND))[0]
        rows_res = res[rows]
        self._singles = {}
        for rid in sorted(single_ids):
            pos = rows[:0] if rid in multi_ids else rows[rows_res == rid]
            self._singles[rid] = self._segments_single(
                rid, pos, carry, close_ns, final)
        rows = np.nonzero((types == TYPE_ACT_ADD)
                          | (types == TYPE_ACT_REMOVE))[0]
        rows_res = res[rows]
        self._multis = {}
        for rid in sorted(multi_ids):
            self._multis[rid] = self._segments_multi(
                rid, rows[rows_res == rid], carry, close_ns, final)

    def _build_intervals(self, carry: TimelineCarry, final: bool) -> None:
        """Power entries → interval columns, continuing ``carry``'s open
        span and state vector (a fresh carry for a whole log).

        Equivalent to replaying :class:`_IntervalTracker` entry by
        entry:

        * the span opens at the first power/boot entry; every *non-boot*
          power entry at a time strictly later than the open span emits
          a boundary (same-time entries merge, boots never emit) —
          computed as a first-of-each-distinct-time mask;
        * pulses are the iCount deltas between consecutive boundaries;
        * the state vector at each boundary is the last value every sink
          set *before* the emitting entry (else its carried value) — a
          per-sink ``searchsorted`` forward fill — with equal rows
          interned (:func:`_intern_vectors`);
        * ``final`` closes the trailing span at the last record of any
          type, with the post-log state vector and non-negative clamped
          pulses; otherwise the span stays open in ``carry``.
        """
        columns = self.columns
        n = len(columns)
        if n:
            carry.last_time = int(columns.time_ns[n - 1])
            carry.last_icount = int(columns.icount[n - 1])
        types = columns.type
        p_pos = np.nonzero(
            (types == TYPE_POWERSTATE) | (types == TYPE_BOOT))[0]
        span_t0, span_ic = carry.span_t0, carry.span_pulses
        t0s = t1s = pulses = rows = np.empty(0, dtype=np.int64)
        sink_ids = sorted(carry.states)
        before = np.empty((0, len(sink_ids)), dtype=np.int64)
        post = [carry.states[rid] for rid in sink_ids]
        if len(p_pos):
            p_types = types[p_pos]
            p_time = columns.time_ns[p_pos]
            p_ic = columns.icount[p_pos]
            p_res = columns.res_id[p_pos]
            p_val = columns.value[p_pos]
            if span_t0 is None:
                span_t0, span_ic = int(p_time[0]), int(p_ic[0])
            candidates = np.nonzero(p_types != TYPE_BOOT)[0]
            cand_times = p_time[candidates]
            previous = np.empty_like(cand_times)
            if len(candidates):
                previous[0] = span_t0
                previous[1:] = cand_times[:-1]
            emit = candidates[cand_times > previous]
            if len(emit):
                b_time = p_time[emit]
                b_ic = p_ic[emit]
                t0s = np.concatenate(([span_t0], b_time[:-1]))
                t1s = b_time
                pulses = b_ic - np.concatenate(([span_ic], b_ic[:-1]))
                rows = p_pos[emit]
                span_t0, span_ic = int(b_time[-1]), int(b_ic[-1])
            sink_ids = sorted(set(sink_ids).union(np.unique(p_res).tolist()))
            queries = np.concatenate((emit, [len(p_pos)]))
            matrix = np.empty((len(queries), len(sink_ids)), dtype=np.int64)
            for column_index, rid in enumerate(sink_ids):
                matrix[:, column_index] = carry.states.get(rid, -1)
                writes = np.nonzero(p_res == rid)[0]
                if len(writes):
                    fill = np.searchsorted(writes, queries, side="left") - 1
                    seen = fill >= 0
                    matrix[seen, column_index] = p_val[writes[fill[seen]]]
            before = matrix[:-1]
            post = matrix[-1].tolist()
        carry.states = {rid: value for rid, value in zip(sink_ids, post)
                        if value != -1}
        if final:
            if span_t0 is not None and carry.last_time is not None \
                    and carry.last_time > span_t0:
                t0s = np.append(t0s, span_t0)
                t1s = np.append(t1s, carry.last_time)
                pulses = np.append(
                    pulses, max(carry.last_icount - span_ic, 0))
                rows = np.append(rows, n)
                before = np.vstack((before, [post]))
            span_t0 = None
        carry.span_t0, carry.span_pulses = span_t0, span_ic
        self.vectors, self.interval_vec = _intern_vectors(before, sink_ids)
        self.interval_t0 = t0s
        self.interval_t1 = t1s
        self.interval_pulses = pulses
        self.interval_row = rows

    def _segments_single(self, res_id: int, pos: np.ndarray,
                         carry: TimelineCarry, close_ns: int,
                         final: bool) -> _SingleColumns:
        """One device's change/bind rows → segment columns by painted
        label (a bind repaints like a change), after the closed segments
        ``carry`` still holds and continuing the segment it holds open:
        each segment spans one record to the next, the last one to
        ``close_ns``, zero-length spans dropped.  Unless ``final`` the
        last segment stays open in ``carry``, with the closed ones that
        reach into the open power span."""
        columns = self.columns
        n = len(columns)
        times = columns.time_ns[pos]
        values = columns.value[pos]
        ends = pos
        opened = carry.single_open.get(res_id)
        if opened is not None:
            times = np.concatenate(([opened[0]], times))
            values = np.concatenate(([opened[1]], values))
        else:
            ends = pos[1:]
        t0 = t1 = values[:0]
        if len(times):
            if final:
                carry.single_open.pop(res_id, None)
            else:
                carry.single_open[res_id] = (int(times[-1]),
                                             int(values[-1]))
            t1 = np.concatenate((times[1:], [close_ns]))
            ends = np.concatenate((ends, [n if final else n + 1]))
            keep = t1 > times
            t0, t1, values, ends = times[keep], t1[keep], values[keep], \
                ends[keep]
        done = carry.single_done.pop(res_id, None)
        if done is not None:
            t0 = np.concatenate((done[0], t0))
            t1 = np.concatenate((done[1], t1))
            values = np.concatenate((done[2], values))
            ends = np.concatenate((np.full(len(done[0]), -1), ends))
        if not final:
            alive = (ends < n) & carry.overlaps_open_span(t1)
            if alive.any():
                carry.single_done[res_id] = (t0[alive], t1[alive],
                                             values[alive])
        return _SingleColumns(t0=t0, t1=t1, labels=values,
                              bound=np.full(len(values), -1, dtype=np.int64),
                              close_row=ends)

    def _build_single(self, res_id: int, pos: np.ndarray) -> _SingleColumns:
        """One device's change/bind rows → segment columns, with the
        :class:`_SingleTracker` bind semantics (pop every unresolved
        segment of the rebound label; chain transitively)."""
        columns = self.columns
        bind_rows = columns.type[pos] == TYPE_ACT_BIND
        if not bind_rows.any():
            # No binds: the painted-label segments are the whole answer.
            return self._segments_single(res_id, pos, TimelineCarry(),
                                         self.end_time_ns, final=True)
        times = columns.time_ns[pos].tolist()
        labels = columns.value[pos].tolist()
        binds = bind_rows.tolist()
        rows = pos.tolist()
        t0s: list[int] = []
        t1s: list[int] = []
        seg_labels: list[int] = []
        bound: list[int] = []
        close_rows: list[int] = []
        unresolved: dict[int, list[int]] = {}
        open_label: Optional[int] = None
        open_t0 = 0
        for k in range(len(times)):
            t = times[k]
            new_label = labels[k]
            previous_label = open_label
            if open_label is not None and t > open_t0:
                index = len(seg_labels)
                t0s.append(open_t0)
                t1s.append(t)
                seg_labels.append(open_label)
                bound.append(-1)
                close_rows.append(rows[k])
                unresolved.setdefault(open_label, []).append(index)
            if binds[k] and previous_label is not None:
                pending = unresolved.pop(previous_label, [])
                if pending:
                    for index in pending:
                        bound[index] = new_label
                    unresolved.setdefault(new_label, []).extend(pending)
            open_label = new_label
            open_t0 = t
        if open_label is not None and self.end_time_ns > open_t0:
            t0s.append(open_t0)
            t1s.append(self.end_time_ns)
            seg_labels.append(open_label)
            bound.append(-1)
            close_rows.append(len(columns))
        return _SingleColumns(
            t0=np.array(t0s, dtype=np.int64),
            t1=np.array(t1s, dtype=np.int64),
            labels=np.array(seg_labels, dtype=np.int64),
            bound=np.array(bound, dtype=np.int64),
            close_row=np.array(close_rows, dtype=np.int64),
        )

    def _intern_set(self, values) -> int:
        key = tuple(sorted(values))
        set_id = self._set_intern.get(key)
        if set_id is None:
            set_id = len(self.label_sets)
            self._set_intern[key] = set_id
            self.label_sets.append(
                frozenset(ActivityLabel.decode(v) for v in key))
            self._set_values.append(frozenset(key))
        return set_id

    def _segments_multi(self, res_id: int, pos: np.ndarray,
                        carry: TimelineCarry, close_ns: int,
                        final: bool) -> _MultiColumns:
        """One device's add/remove rows → label-set spans, mirroring
        :class:`_MultiTracker` (snapshot emitted before each change) and
        continuing the span ``carry`` holds open; the last span runs to
        ``close_ns`` and, unless ``final``, stays open in ``carry``."""
        columns = self.columns
        n = len(columns)
        times = columns.time_ns[pos].tolist()
        labels = columns.value[pos].tolist()
        adds = (columns.type[pos] == TYPE_ACT_ADD).tolist()
        rows = pos.tolist()
        t0s: list[int] = []
        t1s: list[int] = []
        set_ids: list[int] = []
        close_rows: list[int] = []
        done = carry.multi_done.pop(res_id, None)
        if done is not None:
            t0s.extend(done[0])
            t1s.extend(done[1])
            set_ids.extend(self._intern_set(values) for values in done[2])
            close_rows.extend([-1] * len(done[0]))
        opened = carry.multi_open.get(res_id)
        started = opened is not None
        start, current = (opened[0], set(opened[1])) if started \
            else (0, set())
        for k in range(len(times)):
            t = times[k]
            if started and t > start:
                t0s.append(start)
                t1s.append(t)
                set_ids.append(self._intern_set(current))
                close_rows.append(rows[k])
            if adds[k]:
                current.add(labels[k])
            else:
                current.discard(labels[k])
            start = t
            started = True
        if started:
            if close_ns > start:
                t0s.append(start)
                t1s.append(close_ns)
                set_ids.append(self._intern_set(current))
                close_rows.append(n if final else n + 1)
            if final:
                carry.multi_open.pop(res_id, None)
            else:
                carry.multi_open[res_id] = (start, frozenset(current))
        columns = _MultiColumns(
            t0=np.array(t0s, dtype=np.int64),
            t1=np.array(t1s, dtype=np.int64),
            set_ids=set_ids,
            close_row=np.array(close_rows, dtype=np.int64),
        )
        if not final:
            alive = np.nonzero((columns.close_row < n)
                               & carry.overlaps_open_span(columns.t1))[0]
            if len(alive):
                sets = self._set_values
                carry.multi_done[res_id] = (
                    columns.t0[alive].tolist(), columns.t1[alive].tolist(),
                    [sets[set_ids[k]] for k in alive.tolist()])
        return columns

    # -- views --------------------------------------------------------------

    @cached_property
    def entries(self) -> list[LogEntry]:
        """The rows as :class:`LogEntry` objects (``seq`` = row index),
        built once on first use — the input of the streaming reference,
        which reconstructs this snapshot independently."""
        columns = self.columns
        return [
            LogEntry(type=entry_type, res_id=res_id, time_us=time_us,
                     icount=icount, value=value, seq=seq)
            for seq, (entry_type, res_id, time_us, icount, value)
            in enumerate(zip(
                columns.type.tolist(), columns.res_id.tolist(),
                (columns.time_ns // 1000).tolist(),
                columns.icount.tolist(), columns.value.tolist()))
        ]

    def single_device_ids(self) -> list[int]:
        return sorted(self._single_ids)

    def multi_device_ids(self) -> list[int]:
        return sorted(self._multi_ids)

    def single_columns(self, res_id: int) -> Optional[_SingleColumns]:
        return self._singles.get(res_id)

    def multi_columns(self, res_id: int) -> Optional[_MultiColumns]:
        return self._multis.get(res_id)

    def power_intervals(self) -> list[PowerInterval]:
        """Materialize the interval columns as objects (tests, tools)."""
        vectors = self.vectors
        return [
            PowerInterval(t0_ns=t0, t1_ns=t1, pulses=p, states=vectors[v])
            for t0, t1, p, v in zip(
                self.interval_t0.tolist(), self.interval_t1.tolist(),
                self.interval_pulses.tolist(), self.interval_vec.tolist())
        ]

    def activity_segments(self, res_id: int) -> list[ActivitySegment]:
        """Materialize one device's segment columns as objects."""
        device = self._singles.get(res_id)
        if device is None:
            return []
        segments = []
        for t0, t1, label, bound in zip(
                device.t0.tolist(), device.t1.tolist(),
                device.labels.tolist(), device.bound.tolist()):
            segments.append(ActivitySegment(
                res_id=res_id, t0_ns=t0, t1_ns=t1,
                label=ActivityLabel.decode(label),
                bound_to=(ActivityLabel.decode(bound)
                          if bound >= 0 else None),
            ))
        return segments

    def grouped_inputs(
        self,
        energy_per_pulse_j: float,
        min_interval_ns: int = 0,
    ) -> tuple[list[tuple[tuple[int, int], ...]], list[int], list[float]]:
        """Group intervals by state vector straight off the columns —
        the regression's ``(E_j, t_j)`` inputs, bit-identical to
        :func:`repro.core.regression.group_intervals` over the usable
        materialized intervals (same first-occurrence group order, same
        int time sums, same float energy fold).

        ``np.bincount(idx, weights=w)`` accumulates each bin's weights
        sequentially in array order starting from ``0.0`` — exactly the
        ``dict.get(key, 0.0) + x`` fold the scalar loop performs, so the
        per-group energy sums here are bit-identical to it (time sums
        are exact int64 arithmetic regardless)."""
        dt = self.interval_t1 - self.interval_t0
        keep = dt >= min_interval_ns
        if not bool(keep.any()):
            raise RegressionError("no usable power intervals")
        vec = self.interval_vec[keep]
        # interval_vec is already a dense code (an index into
        # self.vectors), so grouping needs no sort: a reversed fancy
        # assignment yields each code's first-occurrence row (last
        # write wins), an argsort over the handful of present codes
        # gives first-occurrence order, and a remap renumbers rows.
        n_vecs = len(self.vectors)
        n_rows = len(vec)
        first_row = np.full(n_vecs, -1, dtype=np.int64)
        first_row[vec[::-1]] = np.arange(
            n_rows - 1, -1, -1, dtype=np.int64)
        present = np.nonzero(first_row >= 0)[0]
        ordered = present[np.argsort(first_row[present], kind="stable")]
        remap = np.full(n_vecs, -1, dtype=np.intp)
        remap[ordered] = np.arange(len(ordered), dtype=np.intp)
        groups = remap[vec]
        times = np.bincount(
            groups, weights=dt[keep], minlength=len(ordered))
        energies = np.bincount(
            groups,
            weights=self.interval_pulses[keep] * energy_per_pulse_j,
            minlength=len(ordered))
        vectors = self.vectors
        grouped = [vectors[v] for v in ordered.tolist()]
        return (
            grouped,
            [int(t) for t in times.tolist()],
            energies.tolist(),
        )

