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

* :class:`ColumnarTimeline` — whole logs as column arrays, rebuilt
  with vectorized passes over :class:`~repro.core.logger.LogColumns`,
  one log or many (a network's) in the same passes.
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
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Optional, Sequence, Union

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

    ``track_binds=False`` drops the unresolved-segment bookkeeping
    entirely: closed segments are emitted and forgotten, so memory is
    bounded by the one open segment.  ``bound_to`` is then never set —
    only valid for consumers that read ``label``, not
    ``effective_label`` (i.e. ``fold_proxies=False`` accounting).
    """

    __slots__ = ("res_id", "emit", "bump", "track_binds",
                 "_unresolved", "_open")

    def __init__(
        self,
        res_id: int,
        emit: Callable[[ActivitySegment], None],
        track_binds: bool = True,
        bump: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.res_id = res_id
        self.emit = emit
        self.bump = bump
        self.track_binds = track_binds
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
            for segment in pending:
                segment.bound_to = new_label
            # Transitivity: these now follow the new label's fate.
            if pending:
                self._unresolved.setdefault(new_label, []).extend(pending)
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
        on_interval: Optional[Callable[[PowerInterval], None]] = None,
        on_segment: Optional[Callable[[ActivitySegment], None]] = None,
        on_multi_segment: Optional[
            Callable[[MultiActivitySegment], None]] = None,
    ) -> None:
        self.track_binds = track_binds
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


class _Segments:
    """Parallel segment columns (the ``__slots__`` of a subclass, in
    constructor order); slicing slices every column."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.t0)

    def __getitem__(self, rows: slice):
        return type(self)(*(getattr(self, name)[rows]
                            for name in self.__slots__))

    @classmethod
    def concat(cls, parts: list):
        return cls(*(_concat([getattr(part, name) for part in parts])
                     for name in cls.__slots__))


class _SingleColumns(_Segments):
    """Single-activity segments as parallel columns: one device's, or
    every (log, device) group's back to back (see
    :attr:`ColumnarTimeline.single_segments`).

    Per device, ``t0``/``t1`` are sorted, non-overlapping int64 arrays
    (zero-length segments were never emitted); ``labels`` holds the
    painted 16-bit encodings and ``bound`` the bind-resolved encoding
    (``-1`` where no bind resolved the segment), both int64 arrays — the
    columnar form of :class:`ActivitySegment`.
    ``close_row`` is the row of its log whose record closed each segment
    (the log's length for one closed at the end; see
    :meth:`ColumnarTimeline._build_logs` for batch mode).
    """

    __slots__ = ("t0", "t1", "labels", "bound", "close_row")

    def __init__(self, t0, t1, labels, bound, close_row) -> None:
        self.t0 = t0
        self.t1 = t1
        self.labels = labels
        self.bound = bound
        self.close_row = close_row

    def label_values(self, fold_proxies: bool) -> np.ndarray:
        """The encoding each segment is charged to: its bound label where
        a bind resolved one and ``fold_proxies`` asks for it, else its
        painted label."""
        if not fold_proxies:
            return self.labels
        return np.where(self.bound >= 0, self.bound, self.labels)


class _MultiColumns(_Segments):
    """Multi-activity segments as parallel columns; ``set_ids`` indexes
    :attr:`ColumnarTimeline.label_sets` and ``close_row`` is as for
    :class:`_SingleColumns`."""

    __slots__ = ("t0", "t1", "set_ids", "close_row")

    def __init__(self, t0, t1, set_ids, close_row) -> None:
        self.t0 = t0
        self.t1 = t1
        self.set_ids = set_ids
        self.close_row = close_row


def _concat(parts: list) -> np.ndarray:
    return np.concatenate(parts) if parts \
        else np.empty(0, dtype=np.int64)


def _offsets(counts) -> np.ndarray:
    """Group sizes → the ``len + 1`` row offsets that delimit them."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal ``keys`` begins (a bool mask)."""
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = keys[1:] != keys[:-1]
    return starts


#: Logs record ``res_id`` in one byte, so a (log, device) group keys as
#: ``log * _RES_SPACE + res_id`` — sorted keys are log-major.
_RES_SPACE = 256

#: Activity labels are 16-bit encodings.
_LABEL_SPACE = 1 << 16


@lru_cache(maxsize=64)
def _declared(single_res_ids: tuple, multi_res_ids: tuple
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One log's declared devices as read-only tables, built once per
    device set: declared single and declared multi by res_id (one
    outside the byte a log records never matches), and the records
    refused by ``type << 8 | res_id`` — a change/bind of a device
    declared neither way, an add/remove of one not declared multi."""
    is_single, is_multi = (np.isin(np.arange(_RES_SPACE), list(ids))
                           for ids in (single_res_ids, multi_res_ids))
    refused = np.zeros((_RES_SPACE, _RES_SPACE), dtype=bool)
    refused[[TYPE_ACT_CHANGE, TYPE_ACT_BIND]] = ~(is_single | is_multi)
    refused[[TYPE_ACT_ADD, TYPE_ACT_REMOVE]] = ~is_multi
    tables = (is_single, is_multi, refused.ravel())
    for table in tables:
        table.flags.writeable = False
    return tables


def _check_declared(types: np.ndarray, res_ids: np.ndarray,
                    refused: np.ndarray, log: int = 0) -> None:
    """Raise :class:`~repro.errors.LoggerError` at the first of one
    log's records that its ``refused`` table (see :func:`_declared`)
    marks: one naming a device the log did not declare."""
    bad = refused[(types.astype(np.intp) << 8) | res_ids]
    if bad.any():
        row = int(bad.argmax())
        multi = types[row] in (TYPE_ACT_ADD, TYPE_ACT_REMOVE)
        raise LoggerError(
            f"log {log} names activity device {int(res_ids[row])}, "
            f"which it did not declare {'multi' if multi else 'at all'}")


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
        keys = matrix.astype(np.uint64) @ _ROW_HASH[:matrix.shape[1]]
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
        tuple((rid, value) for rid, value in zip(sink_ids, row)
              if value != -1)
        for row in matrix[first_idx[rank]].tolist()
    ]
    return vectors, remap[inverse]


def _group_ends(starts: np.ndarray) -> np.ndarray:
    """Rows grouped with ``starts`` marking where each group begins →
    which rows end their group (a bool mask)."""
    ends = np.empty(len(starts), dtype=bool)
    ends[:-1] = starts[1:]
    ends[-1:] = True
    return ends


def _spans_to_next(times, group, log, local_row, log_end, close_rows):
    """Rows sorted by group, each opening a span: to the next row of its
    group, the group's last one to its log's end time.  Returns each
    span's end, the row of its log that closes it (``close_rows`` of
    its log for the last one), and which rows begin their group."""
    starts = _run_starts(group)
    last = _group_ends(starts)
    t1 = np.empty(len(times), dtype=np.int64)
    t1[:-1] = times[1:]
    t1[last] = log_end[log[last]]
    close = np.empty(len(times), dtype=np.int64)
    close[:-1] = local_row[1:]
    close[last] = close_rows[log[last]]
    return t1, close, starts


def _lead_groups(lead: list, columns: list) -> list:
    """Parallel columns, group first, of rows that go ahead of every row
    of their group in ``columns`` (grouped the same way): the merge, by
    one stable sort on the group."""
    merged = [np.concatenate((np.asarray(head, dtype=np.int64), column))
              for head, column in zip(lead, columns)]
    order = np.argsort(merged[0], kind="stable")
    return [column[order] for column in merged]


def _still_overlapping(segments: list, carry: TimelineCarry, n: int):
    """``(group, rows)`` of the closed segments (closing row before the
    batch's end ``n``) that reach into the power span left open, so
    overlap the interval it becomes: a batch hands them on."""
    group, close = segments[0], segments[-1]
    alive = np.nonzero((close < n) & carry.overlaps_open_span(segments[2]))[0]
    for g in np.unique(group[alive]).tolist():
        yield g, alive[group[alive] == g]


def _resolve_binds(group, labels, is_bind, starts) -> np.ndarray:
    """Bind resolution over grouped change/bind rows, as array code:
    each row's bound label, ``-1`` where no bind resolved it.

    As in :class:`_SingleTracker`, a bind from L to M (a bind row's
    previous label is the one before it in its group; a device's first
    row has none) re-attributes every unresolved segment of L to M, and
    those then follow M's fate.  So a segment enters its chain at the
    first bind at or after its closing row that rebinds from its label,
    a bind's successor is the next one rebinding from its new label, and
    pointer jumping finds each chain's last bind, whose new label is the
    resolution."""
    n = len(labels)
    previous = np.empty(n, dtype=np.int64)
    previous[1:] = labels[:-1]
    previous[starts] = -1
    binds = np.nonzero(is_bind & (previous >= 0))[0]
    if not len(binds):
        return np.full(n, -1, dtype=np.int64)
    # Binds sorted by (group, label rebound from, position).
    bind_key = (group[binds] * _LABEL_SPACE + previous[binds]) * n + binds
    by_key = np.argsort(bind_key)
    sorted_key = bind_key[by_key]

    def next_bind(chain, after):
        """The first bind past position ``after`` rebinding from
        ``chain`` (= group * _LABEL_SPACE + label), as an index into
        ``binds``; -1 if none."""
        query = chain * n + after
        at = np.minimum(np.searchsorted(sorted_key, query, side="right"),
                        len(sorted_key) - 1)
        found = sorted_key[at]
        return np.where((found > query) & (found // n == chain),
                        by_key[at], -1)

    last = next_bind(group[binds] * _LABEL_SPACE + labels[binds], binds)
    last[last < 0] = np.nonzero(last < 0)[0]
    while True:
        jumped = last[last]
        if np.array_equal(jumped, last):
            break
        last = jumped
    entry = next_bind(group * _LABEL_SPACE + labels,
                      np.arange(n, dtype=np.int64))
    return np.where(entry >= 0, labels[binds[last[entry]]], -1)


def _log_groups(keys, offsets, segments, index: int):
    """Log ``index``'s share of a fused timeline's (log, device) groups:
    its keys as plain ``res_id``\\ s, offsets from 0, and segments."""
    lo, hi = np.searchsorted(keys, (index * _RES_SPACE,
                                    (index + 1) * _RES_SPACE))
    offsets = offsets[lo:hi + 1]
    return (keys[lo:hi] - index * _RES_SPACE, offsets - offsets[0],
            segments[int(offsets[0]):int(offsets[-1])])


class ColumnarTimeline:
    """The whole reconstruction of one or more logs as column arrays:
    power intervals and activity segments rebuilt from
    :class:`~repro.core.logger.LogColumns` without materializing a
    single :class:`LogEntry`, :class:`PowerInterval`, or segment object
    (the views below build them on request).

    ``columns`` is one log, or a sequence of K logs (the nodes of one
    network, say) with ``end_time_ns`` and the device sets then given
    per log.  Either way it is one pass per stage over all rows: the
    logs' columns are concatenated, intervals are kept log-major
    (``interval_log``, ``interval_bounds``), and activity rows are
    grouped by (log, device) with one stable sort.  :meth:`log` hands
    out one log's share as a one-log timeline, which is what the
    per-log consumers read (regression inputs, per-device views, lanes);
    :func:`repro.core.accounting.columnar_energy_map` folds all K logs
    at once.  ``log_end_ns`` holds each log's end time (``end_time_ns``
    is the latest).

    Semantics per log mirror the streaming trackers entry-for-entry
    (the backend-equivalence tests pin the outputs bit-for-bit):

    * intervals close at each power-state boundary and finally at the
      last record of *any* type; state vectors are interned tuples in
      sorted-``res_id`` order, exactly like :class:`_IntervalTracker`;
    * single-device segments span consecutive change/bind records, with
      zero-length spans dropped and the trailing span closed at
      ``end_time_ns``; bind events resolve every unresolved segment of
      the label they rebind, transitively, like :class:`_SingleTracker`
      with an unbounded horizon — as array code: each bind's successor
      is the next bind rebinding from its new label, chains resolve by
      pointer jumping, and a segment enters its chain at the first bind
      at or after its closing row that rebinds from its label;
    * multi-device spans carry interned ``frozenset`` label sets — the
      *same* interned objects per distinct set, so downstream iteration
      order matches the streaming path's.

    Entries must be in log order, which is time order: a record
    stamped earlier than the one before it in its log (in batch mode,
    also the carry's last record) raises
    :class:`~repro.errors.LoggerError`, so every interval the fold
    divides is strictly positive.

    Devices are declared (per log, for K logs), never inferred: a
    change/bind naming a device declared neither way, or an add/remove
    naming one not declared multi, raises
    :class:`~repro.errors.LoggerError`; a change/bind of a device
    declared multi is dropped, as the stream drops it.

    With a ``carry`` the columns are one batch of a longer stream (see
    :meth:`_build_logs`): the batch continues the spans the carry holds
    open and, unless ``final``, hands back the spans still open at its
    end instead of closing them.
    """

    def __init__(
        self,
        columns: Union[LogColumns, Sequence[LogColumns]],
        *,
        single_res_ids: Iterable,
        multi_res_ids: Iterable,
        end_time_ns: Union[int, Sequence[Optional[int]], None] = None,
        carry: Optional[TimelineCarry] = None,
        final: bool = True,
    ) -> None:
        if isinstance(columns, LogColumns):
            logs = [columns]
            ends, singles, multis = [end_time_ns], [single_res_ids], \
                [multi_res_ids]
        else:
            logs = list(columns)
            ends = [None] * len(logs) if end_time_ns is None \
                else list(end_time_ns)
            singles, multis = list(single_res_ids), list(multi_res_ids)
            if not len(logs) == len(ends) == len(singles) == len(multis):
                raise ValueError(
                    "a multi-log timeline needs one end time and one "
                    "device set per log")
        lengths = [len(log) for log in logs]
        bounds = _offsets(lengths)
        joined = logs[0] if len(logs) == 1 else LogColumns.concat(logs) \
            if logs else LogColumns.from_entries(())
        times = joined.time_ns
        # Rows stamped earlier than the row before them; a log may
        # start before the one ahead of it ends.
        backwards = np.nonzero(times[1:] < times[:-1])[0] + 1
        last_time = carry.last_time if carry is not None else None
        if (len(times) and last_time is not None
                and int(times[0]) < last_time) \
                or (len(backwards) and not np.isin(backwards, bounds).all()):
            raise LoggerError(
                "log time goes backwards: the columnar timeline needs "
                "its records in time order")
        self.columns = joined
        self.n_logs = len(logs)
        self.log_bounds = bounds
        self.label_sets: list[frozenset[ActivityLabel]] = []
        self._set_intern: dict[tuple[int, ...], int] = {}
        self._set_values: list[frozenset[int]] = []
        if carry is not None and self.n_logs != 1:
            raise ValueError("batch mode continues one log")
        self._log_columns = logs
        self._build_logs(np.asarray(lengths, dtype=np.int64), ends,
                         singles, multis, carry, final)

    # -- construction -------------------------------------------------------

    def _build_logs(self, log_len: np.ndarray, ends: list, singles: list,
                    multis: list, carry: Optional[TimelineCarry],
                    final: bool) -> None:
        """Every log at once, one pass per stage.

        With a ``carry`` the one log is a batch of a longer stream, with
        exactly the streaming trackers' semantics: the batch continues
        the power span and activity spans the carry holds open and,
        unless ``final``, hands back the spans still open at its end.
        An open activity span is clamped at the batch's last record for
        covering (no interval of the batch ends later); ``final`` closes
        spans as the stream's finish does: the trailing interval at the
        last record, activity spans at ``end_time_ns`` (default: the
        last record).
        A batch's closing rows are ``-1`` for a segment an earlier batch
        closed, its length when closed at finish and one more while
        still open.
        """
        columns = self.columns
        count = self.n_logs
        times = columns.time_ns
        row_log = np.repeat(np.arange(count, dtype=np.int64), log_len)
        types = columns.type
        key = row_log * _RES_SPACE + columns.res_id
        single_rows = np.nonzero((types == TYPE_ACT_CHANGE)
                                 | (types == TYPE_ACT_BIND))[0]
        multi_rows = np.nonzero((types == TYPE_ACT_ADD)
                                | (types == TYPE_ACT_REMOVE))[0]
        tables = [_declared(tuple(single), tuple(multi))
                  for single, multi in zip(singles, multis)]
        for k, (_, _, refused) in enumerate(tables):
            rows = slice(self.log_bounds[k], self.log_bounds[k + 1])
            _check_declared(types[rows], columns.res_id[rows], refused, k)
        is_single, is_multi = (
            np.concatenate([np.zeros(0, dtype=bool)]
                           + [table[i] for table in tables]) for i in (0, 1))
        single_rows = single_rows[~is_multi[key[single_rows]]]
        # The row closing each log's last spans: its length, one more
        # for a batch's spans left open.
        close_rows = log_len
        if carry is None:
            log_end = np.zeros(count, dtype=np.int64)
            filled = log_len > 0
            log_end[filled] = times[self.log_bounds[1:][filled] - 1]
            for k, end in enumerate(ends):
                if end is not None:
                    log_end[k] = end
            self.end_time_ns = ends[0] if count == 1 and ends[0] is not None \
                else int(log_end.max(initial=0))
        else:
            n = len(columns)
            if n:
                carry.last_time = int(times[n - 1])
                carry.last_icount = int(columns.icount[n - 1])
            last_time = carry.last_time if carry.last_time is not None else 0
            close_ns = ends[0] if final and ends[0] is not None \
                else last_time
            log_end = np.array([close_ns], dtype=np.int64)
            # Read by the fold only to separate devices' time bands, so
            # it must bound every segment and interval time of the batch.
            self.end_time_ns = max(close_ns, last_time)
            if not final:
                close_rows = log_len + 1
        self.log_end_ns = log_end
        self._build_intervals(row_log, log_len, carry, final)
        self._build_singles(key, single_rows, np.nonzero(is_single)[0],
                            row_log, close_rows, carry, final)
        self._build_multis(key, multi_rows, np.nonzero(is_multi)[0],
                           row_log, close_rows, carry, final)

    def _build_intervals(self, row_log: np.ndarray, log_len: np.ndarray,
                         carry: Optional[TimelineCarry], final: bool) -> None:
        """Power entries → interval columns for every log, log-major.

        Per log, equivalent to replaying :class:`_IntervalTracker` entry
        by entry:

        * the span opens at the log's first power/boot entry (a batch
          continues the span ``carry`` holds open); every *non-boot*
          power entry strictly later than the one before it (the first
          compared with the opening) is a boundary — same-time entries
          merge, boots never emit;
        * pulses are the iCount deltas between consecutive boundaries;
        * the trailing interval is one more boundary: a virtual entry at
          the log's last record of any type, after its last power entry,
          with clamped non-negative pulses and the post-log state — a
          batch that is not ``final`` leaves its span open in ``carry``
          instead;
        * the state vector at each boundary is each sink's last value
          set before it *in the same log* (else its carried value) — a
          per-sink ``searchsorted`` forward fill that ignores writes of
          other logs — with equal rows interned
          (:func:`_intern_vectors`).
        """
        columns = self.columns
        count = self.n_logs
        types = columns.type
        p_pos = np.nonzero(
            (types == TYPE_POWERSTATE) | (types == TYPE_BOOT))[0]
        pos_log = row_log[p_pos]
        opener = carry is not None and carry.span_t0 is not None
        per_log = np.bincount(pos_log, minlength=count) + opener
        closes = (per_log > 0) & (carry is None or final)
        # Per log: [the carried opening] + its power entries + [the
        # virtual closing entry].
        offsets = _offsets(per_log + closes)
        total = int(offsets[-1])
        p_log = np.repeat(np.arange(count, dtype=np.int64),
                          offsets[1:] - offsets[:-1])
        p_time = np.empty(total, dtype=np.int64)
        p_ic = np.empty(total, dtype=np.int64)
        p_res = np.full(total, -1, dtype=np.int64)
        p_val = np.zeros(total, dtype=np.int64)
        p_row = np.empty(total, dtype=np.int64)
        real = np.ones(total, dtype=bool)
        if opener:
            real[0] = False
            p_time[0], p_ic[0] = carry.span_t0, carry.span_pulses
        closing = np.nonzero(closes)[0]
        ends = offsets[closing + 1] - 1
        real[ends] = False
        p_time[real] = columns.time_ns[p_pos]
        p_ic[real] = columns.icount[p_pos]
        p_res[real] = columns.res_id[p_pos]
        p_val[real] = columns.value[p_pos]
        p_row[real] = p_pos - self.log_bounds[pos_log]
        if carry is None:
            last = self.log_bounds[closing + 1] - 1
            p_time[ends] = columns.time_ns[last]
            p_ic[ends] = columns.icount[last]
        else:
            p_time[ends] = carry.last_time
            p_ic[ends] = carry.last_icount
        # The log's length emits its closing interval.
        p_row[ends] = log_len[closing]
        candidate = ~real
        candidate[real] = types[p_pos] != TYPE_BOOT
        if opener:
            candidate[0] = False
        candidates = np.nonzero(candidate)[0]
        opening = offsets[:-1]
        previous = np.empty(len(candidates), dtype=np.int64)
        previous[1:] = p_time[candidates[:-1]]
        opens = _run_starts(p_log[candidates])
        previous[opens] = p_time[opening[p_log[candidates[opens]]]]
        emit = candidates[p_time[candidates] > previous]
        interval_log = p_log[emit]
        # Each boundary closes the interval since the boundary before it
        # in its log, the first one since the span opened.
        start = np.empty(len(emit), dtype=np.intp)
        start[1:] = emit[:-1]
        opens = _run_starts(interval_log)
        start[opens] = opening[interval_log[opens]]
        pulses = p_ic[emit] - p_ic[start]
        virtual = ~real[emit]
        pulses[virtual] = np.maximum(pulses[virtual], 0)
        self.interval_t0 = p_time[start]
        self.interval_t1 = p_time[emit]
        self.interval_pulses = pulses
        self.interval_row = p_row[emit]
        self.interval_log = interval_log
        self.interval_bounds = np.searchsorted(interval_log,
                                               np.arange(count + 1))
        states = carry.states if carry is not None else {}
        written = np.nonzero(p_res >= 0)[0]
        # Sinks are one-byte res_ids: a presence table numbers them.
        column = np.zeros(_RES_SPACE, dtype=np.int64)
        column[p_res[written]] = 1
        column[list(states)] = 1
        sinks = np.nonzero(column)[0]
        np.cumsum(column, out=column)
        defaults = np.array([states.get(rid, -1) for rid in sinks.tolist()],
                            dtype=np.int64)
        # Each sink's last write before every position, as a running
        # maximum of write positions along the sink's row (-1: none yet);
        # a write counts only within its own log.
        positions, logs = emit, interval_log
        if carry is not None:
            # One more row: the state after the batch, carried on.
            positions = np.concatenate((emit, [total]))
            logs = np.concatenate((interval_log, [0]))
        if len(written):
            last = np.full((len(sinks), total + 1), -1, dtype=np.int64)
            last[column[p_res[written]] - 1, written + 1] = written
            source = np.maximum.accumulate(last, axis=1)[:, positions]
            matrix = np.where(source >= offsets[logs], p_val[source],
                              defaults[:, None]).T
        else:
            matrix = np.tile(defaults, (len(positions), 1))
        if carry is not None:
            carry.states = {rid: value for rid, value
                            in zip(sinks.tolist(), matrix[-1].tolist())
                            if value != -1}
            matrix = matrix[:-1]
        self.vectors, self.interval_vec = _intern_vectors(matrix,
                                                          sinks.tolist())
        if carry is not None:
            if total:
                # The span stays open from the last real boundary.
                boundaries = emit[real[emit]]
                held = boundaries[-1] if len(boundaries) else 0
                carry.span_t0 = None if final else int(p_time[held])
                carry.span_pulses = int(p_ic[held])

    def _build_singles(self, key, rows, groups, row_log, close_rows, carry,
                       final) -> None:
        """Change/bind rows of every single device of every log →
        :attr:`single_segments`, one stable sort grouping them by (log,
        device) in row order.

        Each row opens a segment painted with its label, running to the
        group's next row (the last one to its log's end time); zero-length
        ones are dropped.  Whole logs resolve binds (see
        :func:`_resolve_binds`).  A batch resolves none (a later batch's
        bind could still reach back): each device's rows follow the
        segment ``carry`` holds open, behind the closed segments it still
        holds.
        """
        columns = self.columns
        rows = rows[np.argsort(key[rows], kind="stable")]
        group = np.searchsorted(groups, key[rows])
        log = row_log[rows]
        times = columns.time_ns[rows]
        labels = columns.value[rows]
        local = rows - self.log_bounds[log]
        rid_of = groups.tolist()
        if carry is not None and carry.single_open:
            opened = [(g, *carry.single_open[rid])
                      for g, rid in enumerate(rid_of)
                      if rid in carry.single_open]
            group, times, labels, local = _lead_groups(
                [np.array(part, dtype=np.int64) for part in zip(*opened)]
                + [np.full(len(opened), -1, dtype=np.int64)],
                [group, times, labels, local])
            log = np.zeros(len(group), dtype=np.int64)
        t1, close, starts = _spans_to_next(
            times, group, log, local, self.log_end_ns, close_rows)
        if carry is None:
            bound = _resolve_binds(
                group, labels, columns.type[rows] == TYPE_ACT_BIND, starts)
        else:
            bound = np.full(len(times), -1, dtype=np.int64)
            for g, time_ns, label in zip(
                    *(column[_group_ends(starts)].tolist()
                      for column in (group, times, labels))):
                if final:
                    carry.single_open.pop(rid_of[g], None)
                else:
                    carry.single_open[rid_of[g]] = (time_ns, label)
        keep = np.nonzero(t1 > times)[0]
        segments = [group[keep], times[keep], t1[keep], labels[keep],
                    bound[keep], close[keep]]
        if carry is not None:
            done = []
            for g, rid in enumerate(rid_of):
                if rid in carry.single_done:
                    t0s, t1s, painted = carry.single_done.pop(rid)
                    # Closed by an earlier batch: unbound, closing row -1.
                    unset = np.full(len(t0s), -1, dtype=np.int64)
                    done.append((np.full(len(t0s), g, dtype=np.int64), t0s,
                                 t1s, painted, unset, unset))
            if done:
                segments = _lead_groups(
                    [np.concatenate(parts) for parts in zip(*done)],
                    segments)
            if not final:
                for g, held in _still_overlapping(segments, carry,
                                                  len(columns)):
                    carry.single_done[rid_of[g]] = tuple(
                        column[held] for column in segments[1:4])
        self.single_keys = groups
        self.single_bounds = np.searchsorted(segments[0],
                                             np.arange(len(groups) + 1))
        self.single_segments = _SingleColumns(*segments[1:])

    def _build_multis(self, key, rows, groups, row_log, close_rows, carry,
                      final) -> None:
        """Add/remove rows of every multi device of every log →
        :attr:`multi_segments`, grouped like :meth:`_build_singles`:
        each row opens a span carrying the label set after it (the set
        :class:`_MultiTracker` snapshots when the next row arrives), the
        group's last one to its log's end time; zero-length spans are
        dropped.  A batch's rows follow the span ``carry`` holds open,
        behind the closed spans it still holds.  Multi devices log a few
        add/removes per second, so after the grouping sort this is one
        python scan over the rows, each distinct set interned once."""
        columns = self.columns
        rows = rows[np.argsort(key[rows], kind="stable")]
        rid_of = groups.tolist()
        # (group, time, row of its log, add: True / remove: False /
        # carried opening: None, label)
        entries = list(zip(
            np.searchsorted(groups, key[rows]).tolist(),
            columns.time_ns[rows].tolist(),
            (rows - self.log_bounds[row_log[rows]]).tolist(),
            (columns.type[rows] == TYPE_ACT_ADD).tolist(),
            columns.value[rows].tolist()))
        opened: dict[int, frozenset[int]] = {}
        openings = []
        done = []
        if carry is not None:
            for g, rid in enumerate(rid_of):
                if rid in carry.multi_open:
                    start, labels = carry.multi_open[rid]
                    opened[g] = labels
                    openings.append((g, start, -1, None, -1))
                if rid in carry.multi_done:
                    for t0, t1, labels in zip(*carry.multi_done.pop(rid)):
                        done.append((g, t0, t1, self._intern_set(labels),
                                     -1))
        if openings:
            # A stable sort keeps each opening ahead of its group's rows.
            entries = sorted(openings + entries, key=lambda entry: entry[0])
        log_end = self.log_end_ns.tolist()
        last_close = close_rows.tolist()
        spans = []
        current: set[int] = set()
        for index, (g, t0, _, add, label) in enumerate(entries):
            if not index or entries[index - 1][0] != g:
                current = set(opened.get(g, ()))
            if add:
                current.add(label)
            elif add is not None:
                current.discard(label)
            if index + 1 < len(entries) and entries[index + 1][0] == g:
                t1, close = entries[index + 1][1:3]
            else:
                log = rid_of[g] // _RES_SPACE
                t1, close = log_end[log], last_close[log]
                if carry is not None:
                    if final:
                        carry.multi_open.pop(rid_of[g], None)
                    else:
                        carry.multi_open[rid_of[g]] = (t0,
                                                       frozenset(current))
            if t1 > t0:
                spans.append((g, t0, t1, self._intern_set(current), close))
        if done:
            spans = sorted(done + spans, key=lambda span: span[0])
        segments = [np.array(column, dtype=np.int64)
                    for column in zip(*spans)] if spans \
            else [np.empty(0, dtype=np.int64)] * 5
        if carry is not None and not final:
            sets = self._set_values
            for g, held in _still_overlapping(segments, carry,
                                              len(columns)):
                carry.multi_done[rid_of[g]] = (
                    segments[1][held].tolist(), segments[2][held].tolist(),
                    [sets[s] for s in segments[3][held].tolist()])
        self.multi_keys = groups
        self.multi_bounds = np.searchsorted(segments[0],
                                            np.arange(len(groups) + 1))
        self.multi_segments = _MultiColumns(*segments[1:])

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

    # -- views --------------------------------------------------------------

    def log(self, index: int) -> "ColumnarTimeline":
        """Log ``index`` as a one-log timeline: slices of this one's
        columns, sharing its interned state vectors and label sets — the
        per-log consumers' input (a one-log timeline is its own)."""
        if self.n_logs == 1:
            return self
        view = object.__new__(ColumnarTimeline)
        view.columns = self._log_columns[index]
        view._log_columns = [view.columns]
        view.n_logs = 1
        view.log_bounds = np.array([0, len(view.columns)], dtype=np.int64)
        view.log_end_ns = self.log_end_ns[index:index + 1]
        view.end_time_ns = int(self.log_end_ns[index])
        view.label_sets = self.label_sets
        view._set_intern = self._set_intern
        view._set_values = self._set_values
        view.vectors = self.vectors
        lo, hi = self.interval_bounds[index:index + 2].tolist()
        view.interval_t0 = self.interval_t0[lo:hi]
        view.interval_t1 = self.interval_t1[lo:hi]
        view.interval_pulses = self.interval_pulses[lo:hi]
        view.interval_vec = self.interval_vec[lo:hi]
        view.interval_row = self.interval_row[lo:hi]
        view.interval_log = self.interval_log[lo:hi] - index
        view.interval_bounds = np.array([0, hi - lo], dtype=np.int64)
        view.single_keys, view.single_bounds, view.single_segments = \
            _log_groups(self.single_keys, self.single_bounds,
                        self.single_segments, index)
        view.multi_keys, view.multi_bounds, view.multi_segments = \
            _log_groups(self.multi_keys, self.multi_bounds,
                        self.multi_segments, index)
        return view

    def _one_log(self) -> None:
        if self.n_logs != 1:
            raise ValueError(
                f"a timeline of {self.n_logs} logs has no per-log view "
                f"of its own; take log(k) first")

    @cached_property
    def _singles(self) -> dict[int, _SingleColumns]:
        self._one_log()
        offsets = self.single_bounds.tolist()
        return {rid: self.single_segments[offsets[g]:offsets[g + 1]]
                for g, rid in enumerate(self.single_keys.tolist())}

    @cached_property
    def _multis(self) -> dict[int, _MultiColumns]:
        self._one_log()
        offsets = self.multi_bounds.tolist()
        return {rid: self.multi_segments[offsets[g]:offsets[g + 1]]
                for g, rid in enumerate(self.multi_keys.tolist())}

    @cached_property
    def entries(self) -> list[LogEntry]:
        """The rows as :class:`LogEntry` objects (``seq`` = row index),
        built once on first use — the input of the streaming reference,
        which reconstructs this snapshot independently."""
        self._one_log()
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
        return list(self._singles)

    def multi_device_ids(self) -> list[int]:
        return list(self._multis)

    def power_intervals(self) -> list[PowerInterval]:
        """Materialize the interval columns as objects (tests, tools)."""
        self._one_log()
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
    ) -> tuple[list[tuple[tuple[int, int], ...]], list[int], list[float]]:
        """Group intervals by state vector straight off the columns —
        the regression's ``(E_j, t_j)`` inputs, bit-identical to
        :func:`repro.core.regression.group_intervals` over the
        materialized intervals (same first-occurrence group order, same
        int time sums, same float energy fold).

        ``np.bincount(idx, weights=w)`` accumulates each bin's weights
        sequentially in array order starting from ``0.0`` — exactly the
        ``dict.get(key, 0.0) + x`` fold the scalar loop performs, so the
        per-group energy sums here are bit-identical to it (time sums
        are exact int64 arithmetic regardless)."""
        self._one_log()
        dt = self.interval_t1 - self.interval_t0
        if not len(dt):
            raise RegressionError("no usable power intervals")
        vec = self.interval_vec
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
            groups, weights=dt, minlength=len(ordered))
        energies = np.bincount(
            groups,
            weights=self.interval_pulses * energy_per_pulse_j,
            minlength=len(ordered))
        vectors = self.vectors
        grouped = [vectors[v] for v in ordered.tolist()]
        return (
            grouped,
            [int(t) for t in times.tolist()],
            energies.tolist(),
        )

