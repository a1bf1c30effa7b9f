"""The energy map: where the joules have gone (paper Table 3).

Accounting merges the three offline products:

* power intervals (who was in which power state, when, and the metered
  aggregate energy),
* the regression (what each (sink, state) draws),
* activity segments (on whose behalf each device was working),

into per-(component, activity) time and energy totals.  Policies:

* ``fold_proxies`` — charge a proxy segment's usage to the activity it was
  later bound to (the paper folds these when accounting, but keeps them
  separate in figures for clarity; both views are supported).
* multi-activity devices split an interval's energy **equally** among the
  activities present (the paper's stated default policy; a proportional
  hook exists for experimentation).

Two implementations produce the same :class:`EnergyMap`, float bits
and dict order alike:

* **columnar** (the product path) rebuilds the log as column arrays
  (:class:`~repro.core.timeline.ColumnarTimeline`) and folds them in one
  vectorized pass: :func:`_contribution_stream` orders every interval's
  charges as the reference would make them, :func:`_charge_stream` adds
  them up (:func:`_charge_prefixes` also reads the sums at every window
  close of a live batch), and :func:`_busy_time` + :func:`_add_busy` +
  :func:`_fold_time` give the per-device busy time.
  :func:`columnar_energy_map` (offline, whole logs at once — one, or all
  of a network's in one pass) and :class:`WindowedAccumulator` (live
  ingest, batch by batch) share that one fold.  Input must be in time
  order;
  ``ColumnarTimeline`` refuses a log whose time goes backwards.
* **streaming** (:class:`EnergyAccumulator`,
  :func:`stream_energy_map`) is the reference the tests, tools and
  benchmarks call by name: entry by entry it closes intervals and
  segments and charges each interval the moment it closes.  With
  ``fold_proxies=True`` a bind can reattribute arbitrarily old proxy
  segments, so it records cover ops and resolves names at
  :meth:`EnergyAccumulator.finish`, in interval order.

:func:`build_energy_map` prices a
:class:`~repro.core.timeline.ColumnarTimeline` (what
:meth:`~repro.tos.node.QuantoNode.timeline` returns): columnar folds its
columns directly, ``backend="streaming"`` re-feeds its rows
(:attr:`~repro.core.timeline.ColumnarTimeline.entries`) through an
:class:`EnergyAccumulator`.

The map also carries the metered total so callers can verify that the
reconstruction matches the measurement (the paper reports 0.004 % for
Blink).
"""

from __future__ import annotations

import json
import struct
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from repro.core.labels import ActivityLabel, ActivityRegistry
from repro.core.logger import LogColumns
from repro.core.regression import RegressionResult, SinkColumn
from repro.core.timeline import (
    _RES_SPACE,
    ActivitySegment,
    ColumnarTimeline,
    MultiActivitySegment,
    PowerInterval,
    TimelineCarry,
    TimelineStream,
    _check_declared,
    _declared,
)
from repro.errors import AnalysisBackendError, RegressionError, WindowingError

#: Pseudo-activity for the constant (baseline) draw, as in Table 3.
CONST_KEY = "Const."
#: Pseudo-activity for devices with no activity instrumentation.
UNTRACKED_KEY = "(untracked)"

#: The (component, activity) pair the constant draw is charged to.
_CONST_PAIR = (CONST_KEY, CONST_KEY)

#: The log→energy analysis implementations :func:`build_energy_map`
#: accepts by name.  Both produce bit-identical :class:`EnergyMap`s
#: (float bits and dict order) on any log — the golden-digest suite
#: enforces it against the streaming reference.
ANALYSIS_BACKENDS = ("streaming", "columnar")

#: The product path: bit-identical to the streaming reference and faster
#: (``analysis_speedup_columnar`` in ``results/BENCH_engine.json``).
DEFAULT_ANALYSIS_BACKEND = "columnar"


def resolve_analysis_backend(backend: Optional[str] = None) -> str:
    """Validate an analysis implementation's name; ``None`` is the
    columnar default."""
    if backend is None:
        return DEFAULT_ANALYSIS_BACKEND
    if backend not in ANALYSIS_BACKENDS:
        known = ", ".join(ANALYSIS_BACKENDS)
        raise AnalysisBackendError(
            f"unknown analysis backend {backend!r}; known backends: {known}"
        )
    return backend


def _overlapping(spans, t0: int, t1: int):
    """Yield ``(span, overlap_ns)`` for time-ordered spans intersecting
    the window [t0, t1) — the one clamp loop every cover path shares.
    Stops at the first span starting past the window."""
    for span in spans:
        s0 = span.t0_ns
        if s0 >= t1:
            break
        s1 = span.t1_ns
        lo = s0 if s0 > t0 else t0
        hi = s1 if s1 < t1 else t1
        if hi > lo:
            yield span, hi - lo


def _multi_shares(pairs, window: int, idle_name: str, name_of) -> dict[str, float]:
    """Equal-split name fractions of a ``window``-ns span from
    ``(labels, overlap)`` pairs (labels: a frozenset, possibly empty);
    the uncovered remainder is idle.  Multi labels never rebind, so
    names resolve immediately.  Shared by the streaming and columnar
    backends — one implementation, identical float arithmetic."""
    shares: dict[str, float] = {}
    covered = 0
    for labels, overlap in pairs:
        covered += overlap
        if not labels:
            shares[idle_name] = (
                shares.get(idle_name, 0.0) + overlap / window
            )
        else:
            split = overlap / window / len(labels)
            for label in labels:
                name = name_of(label)
                shares[name] = shares.get(name, 0.0) + split
    remainder = window - covered
    if remainder > 0:
        shares[idle_name] = (
            shares.get(idle_name, 0.0) + remainder / window
        )
    return shares


def _scan_cover(
    segments: Sequence,
    start: int,
    t0: int,
    t1: int,
) -> tuple[list[tuple], int, int]:
    """How [t0,t1) divides among a finished, time-ordered span list
    (single- or multi-activity segments alike).

    Successive calls pass non-decreasing windows, so the scan starts at
    ``start`` (the cursor returned by the previous call) and stops at
    the first segment past the window — amortised O(segments) over a
    run.  Returns ``(shares, covered_ns, cursor)``.
    """
    n = len(segments)
    i = start
    while i < n and segments[i].t1_ns <= t0:
        i += 1
    cursor = i
    shares = list(_overlapping(
        (segments[j] for j in range(cursor, n)), t0, t1))
    covered = sum(overlap for _, overlap in shares)
    return shares, covered, cursor


def _column_power(
    regression: Optional[RegressionResult],
) -> dict[tuple[int, int], tuple[str, float]]:
    """Which (res_id, value) pairs carry estimated power: pair ->
    (column name, draw).  Empty without a regression (which only errors
    once an interval actually needs it)."""
    if regression is None:
        return {}
    return {
        (column.res_id, column.value):
            (column.name, regression.power_w[column.name])
        for column in regression.columns
    }


def _plan_of(vector, column_power, component_names) -> list:
    """One state vector's charge plan: ``(res_id, component, draw)`` for
    each sink whose state carries a power column, in vector order (a
    sink's baseline state has no marginal draw)."""
    plan = []
    for res_id, value in vector:
        entry = column_power.get((res_id, value))
        if entry is not None:
            column_name, power_w = entry
            plan.append((res_id, component_names.get(res_id, column_name),
                         power_w))
    return plan


def _label_namer(registry: ActivityRegistry, cache: dict[int, str]):
    """``value -> activity name`` for 16-bit label encodings, each
    resolved once into ``cache`` (kept across calls by the windowed
    accumulator, fresh per offline map)."""
    def name_of_value(value: int) -> str:
        name = cache.get(value)
        if name is None:
            name = cache[value] = registry.name_of(
                ActivityLabel.decode(value))
        return name
    return name_of_value


@dataclass
class EnergyMap:
    """Time and energy by (component name, activity name)."""

    time_ns: dict[tuple[str, str], int] = field(default_factory=dict)
    energy_j: dict[tuple[str, str], float] = field(default_factory=dict)
    metered_energy_j: float = 0.0
    reconstructed_energy_j: float = 0.0
    span_ns: int = 0

    def add_time(self, component: str, activity: str, dt_ns: int) -> None:
        key = (component, activity)
        self.time_ns[key] = self.time_ns.get(key, 0) + dt_ns

    def add_energy(self, component: str, activity: str, joules: float) -> None:
        key = (component, activity)
        self.energy_j[key] = self.energy_j.get(key, 0.0) + joules
        self.reconstructed_energy_j += joules

    # -- views -------------------------------------------------------------

    def activities(self) -> list[str]:
        names = {activity for _, activity in self.energy_j}
        names.update(activity for _, activity in self.time_ns)
        return sorted(names)

    def energy_by_component(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for (component, _), joules in self.energy_j.items():
            totals[component] = totals.get(component, 0.0) + joules
        return totals

    def energy_by_activity(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for (_, activity), joules in self.energy_j.items():
            totals[activity] = totals.get(activity, 0.0) + joules
        return totals

    def time_by_activity(self, component: str) -> dict[str, int]:
        return {
            activity: dt
            for (comp, activity), dt in self.time_ns.items()
            if comp == component
        }

    def total_energy_j(self) -> float:
        return sum(self.energy_j.values())

    @property
    def accounting_error(self) -> float:
        """Relative gap between metered and reconstructed total energy."""
        if self.metered_energy_j == 0.0:
            return 0.0
        return abs(self.reconstructed_energy_j - self.metered_energy_j) \
            / self.metered_energy_j


class EnergyAccumulator:
    """Streaming accounting: fold a log's entries straight into an
    :class:`EnergyMap`.

    Feed decoded entries in log order (:meth:`feed`), then call
    :meth:`finish` with the analysis end time.  Internally a
    :class:`TimelineStream` closes intervals and segments; each closed
    interval is covered against the segments that overlap it — buffered
    closed segments plus each device's still-open span — and the
    interval's joules are charged immediately (``fold_proxies=False``)
    or recorded as a compact cover op for name resolution at finish
    (``fold_proxies=True``; see the module docstring for why folding is
    inherently retrospective).

    Declare the instrumented devices up front (``single_res_ids`` /
    ``multi_res_ids``), as every node does: the columnar paths take
    declared devices only and refuse a record of any other.  This
    reference alone still infers a device it was not told of, at its
    first activity record, and charges the intervals before that record
    ``(untracked)``.

    ``end_time_ns`` (the analysis window end) is taken at construction
    because it matters *during* the feed: a cover computed when an
    interval closes is complete only while the interval ends inside the
    window.  Records can legitimately overshoot the window end — the
    logger stamps cycle-advanced virtual time, so a run's last CPU job
    writes records slightly past ``sim.now`` — and segments in that
    overshoot close early (at the window end) or never open at all.
    Intervals past the window end therefore defer their covers and
    re-cover from the retained segment tail at :meth:`finish`, exactly
    as the batch path sees them.  With ``end_time_ns=None`` the window
    is the last record, which no interval can outrun.
    """

    def __init__(
        self,
        regression: RegressionResult,
        registry: ActivityRegistry,
        component_names: dict[int, str],
        energy_per_pulse_j: float,
        fold_proxies: bool = False,
        idle_name: str = "Idle",
        single_res_ids: Optional[Iterable[int]] = None,
        multi_res_ids: Optional[Iterable[int]] = None,
        end_time_ns: Optional[int] = None,
    ) -> None:
        self.registry = registry
        self.component_names = component_names
        self.energy_per_pulse_j = energy_per_pulse_j
        self.fold_proxies = fold_proxies
        self.idle_name = idle_name
        self.end_time_ns = end_time_ns
        self.regression = regression
        self._column_power = _column_power(regression)
        # Per-vector cover plan: state vectors are interned by the
        # timeline tracker, so the (res_id, component, power) triples an
        # interval needs are resolved once per distinct vector instead of
        # probing every (res_id, value) pair of every interval.  Only the
        # column lookup is cached — tracker kinds stay dynamic (a device
        # can appear mid-stream on the inference path).
        self._vector_plan: dict[tuple[tuple[int, int], ...],
                                tuple[tuple[int, str, float], ...]] = {}
        self._const_power_w = (
            regression.const_power_w if regression is not None else 0.0
        )
        # Bind tracking is only needed when proxy usage is folded onto
        # the bound activity; without it the stream stays strictly
        # bounded (no unresolved-segment retention).
        self.stream = TimelineStream(
            single_res_ids=single_res_ids,
            multi_res_ids=multi_res_ids,
            track_binds=fold_proxies,
            on_interval=self._on_interval,
            on_segment=self._on_segment,
            on_multi_segment=self._on_multi_segment,
        )
        self.map = EnergyMap()
        # Closed-but-unconsumed segments per device; intervals sweep
        # forward in time, so each deque is drained from the front as
        # the intervals pass (the streaming form of the batch cursors).
        self._pending_single: dict[int, deque[ActivitySegment]] = {}
        self._pending_multi: dict[int, deque[MultiActivitySegment]] = {}
        # Deferred cover ops (fold mode only), replayed at finish in
        # interval order.
        self._ops: list[tuple] = []
        # Time breakdown accumulators: per-device name->ns in
        # first-occurrence order (non-fold), or retained segments whose
        # effective label is resolved at finish (fold).
        self._time_single: dict[int, dict[str, int]] = {}
        self._time_single_segments: dict[int, list[ActivitySegment]] = {}
        self._time_multi: dict[int, dict[str, int]] = {}
        self._intervals_seen = 0
        self._pulses_total = 0
        self._span_t0_ns = 0
        self._last_interval_t1_ns = 0
        # Flips once the intervals outrun the analysis window (see the
        # class docstring); from then on covers defer to finish and the
        # segment deques are retained instead of consumed.
        self._tail_mode = False
        self._pending_count = 0
        self._finished = False
        self.peak_pending_segments = 0

    # -- stream plumbing ---------------------------------------------------

    def feed(self, entry) -> None:
        self.stream.feed(entry)

    def feed_all(self, entries: Iterable) -> EnergyMap:
        feed = self.stream.feed
        for entry in entries:
            feed(entry)
        return self.finish()

    def _on_segment(self, segment: ActivitySegment) -> None:
        res_id = segment.res_id
        queue = self._pending_single.get(res_id)
        if queue is None:
            queue = self._pending_single[res_id] = deque()
        queue.append(segment)
        self._note_pending(1)
        # Time breakdown (Table 3a): with fixed labels the per-name sums
        # accumulate as segments close; folded labels resolve at finish.
        if self.fold_proxies:
            self._time_single_segments.setdefault(res_id, []).append(segment)
        else:
            per_name = self._time_single.get(res_id)
            if per_name is None:
                per_name = self._time_single[res_id] = {}
            name = self.registry.name_of(segment.label)
            per_name[name] = per_name.get(name, 0) + segment.dt_ns

    def _on_multi_segment(self, segment: MultiActivitySegment) -> None:
        res_id = segment.res_id
        queue = self._pending_multi.get(res_id)
        if queue is None:
            queue = self._pending_multi[res_id] = deque()
        queue.append(segment)
        self._note_pending(1)
        per_name = self._time_multi.get(res_id)
        if per_name is None:
            per_name = self._time_multi[res_id] = {}
        if not segment.labels:
            per_name[self.idle_name] = (
                per_name.get(self.idle_name, 0) + segment.dt_ns
            )
            return
        split = segment.dt_ns // len(segment.labels)
        for label in segment.labels:
            name = self.registry.name_of(label)
            per_name[name] = per_name.get(name, 0) + split

    def _note_pending(self, delta: int) -> None:
        """O(1) running count of buffered segments (peak is the
        bounded-memory diagnostic the tests pin)."""
        self._pending_count += delta
        if self._pending_count > self.peak_pending_segments:
            self.peak_pending_segments = self._pending_count

    # -- interval covers ----------------------------------------------------

    def _single_cover(
        self, res_id: int, t0: int, t1: int,
    ) -> tuple[list[tuple[ActivitySegment, int]], int]:
        """Which segments of one device cover [t0, t1), with overlaps.

        Consumes buffered closed segments that the window has fully
        passed, scans the rest, and truncates the device's open span at
        the window end (it stays open at least that long — entries
        arrive in time order).  Returns ``(shares, idle_remainder_ns)``.
        """
        queue = self._pending_single.get(res_id)
        shares: list[tuple[ActivitySegment, int]] = []
        covered = 0
        if queue:
            while queue and queue[0].t1_ns <= t0:
                queue.popleft()
                self._note_pending(-1)
            # Inlined _overlapping: this cover runs per (interval x
            # device column), and the fused loop also accumulates the
            # covered sum instead of re-walking the share list.
            append = shares.append
            for span in queue:
                s0 = span.t0_ns
                if s0 >= t1:
                    break
                s1 = span.t1_ns
                lo = s0 if s0 > t0 else t0
                hi = s1 if s1 < t1 else t1
                if hi > lo:
                    append((span, hi - lo))
                    covered += hi - lo
        # The open span has a provisional t1; it reaches at least the
        # window end, so clamp it by hand.
        tracker = self.stream._singles.get(res_id)
        open_segment = tracker.open_segment if tracker is not None else None
        if open_segment is not None and open_segment.t0_ns < t1:
            lo = open_segment.t0_ns if open_segment.t0_ns > t0 else t0
            if t1 > lo:
                shares.append((open_segment, t1 - lo))
                covered += t1 - lo
        return shares, (t1 - t0) - covered

    def _multi_cover(self, res_id: int, t0: int, t1: int) -> dict[str, float]:
        """Streaming multi-device cover: buffered closed segments plus
        the open span (snapshotted and clamped at the window end)."""
        queue = self._pending_multi.get(res_id)
        spans: list[MultiActivitySegment] = []
        if queue:
            while queue and queue[0].t1_ns <= t0:
                queue.popleft()
                self._note_pending(-1)
            spans.extend(queue)
        tracker = self.stream.multi_tracker(res_id)
        if tracker is not None and tracker.started \
                and tracker.open_start_ns < t1:
            spans.append(MultiActivitySegment(
                res_id=res_id, t0_ns=tracker.open_start_ns, t1_ns=t1,
                labels=tracker.current_labels()))
        return _multi_shares(
            ((span.labels, overlap)
             for span, overlap in _overlapping(spans, t0, t1)),
            t1 - t0, self.idle_name, self.registry.name_of)

    def _multi_cover_list(
        self,
        segments: Sequence[MultiActivitySegment],
        start: int,
        t0: int,
        t1: int,
    ) -> tuple[dict[str, float], int]:
        """Batch-style multi cover over a finished segment list (tail
        replay): same cursor contract as :func:`_scan_cover`."""
        pairs, _covered, cursor = _scan_cover(segments, start, t0, t1)
        shares = _multi_shares(
            ((span.labels, overlap) for span, overlap in pairs),
            t1 - t0, self.idle_name, self.registry.name_of)
        return shares, cursor

    def _apply_single(
        self,
        component: str,
        joules: float,
        shares: Sequence[tuple[ActivitySegment, int]],
        idle_ns: int,
    ) -> None:
        """Group per-segment overlaps by activity name and charge them —
        the one place single-device joules are attributed, eagerly or on
        replay (so both orders produce identical arithmetic)."""
        named: dict[str, int] = {}
        fold = self.fold_proxies
        name_of = self.registry.name_of
        total_share = 0
        for segment, overlap in shares:
            if fold:
                bound = segment.bound_to
                label = bound if bound is not None else segment.label
            else:
                label = segment.label
            name = name_of(label)
            named[name] = named.get(name, 0) + overlap
            total_share += overlap
        if idle_ns > 0:
            named[self.idle_name] = named.get(self.idle_name, 0) + idle_ns
            total_share += idle_ns
        if not total_share:
            total_share = 1
        energy_j = self.map.energy_j
        for activity, share_ns in named.items():
            key = (component, activity)
            joule_share = joules * (share_ns / total_share)
            energy_j[key] = energy_j.get(key, 0.0) + joule_share
            self.map.reconstructed_energy_j += joule_share

    def _on_interval(self, interval: PowerInterval) -> None:
        if self._intervals_seen == 0:
            self._span_t0_ns = interval.t0_ns
        self._intervals_seen += 1
        self._pulses_total += interval.pulses
        self._last_interval_t1_ns = interval.t1_ns
        dt_ns = interval.dt_ns
        if dt_ns <= 0:
            return
        if self.regression is None:
            raise RegressionError(
                "accounting needs a regression once power intervals exist"
            )
        if not self._tail_mode and self.end_time_ns is not None \
                and interval.t1_ns > self.end_time_ns:
            # The intervals have outrun the analysis window: covers are
            # no longer complete at close time (a segment open now may
            # close early, at the window end; successors may still open
            # inside this interval).  Interval ends are monotone, so
            # every remaining interval defers to finish.
            self._tail_mode = True
        tail = self._tail_mode
        dt_s = dt_ns * 1e-9
        fold = self.fold_proxies
        # Constant draw: the baseline floor, charged to Const.
        const_j = self._const_power_w * dt_s
        if fold or tail:
            self._ops.append(("const", const_j))
        else:
            energy_j = self.map.energy_j
            energy_j[_CONST_PAIR] = energy_j.get(_CONST_PAIR, 0.0) + const_j
            self.map.reconstructed_energy_j += const_j
        states = interval.states
        plan = self._vector_plan.get(states)
        if plan is None:
            plan = self._vector_plan[states] = tuple(_plan_of(
                states, self._column_power, self.component_names))
        singles = self.stream._singles
        multis = self.stream._multis
        for res_id, component, power_w in plan:
            joules = power_w * dt_s
            if singles.get(res_id) is not None:
                if tail:
                    self._ops.append(("single_tail", component, joules,
                                      res_id, interval.t0_ns,
                                      interval.t1_ns))
                    continue
                shares, idle_ns = self._single_cover(
                    res_id, interval.t0_ns, interval.t1_ns)
                if fold:
                    self._ops.append(
                        ("single", component, joules, shares, idle_ns))
                else:
                    self._apply_single(component, joules, shares, idle_ns)
            elif multis.get(res_id) is not None:
                if tail:
                    self._ops.append(("multi_tail", component, joules,
                                      res_id, interval.t0_ns,
                                      interval.t1_ns))
                    continue
                shares_f = self._multi_cover(
                    res_id, interval.t0_ns, interval.t1_ns)
                if fold:
                    self._ops.append(("multi", component, joules, shares_f))
                else:
                    for activity, fraction in shares_f.items():
                        self.map.add_energy(component, activity,
                                            joules * fraction)
            else:
                if fold or tail:
                    self._ops.append(("untracked", component, joules))
                else:
                    self.map.add_energy(component, UNTRACKED_KEY, joules)
        if not tail:
            # No later window can start before this interval's end, so
            # segments wholly behind it are spent — including those of
            # devices the covers above never touched (no power column).
            # This is what keeps pending state flat as the log grows; in
            # tail mode the deques are retained for the finish re-cover.
            boundary = interval.t1_ns
            for queue in self._pending_single.values():
                while queue and queue[0].t1_ns <= boundary:
                    queue.popleft()
                    self._note_pending(-1)
            for queue in self._pending_multi.values():
                while queue and queue[0].t1_ns <= boundary:
                    queue.popleft()
                    self._note_pending(-1)

    # -- completion ---------------------------------------------------------

    def finish(self) -> EnergyMap:
        """Close the stream and return the completed map.  Idempotent:
        a second call returns the same map without re-charging."""
        if self._finished:
            return self.map
        self.stream.finish(self.end_time_ns)
        if not self._intervals_seen:
            raise RegressionError("no power intervals to account")
        self._finished = True
        # Replay deferred cover ops now that every bind has been seen
        # (fold mode) and every tail segment has closed (tail windows).
        # Replay order is interval order — the same order the batch path
        # charges them; tail windows re-cover from the retained segment
        # deques with batch-style cursors.
        tail_single: dict[int, list[ActivitySegment]] = {}
        tail_multi: dict[int, list[MultiActivitySegment]] = {}
        single_cursor: dict[int, int] = {}
        multi_cursor: dict[int, int] = {}
        for op in self._ops:
            kind = op[0]
            if kind == "const":
                self.map.add_energy(CONST_KEY, CONST_KEY, op[1])
            elif kind == "single":
                _, component, joules, shares, idle_ns = op
                self._apply_single(component, joules, shares, idle_ns)
            elif kind == "single_tail":
                _, component, joules, res_id, t0, t1 = op
                segments = tail_single.get(res_id)
                if segments is None:
                    segments = tail_single[res_id] = list(
                        self._pending_single.get(res_id, ()))
                    single_cursor[res_id] = 0
                shares, covered, single_cursor[res_id] = _scan_cover(
                    segments, single_cursor[res_id], t0, t1)
                self._apply_single(component, joules, shares,
                                   (t1 - t0) - covered)
            elif kind == "multi":
                _, component, joules, shares_f = op
                for activity, fraction in shares_f.items():
                    self.map.add_energy(component, activity,
                                        joules * fraction)
            elif kind == "multi_tail":
                _, component, joules, res_id, t0, t1 = op
                msegments = tail_multi.get(res_id)
                if msegments is None:
                    msegments = tail_multi[res_id] = list(
                        self._pending_multi.get(res_id, ()))
                    multi_cursor[res_id] = 0
                shares_f, multi_cursor[res_id] = self._multi_cover_list(
                    msegments, multi_cursor[res_id], t0, t1)
                for activity, fraction in shares_f.items():
                    self.map.add_energy(component, activity,
                                        joules * fraction)
            else:  # untracked
                _, component, joules = op
                self.map.add_energy(component, UNTRACKED_KEY, joules)
        self._ops.clear()
        # Time breakdown per device (Table 3a): how long each component
        # worked on behalf of each activity, independent of power states.
        if self.fold_proxies:
            for res_id in sorted(self._time_single_segments):
                component = self.component_names.get(res_id, f"res{res_id}")
                for segment in self._time_single_segments[res_id]:
                    self.map.add_time(
                        component,
                        self.registry.name_of(segment.effective_label),
                        segment.dt_ns)
        else:
            for res_id in sorted(self._time_single):
                component = self.component_names.get(res_id, f"res{res_id}")
                for name, dt_ns in self._time_single[res_id].items():
                    self.map.add_time(component, name, dt_ns)
        for res_id in sorted(self._time_multi):
            component = self.component_names.get(res_id, f"res{res_id}")
            for name, dt_ns in self._time_multi[res_id].items():
                self.map.add_time(component, name, dt_ns)
        self.map.span_ns = self._last_interval_t1_ns - self._span_t0_ns
        self.map.metered_energy_j = (
            self._pulses_total * self.energy_per_pulse_j
        )
        return self.map


# -- windowed (online) accounting -------------------------------------------


@dataclass
class WindowSnapshot:
    """One closed accounting window: the stride's *delta* breakdown for
    display, plus the exact cumulative running sums up to the window's
    close.

    The deltas (``energy_j`` / ``time_ns``) are what a live dashboard
    renders: "energy this window, by (component, activity)".  They are
    computed by subtracting successive cumulative values, which is exact
    for the integer time sums but — like any float subtraction — not
    information-preserving for energy.  The cumulative dicts are
    therefore carried verbatim: they are the accumulator's own running
    sums (the identical IEEE-754 add sequence the batch path performs),
    so the last window's cumulative state is the finished map, bit for
    bit, not merely close.
    """

    #: Stride index relative to the window origin (0-based).
    index: int
    #: Window bounds; ``t1_ns`` of the final window is the analysis end,
    #: not the stride boundary.
    t0_ns: int
    t1_ns: int
    #: Power intervals charged during this stride.
    intervals: int
    #: This stride's per-(component, activity) energy / busy-time deltas
    #: (zero-valued keys omitted; display-quality floats).
    energy_j: dict[tuple[str, str], float]
    time_ns: dict[tuple[str, str], int]
    #: Exact running sums at window close — same float bits and dict
    #: insertion order as the batch map built from the same prefix.
    cumulative_energy_j: dict[tuple[str, str], float]
    cumulative_time_ns: dict[tuple[str, str], int]
    #: Cumulative totals at window close.
    reconstructed_energy_j: float
    metered_energy_j: float
    span_ns: int
    #: True for the snapshot emitted by :meth:`WindowedAccumulator.finish`
    #: (it absorbs the tail re-cover and the final time fold).
    final: bool = False


#: Rows a :class:`WindowedAccumulator` buffers before folding them as
#: one columnar batch.  A batch fold costs about a millisecond of fixed
#: numpy work however few rows it holds, so folding each ~1 KB network
#: chunk on its own would be slower than per-entry accounting.  Fewer
#: rows wait for the next batch, or for a read of the accumulator, which
#: folds whatever is buffered first.
MIN_BATCH_ENTRIES = 2048

#: The batch :meth:`WindowedAccumulator.finish` folds to close the spans
#: still open when nothing is buffered.
_NO_ROWS = LogColumns.from_entries(())


class WindowedAccumulator:
    """Online accounting: the columnar backend folded batch by batch as
    the log arrives, sliced into tumbling windows.

    Time is divided into ``stride_ns``-wide strides anchored at
    ``origin_ns`` (default: the first power interval's start).  The
    accounting quantum is the power interval — an interval is charged to
    the stride containing its start, so strides partition the intervals
    without splitting any (splitting would change the float-add order
    and break the fold contract).  When the interval starts cross a
    stride boundary the open window closes and its row is kept (the
    newest ``retain`` rows are).  :meth:`finish` closes the last, partial
    window; its snapshot absorbs the deferred tail re-cover and carries
    the finished map's exact state.

    Retained windows are stored columnar, not as snapshot objects: the
    energy keys form one append-only table (``map.energy_j`` only ever
    gains keys), so a window's cumulative energy is a prefix length and
    one float64 row; its busy time is a row of interned key ids plus an
    int64 row (the breakdown's key order is not a prefix).  The deltas
    are recomputed from consecutive rows — the oldest retained window's
    from the row before it, which is kept for that — so a
    :class:`WindowSnapshot` is built only when read (:attr:`windows`,
    :meth:`recent`), field for field and bit for bit what the close
    would have built.  The same rows are what :meth:`snapshot` writes
    and :meth:`load_snapshot` reads back.

    Decoded rows arrive through :meth:`feed_columns` (or the per-entry
    :meth:`feed` adapter) and fold in batches of at least
    :data:`MIN_BATCH_ENTRIES` rows, or of whatever is buffered
    when something reads the accumulator (:meth:`live_breakdown`,
    :attr:`windows`, :attr:`windows_emitted`, :meth:`snapshot`); at
    :meth:`finish` whatever is buffered is the stream's one final
    batch.  A batch is one
    :class:`~repro.core.timeline.ColumnarTimeline` and one
    :func:`_contribution_stream`; between batches only O(devices) state
    carries over — the state vector and open power span, each device's
    open segment or label set (a :class:`TimelineCarry`), the per-device
    busy-time sums, the running energy dict and the window clock.  The
    windows and the final map are the streaming
    :class:`EnergyAccumulator`'s, bit for bit, however the log is split:

    * intervals and segments still open at the end of a batch wait for
      a later batch or for :meth:`finish`;
    * so do intervals ending past ``end_time_ns``, whose covers are
      complete only once the finished stream has closed every segment
      (see :class:`EnergyAccumulator`): the rows from their batch on are
      kept and re-covered at :meth:`finish` (the tail re-cover) — unless
      that batch is the final one, whose covers are complete, so it
      charges them itself after its windows;
    * each key's prior running sum enters its ``bincount`` stream as the
      first weight (:func:`_charge_stream`), so the adds continue in the
      same IEEE-754 order;
    * a batch closes every window it crosses at once: each window's
      cumulative energy is read off the batch's one contribution stream
      at the interval that closes it (:func:`_charge_prefixes`), its
      busy time off one int64 cumsum of the batch's busy-time chunks
      (:meth:`_add_busy_time`), so windows close on the interval where
      the streaming path closes them, with the energy, busy time and
      counters it had there.

    Devices are the declared ``single_res_ids`` and ``multi_res_ids``
    (an ingest hello carries the node's).  Feeding a record that names
    any other device raises :class:`~repro.errors.LoggerError` and keeps
    none of the fed rows, so a later fold (a query's, a checkpoint's)
    never meets one.

    Memory stays bounded by the open spans, one buffered batch and
    ``retain`` rows over the (component, activity) key set —
    independent of log length.

    Windowing requires eager charging, so proxy folding (inherently
    retrospective — a bind can reattribute arbitrarily old segments) is
    not supported: segments charge their painted labels.
    """

    def __init__(
        self,
        regression: RegressionResult,
        registry: ActivityRegistry,
        component_names: dict[int, str],
        energy_per_pulse_j: float,
        *,
        stride_ns: int,
        single_res_ids: Iterable[int],
        multi_res_ids: Iterable[int],
        idle_name: str = "Idle",
        end_time_ns: Optional[int] = None,
        origin_ns: Optional[int] = None,
        retain: Optional[int] = 64,
    ) -> None:
        if stride_ns <= 0:
            raise WindowingError(
                f"window stride must be positive, got {stride_ns}"
            )
        self.regression = regression
        self.registry = registry
        self.component_names = component_names
        self.energy_per_pulse_j = energy_per_pulse_j
        self.idle_name = idle_name
        self.end_time_ns = end_time_ns
        self.stride_ns = int(stride_ns)
        self._column_power = _column_power(regression)
        self._const_power_w = (
            regression.const_power_w if regression is not None else 0.0
        )
        # Charge plans per state vector and names per label encoding,
        # resolved once for the whole stream.
        self._plans: dict[tuple[tuple[int, int], ...], list] = {}
        self._value_names: dict[int, str] = {}
        self._single_ids = sorted(set(single_res_ids))
        self._multi_ids = sorted(set(multi_res_ids))
        self._refused = _declared(tuple(self._single_ids),
                                  tuple(self._multi_ids))[2]
        self._carry = TimelineCarry()
        self.map = EnergyMap()
        # Busy time per device: name -> ns, in first-closed order.
        self._time_single: dict[int, dict[str, int]] = {}
        self._time_multi: dict[int, dict[str, int]] = {}
        self._intervals_seen = 0
        self._pulses_total = 0
        self._span_t0_ns = 0
        self._last_interval_t1_ns = 0
        # Set once an interval ends past end_time_ns: the carry from
        # before that interval's batch, that batch's rows and every
        # later batch's, and how many of the batch's intervals were
        # charged before the tail began.
        self._tail: Optional[
            tuple[TimelineCarry, list[LogColumns], int]] = None
        self._pending: list[LogColumns] = []
        self._pending_rows = 0
        self._finished = False
        # Closed windows as stored rows (see _WindowRow), the newest
        # ``retain`` of them; ``_base`` is the row just before the oldest
        # kept one (None before window 0), whose cumulative sums the
        # oldest kept window's deltas are taken against.
        self._windows: deque[_WindowRow] = deque(maxlen=retain)
        self._base: Optional[_WindowRow] = None
        self._windows_emitted = 0
        self._window_origin = origin_ns
        self._window_index: Optional[int] = None
        self._prev_intervals = 0
        # Key tables the rows index: the energy keys in ``map.energy_j``
        # order (append-only, so a row's keys are a prefix), and every
        # busy-time key ever closed, interned.
        self._energy_keys: list[tuple[str, str]] = []
        self._time_keys: list[tuple[str, str]] = []
        self._time_ids: dict[tuple[str, str], int] = {}

    # -- feeding -------------------------------------------------------------

    def feed_columns(self, columns: LogColumns) -> None:
        """Take decoded rows, in log order.  Raises
        :class:`~repro.errors.LoggerError`, keeping none of them, on a
        record of an undeclared device."""
        if len(columns):
            _check_declared(columns.type, columns.res_id, self._refused)
            self._pending.append(columns)
            self._pending_rows += len(columns)
            if self._pending_rows >= MIN_BATCH_ENTRIES:
                self._flush()

    def feed(self, entry) -> None:
        """Take one decoded :class:`~repro.core.logger.LogEntry` (an
        adapter onto the same batched fold)."""
        self.feed_columns(LogColumns.from_entries((entry,)))

    def _flush(self, final: bool = False) -> None:
        """Fold every buffered row now; ``final`` folds them (however
        few, even none) as the stream's last batch."""
        pending = self._pending
        if not (pending or final):
            return
        self._pending = []
        self._pending_rows = 0
        if len(pending) > 1:
            pending = [LogColumns.concat(pending)]
        self._fold_batch(pending[0] if pending else _NO_ROWS, final)

    # -- the batch fold -------------------------------------------------------

    def _segment_names(self, timeline: ColumnarTimeline):
        return _segment_names(
            timeline, False, _label_namer(self.registry, self._value_names))

    def _contributions(self, timeline: ColumnarTimeline, segment_names):
        """The batch's ordered contribution stream (see
        :func:`_contribution_stream`)."""
        return _contribution_stream(
            timeline, [self._plans], [self._column_power],
            self.component_names, [self._const_power_w], segment_names,
            [self.idle_name], self.registry.name_of)

    def _fold_batch(self, columns: LogColumns, final: bool = False) -> None:
        """Fold one batch: reconstruct it against the carry, charge its
        intervals (all but those waiting for the tail re-cover), add its
        closed segments' busy time and close every window it crosses —
        each with the state just before the interval that closes it,
        read off the one contribution stream of the batch."""
        end = self.end_time_ns
        n = len(columns)
        saved = None
        if self._tail is None and end is not None and not final and n \
                and int(columns.time_ns[n - 1]) > end:
            saved = self._carry.copy()  # the tail may begin in this batch
        timeline = ColumnarTimeline(
            columns, end_time_ns=end, single_res_ids=self._single_ids,
            multi_res_ids=self._multi_ids, carry=self._carry, final=final)
        t0s = timeline.interval_t0
        t1s = timeline.interval_t1
        n_intervals = len(t0s)
        if n_intervals and self.regression is None:
            raise RegressionError(
                "accounting needs a regression once power intervals exist"
            )
        # Intervals charged now, and those charged before the windows the
        # batch closes: an interval ending past ``end_time_ns`` is charged
        # at the stream's end.  A final batch's covers are complete, so it
        # charges such intervals itself, after its windows; another waits
        # for the tail re-cover.
        charge = visible = n_intervals
        if self._tail is not None:
            charge = visible = 0
            if n:
                self._tail[1].append(columns)
        elif end is not None and n_intervals and int(t1s[-1]) > end:
            visible = int(np.searchsorted(t1s, end, side="right"))
            if not final:
                charge = visible
                self._tail = (saved, [columns], visible)
        segment_names = self._segment_names(timeline)
        closes = np.empty(0, dtype=np.int64)
        if n_intervals:
            if not self._intervals_seen:
                self._span_t0_ns = int(t0s[0])
            if self._window_index is None:
                if self._window_origin is None:
                    self._window_origin = int(t0s[0])
                self._window_index = \
                    (int(t0s[0]) - self._window_origin) // self.stride_ns
            index = (t0s - self._window_origin) // self.stride_ns
            previous = np.concatenate(([self._window_index], index[:-1]))
            closes = np.nonzero(index > previous)[0]
        # Chunk k of busy time: the segments closed before the record
        # that emits the k-th window-closing interval (and after the
        # previous one's); the last chunk is the rest of the batch.
        time_rows = self._add_busy_time(_busy_time(
            timeline, [*timeline.interval_row[closes].tolist(), n + 1],
            segment_names, self.registry.name_of, [self.idle_name]),
            len(closes))
        energy_rows, totals = self._charge_batch(
            timeline, segment_names, np.minimum(closes, visible), charge)
        if n_intervals:
            seen, pulses = self._intervals_seen, self._pulses_total
            cum_pulses = np.cumsum(timeline.interval_pulses)
            # Interval starts are monotone (intervals tile), so strides
            # close in order; a long interval can leave empty strides
            # behind it, which still emit (zero-delta) windows so the
            # window sequence is gap-free.
            for j, (i, target) in enumerate(zip(
                    closes.tolist(), index[closes].tolist())):
                # The state just before interval i is emitted.
                self._intervals_seen = seen + i
                if i:
                    self._pulses_total = pulses + int(cum_pulses[i - 1])
                    self._last_interval_t1_ns = int(t1s[i - 1])
                while self._window_index < target:
                    self._close_window(energy_rows[j], totals[j],
                                       *time_rows[j])
            self._intervals_seen = seen + n_intervals
            self._pulses_total = pulses + int(cum_pulses[-1])
            self._last_interval_t1_ns = int(t1s[-1])

    def _charge_batch(self, timeline: ColumnarTimeline, segment_names,
                      closes: np.ndarray, charge: int) -> tuple[list, list]:
        """Charge the batch's first ``charge`` intervals onto the running
        sums; return the map's energy row (in key order) and its
        reconstructed total as they stood just before each interval in
        ``closes`` (none past ``charge``).  New keys join the map in
        first-occurrence order, so a row's keys are a prefix of the
        map's."""
        energy_j = self.map.energy_j
        before = np.fromiter(energy_j.values(), dtype=np.float64,
                             count=len(energy_j))
        if not charge:
            return ([before] * len(closes),
                    [self.map.reconstructed_energy_j] * len(closes))
        stream_interval, _, code, values, n_codes, key_of = \
            self._contributions(timeline, segment_names)
        charged = int(np.searchsorted(stream_interval, charge, side="left"))
        stops = np.searchsorted(stream_interval, closes, side="left")
        keys, first, prefix, totals = _charge_prefixes(
            self.map, code[:charged], values[:charged], n_codes, key_of,
            stops)
        self._sync_energy_keys()
        if not len(closes):
            return [], []
        known = len(before)
        position = {key: at for at, key in enumerate(self._energy_keys)}
        columns = np.array([position[key] for key in keys], dtype=np.int64)
        rows = np.empty((len(closes), len(energy_j)), dtype=np.float64)
        rows[:, :known] = before
        rows[:, columns] = prefix
        # Keys new this batch take the map's last positions in the order
        # the stream first charges them: a row holds those charged
        # before its stop.
        widths = known + np.searchsorted(first[columns >= known], stops)
        return ([row[:width] for row, width in zip(rows, widths.tolist())],
                totals.tolist())

    def _add_busy_time(self, busy, n_rows: int) -> list[tuple]:
        """Add the batch's busy time (:func:`_busy_time`'s pairs, in
        ``n_rows + 1`` chunks) to the per-device sums; return the
        breakdown (see :func:`_fold_time`) after each chunk but the
        last, as interned key ids and ns.

        Each (device, name) sum is a slot, laid out in the breakdown's
        iteration order as it stands after the batch (sorted devices,
        names in first-closed order).  A slot's value after chunk k is
        its final value less the chunk adds after k (one int64
        cumsum).  A row holds the slots present by then, each (component,
        name) key once, at its first slot, with the sum of its slots;
        that layout changes only where a slot new this batch joins, so
        rows share it between such chunks."""
        added = _add_busy(busy, [self._time_single], [self._time_multi])
        if not n_rows:
            return []
        slot_of: dict[tuple[int, str], int] = {}
        slot_keys: list[tuple[str, str]] = []
        finals: list[int] = []
        for per_device in (self._time_single, self._time_multi):
            for res_id in sorted(per_device):
                component = self.component_names.get(res_id, f"res{res_id}")
                per_name = per_device[res_id]
                for name, dt_ns in per_name.items():
                    slot_of[id(per_name), name] = len(finals)
                    slot_keys.append((component, name))
                    finals.append(dt_ns)
        pair_slot = [slot_of[id(per_name), name]
                     for per_name, name, _ in added]
        later = np.zeros((n_rows + 1, len(finals)), dtype=np.int64)
        later[:, pair_slot] = busy[2]
        # Adds after chunk k: the suffix sums of the chunk rows.
        values = np.asarray(finals, dtype=np.int64) \
            - np.cumsum(later[::-1], axis=0)[-2::-1]
        # A slot new this batch is present from the chunk of its first
        # add; the others were before.
        born = [-1] * len(finals)
        for (_, _, new), slot, chunk in zip(added, pair_slot, busy[1]):
            if new:
                born[slot] = chunk
        starts = sorted({0, *(b for b in born if 0 < b < n_rows)})
        rows: list[tuple] = []
        for lo, hi in zip(starts, starts[1:] + [n_rows]):
            present = [slot for slot, b in enumerate(born) if b <= lo]
            ids, merge = self._time_layout([slot_keys[s] for s in present])
            block = values[lo:hi, present]
            if merge is not None:
                block = block @ merge
            rows += [(ids, row) for row in block]
        return rows

    def _time_layout(self, keys: list) -> tuple:
        """A breakdown row's layout from its slots' keys: the interned
        ids of the distinct keys in first-slot order (new keys interned
        as rows first show them) and, when keys repeat (devices sharing
        a component name), the 0/1 matrix summing slots into keys."""
        time_ids = self._time_ids
        merged = list(dict.fromkeys(keys))
        for key in merged:
            if key not in time_ids:
                time_ids[key] = len(self._time_keys)
                self._time_keys.append(key)
        ids = np.array([time_ids[key] for key in merged], dtype=np.int32)
        if len(merged) == len(keys):
            return ids, None
        merge = np.zeros((len(keys), len(merged)), dtype=np.int64)
        column = {key: k for k, key in enumerate(merged)}
        merge[np.arange(len(keys)), [column[key] for key in keys]] = 1
        return ids, merge

    def _recover_tail(self) -> None:
        """Charge the intervals deferred past ``end_time_ns``: rebuild
        every row since the tail's first batch as one final batch — each
        segment now closed where the finished stream closes it — and
        charge its intervals from the first deferred one on, in order."""
        carry, parts, charged = self._tail
        self._tail = None
        timeline = ColumnarTimeline(
            LogColumns.concat(parts), end_time_ns=self.end_time_ns,
            single_res_ids=self._single_ids, multi_res_ids=self._multi_ids,
            carry=carry, final=True)
        stream_interval, log, code, values, n_codes, key_of = \
            self._contributions(timeline, self._segment_names(timeline))
        start = int(np.searchsorted(stream_interval, charged, side="left"))
        _charge_stream([self.map], log[start:], code[start:],
                       values[start:], n_codes, key_of)

    # -- the stride clock ---------------------------------------------------

    def _close_window(self, energy: np.ndarray, reconstructed_energy_j:
                      float, time_ids: np.ndarray, time_ns: np.ndarray,
                      final: bool = False) -> None:
        """Close the open window on the given cumulative state and the
        counters as they stand."""
        index = self._window_index
        t0_ns = self._window_origin + index * self.stride_ns
        row = _WindowRow(
            index=index,
            t0_ns=t0_ns,
            t1_ns=(self._last_interval_t1_ns if final
                   else t0_ns + self.stride_ns),
            intervals=self._intervals_seen - self._prev_intervals,
            span_ns=self._last_interval_t1_ns - self._span_t0_ns,
            final=final,
            reconstructed_energy_j=reconstructed_energy_j,
            metered_energy_j=self._pulses_total * self.energy_per_pulse_j,
            energy=energy,
            time_ids=time_ids,
            time_ns=time_ns,
        )
        self._prev_intervals = self._intervals_seen
        self._window_index = index + 1
        windows = self._windows
        if len(windows) == windows.maxlen:
            self._base = windows[0] if windows else row
        windows.append(row)
        self._windows_emitted += 1

    def _sync_energy_keys(self) -> None:
        """Append the energy keys charged since the last sync."""
        keys = self._energy_keys
        if len(self.map.energy_j) > len(keys):
            keys.extend(islice(self.map.energy_j, len(keys), None))

    def _snapshot_of(self, row: "_WindowRow",
                     previous: Optional["_WindowRow"]) -> WindowSnapshot:
        """Build ``row``'s :class:`WindowSnapshot`; ``previous`` is the
        window before it (None for window 0).  The deltas are the
        subtractions the close used to make, in the same order: each
        key's cumulative value minus its previous one (0 for a key new
        this window), zero deltas omitted."""
        energy_keys = self._energy_keys
        delta = row.energy.copy()
        if previous is not None:
            delta[:len(previous.energy)] -= previous.energy
        moved = np.flatnonzero(delta).tolist()
        time_keys = self._time_keys
        ids = row.time_ids.tolist()
        values = row.time_ns.tolist()
        before = {} if previous is None else dict(
            zip(previous.time_ids.tolist(), previous.time_ns.tolist()))
        delta_time: dict[tuple[str, str], int] = {}
        for key_id, value in zip(ids, values):
            change = value - before.get(key_id, 0)
            if change:
                delta_time[time_keys[key_id]] = change
        return WindowSnapshot(
            index=row.index,
            t0_ns=row.t0_ns,
            t1_ns=row.t1_ns,
            intervals=row.intervals,
            energy_j=dict(zip([energy_keys[k] for k in moved],
                              delta[moved].tolist())),
            time_ns=delta_time,
            cumulative_energy_j=dict(zip(energy_keys, row.energy.tolist())),
            cumulative_time_ns=dict(zip([time_keys[k] for k in ids],
                                        values)),
            reconstructed_energy_j=row.reconstructed_energy_j,
            metered_energy_j=row.metered_energy_j,
            span_ns=row.span_ns,
            final=row.final,
        )

    def finish(self) -> EnergyMap:
        """Fold what is buffered, close every open span, charge the tail
        and close the final window.  Idempotent: a second call returns
        the same map without re-charging."""
        if self._finished:
            return self.map
        self._flush(final=True)
        if not self._intervals_seen:
            raise RegressionError("no power intervals to account")
        self._finished = True
        if self._tail is not None:
            self._recover_tail()
        emap = self.map
        emap.time_ns = _fold_time(
            self._time_single, self._time_multi, self.component_names)
        emap.span_ns = self._last_interval_t1_ns - self._span_t0_ns
        emap.metered_energy_j = self._pulses_total * self.energy_per_pulse_j
        if self._window_index is not None:
            self._sync_energy_keys()
            self._close_window(
                np.fromiter(emap.energy_j.values(), dtype=np.float64,
                            count=len(emap.energy_j)),
                emap.reconstructed_energy_j,
                self._time_layout(list(emap.time_ns))[0],
                np.fromiter(emap.time_ns.values(), dtype=np.int64,
                            count=len(emap.time_ns)),
                final=True)
        return emap

    def recent(self, count: Optional[int] = None) -> list[WindowSnapshot]:
        """The newest ``count`` retained windows (every retained one when
        None), oldest first, built from their stored rows: a window's
        snapshot objects exist only while a caller holds them."""
        if count is not None and count < 0:
            raise WindowingError(f"window count must be >= 0, got {count}")
        self._flush()
        rows = list(self._windows)
        first = 0 if count is None else max(len(rows) - count, 0)
        previous = rows[first - 1] if first else self._base
        snapshots = []
        for row in rows[first:]:
            snapshots.append(self._snapshot_of(row, previous))
            previous = row
        return snapshots

    @property
    def windows(self) -> list[WindowSnapshot]:
        """Closed windows, oldest first, bounded by ``retain`` (None
        retains everything — batch-replay use only)."""
        return self.recent()

    @property
    def windows_emitted(self) -> int:
        """Total windows closed (unlike ``len(windows)``, unaffected by
        the retention bound)."""
        self._flush()
        return self._windows_emitted

    # -- durability ---------------------------------------------------------

    def snapshot(self) -> bytes:
        """The accumulator's complete mid-stream state as bytes, buffered
        rows folded first: a JSON header and the raw little-endian arrays
        it refers to by position (window rows, carried segment columns,
        tail rows; see :func:`_pack_state`).  Everything the fold
        contract depends on rides along — the carried spans, the tail
        rows, the per-key running sums, the window clock, the retained
        window rows and the row before them — so :meth:`load_snapshot`
        of it, fed the remaining rows, produces windows and a final map
        **bit-identical** to an uninterrupted accumulator (the
        crash-safety contract the ingest server's checkpoints lean on).
        Nothing in it is executable on load.

        What the constructor takes (regression, registry, component
        names, stride, idle name, end time, origin, retention) is not
        captured, nor what :meth:`finish` derives from the rest:
        :meth:`load_snapshot` loads into an accumulator built with the
        same arguments.  The declared device sets ride
        along as a check: a snapshot taken under other sets is refused.
        """
        self._flush()
        self._sync_energy_keys()
        arrays: list[np.ndarray] = []

        def put(array: np.ndarray) -> int:
            arrays.append(array)
            return len(arrays) - 1

        emap = self.map
        kept = list(self._windows)
        if self._base is not None:
            kept.insert(0, self._base)
        tail = None
        if self._tail is not None:
            carry, parts, charged = self._tail
            rows = LogColumns.concat(parts)
            tail = [_carry_state(carry, put),
                    [put(rows.type), put(rows.res_id), put(rows.time_ns),
                     put(rows.icount), put(rows.value)], charged]
        state = {
            "devices": [self._single_ids, self._multi_ids],
            "carry": _carry_state(self._carry, put),
            "energy_keys": list(self._energy_keys),
            "energy": put(np.fromiter(emap.energy_j.values(),
                                      dtype=np.float64,
                                      count=len(emap.energy_j))),
            "reconstructed": emap.reconstructed_energy_j,
            "busy": [[[res_id, list(per_name.items())]
                      for res_id, per_name in per_device.items()]
                     for per_device in (self._time_single,
                                        self._time_multi)],
            "counters": [self._intervals_seen, self._pulses_total,
                         self._span_t0_ns, self._last_interval_t1_ns,
                         self._prev_intervals, self._windows_emitted],
            "clock": [self._window_origin, self._window_index],
            "finished": self._finished,
            "tail": tail,
            "time_keys": list(self._time_keys),
            "windows": [self._base is not None, [
                put(np.array([(r.index, r.t0_ns, r.t1_ns, r.intervals,
                               r.span_ns, r.final, len(r.energy),
                               len(r.time_ids)) for r in kept],
                             dtype=np.int64).reshape(-1)),
                put(np.array([(r.reconstructed_energy_j, r.metered_energy_j)
                              for r in kept], dtype=np.float64).reshape(-1)),
                put(_concat([r.energy for r in kept], np.float64)),
                put(_concat([r.time_ids for r in kept], np.int32)),
                put(_concat([r.time_ns for r in kept], np.int64)),
            ]],
        }
        return _pack_state(state, arrays)

    def load_snapshot(self, blob: bytes) -> None:
        """Load a :meth:`snapshot` into this accumulator, freshly built
        with the snapshotted one's constructor arguments (its
        ``retain`` may differ: the newest rows are kept).  Raises
        :class:`WindowingError` on a snapshot that does not hold
        together or declares other devices, leaving this accumulator
        untouched."""
        try:
            state, arrays = _unpack_state(blob)
            if state["devices"] != [self._single_ids, self._multi_ids]:
                raise WindowingError(
                    "bad WindowedAccumulator snapshot: its device sets "
                    f"{state['devices']} are not this accumulator's")
            loaded = _load_state(state, arrays, self._windows.maxlen)
        except WindowingError:
            raise
        except (AttributeError, KeyError, IndexError, TypeError,
                ValueError, struct.error) as exc:
            raise WindowingError(
                f"bad WindowedAccumulator snapshot: {exc!r}") from exc
        for name, value in loaded.items():
            setattr(self, name, value)
        if self._finished:
            # What finish() derives from the state above.
            self.map.time_ns = _fold_time(
                self._time_single, self._time_multi, self.component_names)
            self.map.span_ns = self._last_interval_t1_ns - self._span_t0_ns
            self.map.metered_energy_j = (
                self._pulses_total * self.energy_per_pulse_j
            )

    # -- live views ---------------------------------------------------------

    def live_breakdown(self) -> dict:
        """The cumulative breakdown *right now*, without closing the
        stream: what a dashboard polls between window closes.  Energy
        values are the exact running sums; time covers closed segments."""
        self._flush()
        return {
            "energy_j": dict(self.map.energy_j),
            "time_ns": _fold_time(self._time_single, self._time_multi,
                                  self.component_names),
            "reconstructed_energy_j": self.map.reconstructed_energy_j,
            "metered_energy_j": (
                self._pulses_total * self.energy_per_pulse_j
            ),
            "span_ns": self._last_interval_t1_ns - self._span_t0_ns,
            "intervals": self._intervals_seen,
            "windows_emitted": self._windows_emitted,
        }


class _WindowRow(NamedTuple):
    """One closed window as a :class:`WindowedAccumulator` keeps it: the
    scalars of its :class:`WindowSnapshot` plus its cumulative sums as
    rows.  ``energy`` holds the running energy of the accumulator's
    first ``len(energy)`` energy keys (keys are only ever appended, so
    the window's keys are a prefix); ``time_ids``/``time_ns`` hold the
    busy-time breakdown as interned key ids and ns, in its dict order.
    The deltas are rebuilt from consecutive rows when read."""

    index: int
    t0_ns: int
    t1_ns: int
    intervals: int
    span_ns: int
    final: bool
    reconstructed_energy_j: float
    metered_energy_j: float
    energy: np.ndarray
    time_ids: np.ndarray
    time_ns: np.ndarray


def _concat(parts: list, dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)


def _carry_state(carry: TimelineCarry, put) -> list:
    """A :class:`TimelineCarry` as JSON-able lists, its single devices'
    closed-segment columns stored through ``put`` (label sets sorted:
    the fold interns them by sorted value, so order is not state)."""
    return [
        list(carry.states.items()),
        [carry.span_t0, carry.span_pulses, carry.last_time,
         carry.last_icount],
        [[res_id, t0, label]
         for res_id, (t0, label) in carry.single_open.items()],
        [[res_id, t0, sorted(labels)]
         for res_id, (t0, labels) in carry.multi_open.items()],
        [[res_id, put(t0s), put(t1s), put(labels)]
         for res_id, (t0s, t1s, labels) in carry.single_done.items()],
        [[res_id, list(t0s), list(t1s), [sorted(s) for s in sets]]
         for res_id, (t0s, t1s, sets) in carry.multi_done.items()],
    ]


def _load_carry(state: list, array) -> TimelineCarry:
    states, (span_t0, span_pulses, last_time, last_icount), single_open, \
        multi_open, single_done, multi_done = state
    return TimelineCarry(
        states={int(res_id): int(value) for res_id, value in states},
        span_t0=_int_or_none(span_t0), span_pulses=int(span_pulses),
        last_time=_int_or_none(last_time), last_icount=int(last_icount),
        single_open={int(res_id): (int(t0), int(label))
                     for res_id, t0, label in single_open},
        multi_open={int(res_id): (int(t0), frozenset(labels))
                    for res_id, t0, labels in multi_open},
        single_done={int(res_id): (array(t0s), array(t1s), array(labels))
                     for res_id, t0s, t1s, labels in single_done},
        multi_done={int(res_id): (list(t0s), list(t1s),
                                  [frozenset(s) for s in sets])
                    for res_id, t0s, t1s, sets in multi_done},
    )


def _int_or_none(value) -> Optional[int]:
    return None if value is None else int(value)


#: A snapshot's JSON header length (u32); the header is padded so the
#: arrays after it start 8-byte aligned, and each array is padded to 8
#: bytes, so decoded arrays are aligned views of the snapshot's bytes.
_STATE_HEADER = struct.Struct("<I")
_ALIGN = 8

#: The only array types a snapshot may hold.
_STATE_DTYPES = frozenset(
    np.dtype(name).str for name in ("u1", "i4", "i8", "f8"))


def _pack_state(state: dict, arrays: Sequence[np.ndarray]) -> bytes:
    """``state`` (JSON-able; refers to ``arrays`` by position) with the
    arrays' table (dtype, length) under ``"arrays"``, as JSON, then
    each array's raw bytes."""
    state = dict(state, arrays=[[array.dtype.str, array.size]
                                for array in arrays])
    text = json.dumps(state, separators=(",", ":")).encode("utf-8")
    text += b" " * (-(_STATE_HEADER.size + len(text)) % _ALIGN)
    parts = [_STATE_HEADER.pack(len(text)), text]
    for array in arrays:
        data = array.tobytes()
        parts.append(data)
        parts.append(bytes(-len(data) % _ALIGN))
    return b"".join(parts)


def _unpack_state(blob: bytes) -> tuple[dict, list[np.ndarray]]:
    """The state dict and arrays of a :func:`_pack_state` blob (arrays
    are read-only views of ``blob``).  Raises :class:`WindowingError`
    when the array table disagrees with the bytes after the header."""
    (length,) = _STATE_HEADER.unpack_from(blob)
    at = _STATE_HEADER.size + length
    state = json.loads(blob[_STATE_HEADER.size:at])
    arrays = []
    for dtype, count in state.pop("arrays"):
        if dtype not in _STATE_DTYPES or type(count) is not int \
                or count < 0:
            raise WindowingError("bad WindowedAccumulator snapshot: "
                                 f"array {dtype!r} x {count!r}")
        arrays.append(np.frombuffer(blob, dtype=dtype, count=count,
                                    offset=at))
        nbytes = arrays[-1].nbytes
        at += nbytes + (-nbytes % _ALIGN)
    if at != len(blob):
        raise WindowingError(
            f"bad WindowedAccumulator snapshot: its array table covers "
            f"{at} of {len(blob)} bytes")
    return state, arrays


def _load_state(state: dict, arrays: Sequence[np.ndarray],
                retain: Optional[int]) -> dict:
    """Decode :meth:`WindowedAccumulator.snapshot` output into the
    attribute values :meth:`~WindowedAccumulator.load_snapshot` sets,
    checking that the arrays and the counts naming them agree."""
    def array(ref) -> np.ndarray:
        if type(ref) is not int:
            raise WindowingError(
                f"bad WindowedAccumulator snapshot: array ref {ref!r}")
        return arrays[ref]

    energy_keys = [(str(c), str(a)) for c, a in state["energy_keys"]]
    energy = array(state["energy"])
    if len(energy) != len(energy_keys):
        raise WindowingError(
            f"bad WindowedAccumulator snapshot: {len(energy)} energy sums "
            f"for {len(energy_keys)} keys")
    emap = EnergyMap(energy_j=dict(zip(energy_keys, energy.tolist())),
                     reconstructed_energy_j=float(state["reconstructed"]))
    time_single, time_multi = (
        {int(res_id): {str(name): int(ns) for name, ns in per_name}
         for res_id, per_name in per_device}
        for per_device in state["busy"])
    intervals_seen, pulses_total, span_t0_ns, last_t1_ns, prev_intervals, \
        emitted = (int(value) for value in state["counters"])
    origin, index = state["clock"]
    tail = state["tail"]
    if tail is not None:
        carry, refs, charged = tail
        columns = [array(ref) for ref in refs]
        if len({len(column) for column in columns}) != 1:
            raise WindowingError("bad WindowedAccumulator snapshot: tail "
                                 "columns of unequal length")
        tail = (_load_carry(carry, array), [LogColumns(*columns)],
                int(charged))
    time_keys = [(str(c), str(n)) for c, n in state["time_keys"]]
    has_base, refs = state["windows"]
    ints, floats, energies, time_ids, time_values = map(array, refs)
    count = len(ints) // 8
    if len(ints) != 8 * count or len(floats) != 2 * count:
        raise WindowingError(
            "bad WindowedAccumulator snapshot: window table sizes "
            f"{len(ints)} and {len(floats)} disagree")
    table = ints.reshape(count, 8)
    prefix = table[:, 6]
    if int(prefix.sum()) != len(energies) \
            or int(table[:, 7].sum()) != len(time_ids) \
            or len(time_ids) != len(time_values) \
            or (count and int(prefix[-1]) > len(energy_keys)) \
            or bool((np.diff(prefix) < 0).any()) \
            or (len(time_ids) and not 0 <= int(time_ids.min())
                <= int(time_ids.max()) < len(time_keys)):
        raise WindowingError(
            "bad WindowedAccumulator snapshot: window rows disagree with "
            "their counts or key tables")
    rows = []
    at_e = at_t = 0
    for (row_index, t0_ns, t1_ns, intervals, row_span, final, n_energy,
         n_time), (row_reconstructed, row_metered) in zip(
            table.tolist(), floats.reshape(count, 2).tolist()):
        rows.append(_WindowRow(
            row_index, t0_ns, t1_ns, intervals, row_span, bool(final),
            row_reconstructed, row_metered,
            energies[at_e:at_e + n_energy],
            time_ids[at_t:at_t + n_time],
            time_values[at_t:at_t + n_time]))
        at_e += n_energy
        at_t += n_time
    base = rows.pop(0) if has_base and rows else None
    windows: deque[_WindowRow] = deque(rows, maxlen=retain)
    if len(rows) > len(windows):
        base = rows[-len(windows) - 1]
    return {
        "_carry": _load_carry(state["carry"], array),
        "map": emap,
        "_time_single": time_single,
        "_time_multi": time_multi,
        "_intervals_seen": intervals_seen,
        "_pulses_total": pulses_total,
        "_span_t0_ns": span_t0_ns,
        "_last_interval_t1_ns": last_t1_ns,
        "_prev_intervals": prev_intervals,
        "_windows_emitted": emitted,
        "_window_origin": _int_or_none(origin),
        "_window_index": _int_or_none(index),
        "_finished": bool(state["finished"]),
        "_tail": tail,
        "_windows": windows,
        "_base": base,
        "_energy_keys": energy_keys,
        "_time_keys": time_keys,
        "_time_ids": {key: key_id for key_id, key in enumerate(time_keys)},
    }


# -- columnar backend -------------------------------------------------------


def _ragged_cover(window_t0, window_t1, seg_t0, seg_t1):
    """``searchsorted``-based interval cover: how a batch of windows
    divides among one device's sorted, non-overlapping segments.

    Returns ``(offsets, seg_rows, overlaps)``: window ``i`` is covered
    by segment rows ``seg_rows[offsets[i]:offsets[i+1]]`` with the
    matching per-row overlaps (all positive, in time order) — exactly
    the spans the cursor-based streaming cover yields, computed for
    every window at once.
    """
    # A segment overlaps [a, b) iff its t1 > a and its t0 < b; with both
    # boundaries arrays sorted, those are two vectorized bisections.
    lo = np.searchsorted(seg_t1, window_t0, side="right")
    hi = np.searchsorted(seg_t0, window_t1, side="left")
    counts = hi - lo
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    window_rows = np.repeat(np.arange(len(counts)), counts)
    seg_rows = (np.arange(total, dtype=np.int64)
                - np.repeat(offsets[:-1], counts)
                + np.repeat(lo, counts))
    overlaps = (np.minimum(seg_t1[seg_rows], window_t1[window_rows])
                - np.maximum(seg_t0[seg_rows], window_t0[window_rows]))
    return offsets, seg_rows, overlaps


def _charge_stream(maps, log, code, values, n_codes, key_of) -> None:
    """Add an ordered contribution stream to running sums: row ``r``
    goes to ``maps[log[r]]`` — its per-key dict ``energy_j`` (keys new
    to it inserted in first-occurrence stream order) and its
    reconstructed total.  ``code`` carries the log too (``key_of(code)``
    is ``(log, key)``), so one pass serves every log.

    ``np.bincount`` accumulates each bin's weights strictly in array
    order, starting from ``0.0`` — the ``energy_j.get(key, 0.0) + x``
    fold the reference performs.  Each key's prior running sum goes in
    as the first weight of its bin (``0.0 + prior`` is exact, and a sum
    begun at ``0.0`` is never ``-0.0``), so the adds continue in the
    same IEEE-754 order whether the stream is a whole log or one window
    of a live batch.  Codes live in a small dense range (logs x
    components x names), so first-occurrence order comes from a
    reversed fancy assignment (last write wins == first occurrence), no
    sort needed.
    """
    n_rows = len(code)
    first_row = np.full(n_codes, -1, dtype=np.int64)
    first_row[code[::-1]] = np.arange(n_rows - 1, -1, -1, dtype=np.int64)
    present = np.nonzero(first_row >= 0)[0]
    ordered = present[np.argsort(first_row[present], kind="stable")]
    energies = [emap.energy_j for emap in maps]
    keys = [key_of(c) for c in ordered.tolist()]
    prior = [energies[k].get(key, 0.0) for k, key in keys]
    # One bincount for both sums: the key codes, then one bin per map
    # (past n_codes) for its reconstructed total, each bin's prior first.
    n_maps = len(maps)
    totals = np.bincount(
        np.concatenate((ordered, code, np.arange(n_codes, n_codes + n_maps),
                        log + n_codes)),
        weights=np.concatenate((
            prior, values, [emap.reconstructed_energy_j for emap in maps],
            values)),
        minlength=n_codes + n_maps)
    for (k, key), total in zip(keys, totals[ordered].tolist()):
        energies[k][key] = total
    for emap, total in zip(maps, totals[n_codes:].tolist()):
        emap.reconstructed_energy_j = total


def _charge_prefixes(emap, code, values, n_codes, key_of, stops):
    """Add a one-log contribution stream to ``emap``'s running sums,
    exactly as :func:`_charge_stream` does, and read the sums as they
    stood before each of the stream positions ``stops`` (non-decreasing):
    the cumulative rows of every window a live batch closes.

    The stream is cut at the stops, and each piece is one ``bincount``
    over the codes with every code's running sum going in first (see
    :func:`_charge_stream`): the chained adds of the reference, with the
    code table, priors and key order resolved once for the whole
    stream.  The reconstructed total is one ``np.add.accumulate`` over
    ``[prior total, contributions]`` (accumulate is strictly
    sequential).

    Returns ``(keys, first, prefix, totals)``: the keys in
    first-occurrence order (as new keys join the map), each key's first
    stream row, each key's sum before each stop (``len(stops) x
    len(keys)``) and the total before each stop.
    """
    n_rows = len(code)
    first_row = np.full(n_codes, n_rows, dtype=np.int64)
    first_row[code[::-1]] = np.arange(n_rows - 1, -1, -1, dtype=np.int64)
    codes = np.nonzero(first_row < n_rows)[0]
    codes = codes[np.argsort(first_row[codes], kind="stable")]
    energy_j = emap.energy_j
    keys = [key_of(c)[1] for c in codes.tolist()]
    sums = np.zeros(n_codes)
    sums[codes] = [energy_j.get(key, 0.0) for key in keys]
    every_code = np.arange(n_codes)
    bounds = [0, *stops.tolist(), n_rows]
    prefix = np.empty((len(stops), len(codes)))
    for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if hi > lo:
            sums = np.bincount(np.concatenate((every_code, code[lo:hi])),
                               weights=np.concatenate((sums, values[lo:hi])),
                               minlength=n_codes)
        if j < len(stops):
            prefix[j] = sums[codes]
    totals = np.empty(n_rows + 1)
    totals[0] = emap.reconstructed_energy_j
    totals[1:] = values
    totals = np.add.accumulate(totals)
    for key, total in zip(keys, sums[codes].tolist()):
        energy_j[key] = total
    emap.reconstructed_energy_j = float(totals[-1])
    return keys, first_row[codes], prefix, totals[stops]


def _segment_names(timeline, fold_proxies, name_of_value):
    """Each single-device segment's activity name, as codes into a name
    list: the label it is charged to (its bound label with
    ``fold_proxies``, else its painted one) named once per distinct
    label, since a handful of labels name hundreds of segments.  The
    cover and the busy time share them."""
    values = timeline.single_segments.label_values(fold_proxies)
    labels = np.unique(values)
    name_ids: dict[str, int] = {}
    table = np.array([name_ids.setdefault(name_of_value(value), len(name_ids))
                      for value in labels.tolist()], dtype=np.int64)
    return table[np.searchsorted(labels, values)], list(name_ids)


def _busy_time(timeline, bounds, segment_names, name_of, idle_names):
    """The busy time (Table 3a) a timeline's segments add, cut into
    chunks by closing row (chunk k: closed before row ``bounds[k]`` of
    its log and not before ``bounds[k-1]``), summed per (device, name)
    pair — the streaming trackers' name→ns accumulation.  A single
    device's segments count under their names from
    :func:`_segment_names`.  Segments an earlier batch timed (row -1)
    or still open (row past the last bound) add nothing; whole logs are
    one chunk past their last rows.  :func:`_add_busy` adds the pairs
    up and :func:`_fold_time` gives the breakdown.

    Returns ``(pairs, born, sums)``: each pair ``(device, name)`` —
    the device ``(log * _RES_SPACE + res_id) * 2``, plus one for a
    multi device — in the order each device first adds to its names
    (chunk by chunk, in close order), the chunk of each pair's first
    add, and each pair's ns per chunk (``len(bounds) x pairs``)."""
    cuts = np.asarray(bounds, dtype=np.int64)
    n_chunks = len(bounds)
    pairs: list[tuple[int, str]] = []
    born: list[int] = []
    parts = [np.zeros((n_chunks, 0), dtype=np.int64)]
    # Single devices of every log, fused: one grouping over the fresh
    # segments keyed by (chunk, (log, device) group, name); float sums
    # of int spans (exact while a device's busy time stays below 2**53
    # ns, ~104 days).  A device's segments are in close order, so a
    # pair's first segment orders its first add.
    singles = timeline.single_segments
    groups = timeline.single_keys
    chunk = np.searchsorted(cuts, singles.close_row, side="right")
    fresh = np.nonzero((singles.close_row >= 0) & (chunk < n_chunks))[0]
    if len(fresh):
        codes, names = segment_names
        group = np.repeat(np.arange(len(groups)),
                          timeline.single_bounds[1:]
                          - timeline.single_bounds[:-1])[fresh]
        pair = group * len(names) + codes[fresh]
        n_pairs = len(groups) * len(names)
        first = np.full(n_pairs, len(fresh), dtype=np.int64)
        first[pair[::-1]] = np.arange(len(fresh) - 1, -1, -1,
                                      dtype=np.int64)
        present = np.nonzero(first < len(fresh))[0]
        present = present[np.argsort(first[present], kind="stable")]
        chunk = chunk[fresh]
        sums = np.bincount(chunk * n_pairs + pair,
                           weights=(singles.t1 - singles.t0)[fresh],
                           minlength=n_chunks * n_pairs)
        parts.append(sums.reshape(n_chunks, n_pairs)[:, present]
                     .astype(np.int64))
        pairs += [(int(groups[k // len(names)]) * 2, names[k % len(names)])
                  for k in present.tolist()]
        born += chunk[first[present]].tolist()
    # Multi devices: a few add/removes per second, one python pass over
    # their closed spans, each split among the labels it carries.
    index: dict[tuple[int, str], int] = {}
    adds: list[tuple[int, int, int]] = []
    sets = timeline.label_sets
    multis = timeline.multi_segments
    offsets = timeline.multi_bounds.tolist()
    for g, group_key in enumerate(timeline.multi_keys.tolist()):
        multi = multis[offsets[g]:offsets[g + 1]]
        chunk = np.searchsorted(cuts, multi.close_row, side="right")
        fresh = np.nonzero((multi.close_row >= 0) & (chunk < n_chunks))[0]
        device = group_key * 2 + 1
        idle = [idle_names[group_key // _RES_SPACE]]
        spans = (multi.t1 - multi.t0)[fresh].tolist()
        for k, chunk_k, dt_ns in zip(fresh.tolist(),
                                     chunk[fresh].tolist(), spans):
            labels = sets[multi.set_ids[k]]
            split = dt_ns // len(labels) if labels else dt_ns
            for name in [name_of(label) for label in labels] or idle:
                p = index.get((device, name))
                if p is None:
                    p = index[device, name] = len(index)
                    pairs.append((device, name))
                    born.append(chunk_k)
                adds.append((chunk_k, p, split))
    if index:
        sums = np.zeros((n_chunks, len(index)), dtype=np.int64)
        chunks, columns, ns = zip(*adds)
        np.add.at(sums, (list(chunks), list(columns)), list(ns))
        parts.append(sums)
    return pairs, born, np.hstack(parts)


def _add_busy(busy, time_single, time_multi) -> list[tuple]:
    """Add :func:`_busy_time`'s pairs to the per-device ``name -> ns``
    sums of each log (``time_single[k]`` / ``time_multi[k]`` for log
    ``k``, ``res_id -> {name: ns}``, created as devices first add
    time), in pair order — so a name new to its device joins its dict
    where the streaming trackers insert it.  Returns each pair's
    ``(per-name dict, name, new)``."""
    pairs, _, sums = busy
    added = []
    for (device, name), total in zip(pairs, sums.sum(axis=0).tolist()):
        group, multi = divmod(device, 2)
        log, res_id = divmod(group, _RES_SPACE)
        per_name = (time_multi if multi else time_single)[log] \
            .setdefault(res_id, {})
        added.append((per_name, name, name not in per_name))
        per_name[name] = per_name.get(name, 0) + total
    return added


def _fold_time(time_single, time_multi,
               component_names) -> dict[tuple[str, str], int]:
    """The busy-time breakdown from per-device name→ns sums, in the
    finished map's order: sorted single devices, then sorted multi
    devices, each with its names in first-closed order.  Only closed
    segments count (an open span's label is charged when it closes)."""
    cumulative: dict[tuple[str, str], int] = {}
    for per_device in (time_single, time_multi):
        for res_id in sorted(per_device):
            component = component_names.get(res_id, f"res{res_id}")
            for name, dt_ns in per_device[res_id].items():
                key = (component, name)
                cumulative[key] = cumulative.get(key, 0) + dt_ns
    return cumulative


def _single_cover(timeline, intervals, groups, dt_ns, idle_ids, seg_names):
    """How (charge, interval) rows of single-tracked charges divide among
    activity names: row ``r`` is interval ``intervals[r]`` on (log,
    device) group ``groups[r]`` of ``timeline.single_segments``, whose
    segments carry name ids ``seg_names``.  One fused cover and one
    grouping sort serve every row.

    Returns ``(row, rank, name, share)`` per (row, name) group: ``rank``
    orders a row's groups as the reference charges them (the first
    covering segment of each name, in time order), ``share`` is the int
    ns covered.  A row's uncovered remainder joins its group named
    ``idle_ids[r]`` if it has one, else is appended, ranked last.
    """
    # Shift each (log, device) group into its own disjoint time band so
    # one sorted segment array (and one bisection pair) covers them all;
    # overlaps are time differences, unaffected by the shift.
    segments = timeline.single_segments
    span_ns = 1 + max(int(segments.t1.max(initial=0)),
                      int(timeline.interval_t1.max(initial=0)))
    bounds = timeline.single_bounds
    shift = np.repeat(
        np.arange(len(timeline.single_keys), dtype=np.int64) * span_ns,
        bounds[1:] - bounds[:-1])
    row_shift = groups * span_ns
    offsets, seg_rows, overlaps = _ragged_cover(
        timeline.interval_t0[intervals] + row_shift,
        timeline.interval_t1[intervals] + row_shift,
        segments.t0 + shift, segments.t1 + shift)
    n_rows = len(intervals)
    pair_row = np.repeat(np.arange(n_rows, dtype=np.int64),
                         offsets[1:] - offsets[:-1])
    if len(pair_row):
        # Group cover rows by (row, name): a stable sort on a composite
        # key; first-occurrence positions give the dict insertion rank,
        # int sums the per-name shares (exact).
        pair_name = seg_names[seg_rows]
        group_key = pair_row * (int(seg_names.max()) + 1) + pair_name
        order = np.argsort(group_key, kind="stable")
        sorted_key = group_key[order]
        first = np.empty(len(sorted_key), dtype=bool)
        first[0] = True
        np.not_equal(sorted_key[1:], sorted_key[:-1], out=first[1:])
        group_starts = np.nonzero(first)[0]
        rank = order[group_starts]
        share = np.add.reduceat(overlaps[order], group_starts)
        row = pair_row[rank]
        name = pair_name[rank]
        covered = np.bincount(
            pair_row, weights=overlaps, minlength=n_rows).astype(np.int64)
    else:
        rank, share, row, name = (np.empty(0, dtype=np.int64)
                                  for _ in range(4))
        covered = np.zeros(n_rows, dtype=np.int64)
    idle_ns = dt_ns - covered
    has_idle = idle_ns > 0
    if has_idle.any():
        idle_group = np.full(n_rows, -1, dtype=np.int64)
        idle_named = np.nonzero(name == idle_ids[row])[0]
        idle_group[row[idle_named]] = idle_named
        merge = np.nonzero(has_idle & (idle_group >= 0))[0]
        if len(merge):
            share[idle_group[merge]] += idle_ns[merge]
        new = np.nonzero(has_idle & (idle_group < 0))[0]
        if len(new):
            row = np.concatenate((row, new))
            name = np.concatenate((name, idle_ids[new]))
            share = np.concatenate((share, idle_ns[new]))
            # Ranked after every named group of its row: ranks are
            # cover-pair indices, all below len(pair_row).
            rank = np.concatenate((
                rank, np.full(len(new), len(pair_row), dtype=np.int64)))
    return row, rank, name, share


def _contribution_stream(timeline, plans, column_power, component_names,
                         const_power_w, segment_names, idle_names, name_of):
    """The ordered fold of every log of ``timeline``, vectorized and
    fused: every charged (log, device)'s per-interval work is flattened
    into ONE cover query and ONE grouping sort (each (log, device) group
    in its own time band, shifted past every other's), producing a
    single ``(interval, plan-position, within-charge-rank)``-keyed
    contribution stream in reference order, for :func:`_charge_stream`
    to add up.  Intervals are log-major, so each log's rows are one
    contiguous run of the stream.

    Per log ``k``: ``plans[k]`` caches each state vector's charge plan
    (:func:`_plan_of`) across calls, ``column_power[k]`` and
    ``const_power_w[k]`` come from its regression, and ``idle_names[k]``
    names its idle activity.  ``segment_names`` names the single-device
    segments (:func:`_segment_names`).

    Bit-identity with the streaming accumulator rests on these facts,
    each pinned by the backend-equivalence fuzz tests:

    * every interval is strictly positive (``ColumnarTimeline`` refuses
      a log whose time goes backwards, and emits boundaries only at
      strictly later times), so a single-device cover's share
      denominator is always exactly the interval duration — the named
      overlaps plus the idle remainder sum to ``dt_ns`` — and
      ``share/total`` is an ``int64/int64`` divide, which numpy
      evaluates to the same float64 Python's ``int/int`` does for
      magnitudes below 2**53;
    * the duration × draw products and ``joules * fraction`` are the
      same elementwise IEEE-754 multiplies either way;
    * the per-key adds happen in stream order (see
      :func:`_charge_stream`), and keys are inserted in first-occurrence
      stream order, preserving dict order.

    Returns ``(interval, log, code, value, n_codes, key_of)``: per
    stream row (in order) its interval index, log, key code and joules,
    plus the code range and the code → ``(log, (component, activity))``
    mapping.
    """
    vectors = timeline.vectors
    n_vec = len(vectors)
    interval_log = timeline.interval_log
    # One charge plan per (log, state vector) pair present.
    pair = interval_log * n_vec + timeline.interval_vec
    seen = np.zeros(timeline.n_logs * n_vec, dtype=bool)
    seen[pair] = True
    pairs = np.nonzero(seen)[0]
    pair_index = np.cumsum(seen) - 1
    plan_raw = []
    pair_log = []
    for pair_code in pairs.tolist():
        log, vec_id = divmod(pair_code, n_vec)
        vector = vectors[vec_id]
        plan = plans[log].get(vector)
        if plan is None:
            plan = plans[log][vector] = _plan_of(
                vector, column_power[log], component_names)
        plan_raw.append(plan)
        pair_log.append(log)
    pair_log = np.array(pair_log, dtype=np.int64)
    interval_pair = pair_index[pair]
    dt_ns = timeline.interval_t1 - timeline.interval_t0
    dt_s = dt_ns * 1e-9
    const_arr = np.asarray(const_power_w, dtype=np.float64)[interval_log] \
        * dt_s
    n_intervals = len(dt_ns)
    names: list = [None]          # id 0: the regression constant
    name_ids: dict[str, int] = {}

    def intern_name(name: str) -> int:
        nid = name_ids.get(name)
        if nid is None:
            nid = name_ids[name] = len(names)
            names.append(name)
        return nid

    comps: list = [None]
    comp_ids: dict[str, int] = {}

    def intern_comp(component: str) -> int:
        cid = comp_ids.get(component)
        if cid is None:
            cid = comp_ids[component] = len(comps)
            comps.append(component)
        return cid

    idle_ids = np.array([intern_name(name) for name in idle_names],
                        dtype=np.int64)
    untracked_id = intern_name(UNTRACKED_KEY)
    charged_ids = sorted({r for plan in plan_raw for r, _, _ in plan})
    charge_index = {rid: c for c, rid in enumerate(charged_ids)}
    n_charges = len(charged_ids)
    # Per-(charge, plan) tables: how the pair's log tracks the charged
    # device — the index of its (log, device) group among the single
    # devices, else among the multi ones, else -1 (untracked) — and the
    # charge's power draw, display component, and position within each
    # (log, vector) pair's plan.
    charge_keys = (pair_log * _RES_SPACE
                   + np.array(charged_ids, dtype=np.int64)[:, None])

    def group_of(keys):
        index = np.full(timeline.n_logs * _RES_SPACE, -1, dtype=np.int64)
        index[keys] = np.arange(len(keys))
        return index[charge_keys]

    single_mat = group_of(timeline.single_keys)
    multi_mat = np.where(single_mat < 0, group_of(timeline.multi_keys), -1)
    has_mat = np.zeros((n_charges, len(plan_raw)), dtype=bool)
    power_mat = np.zeros((n_charges, len(plan_raw)), dtype=np.float64)
    comp_mat = np.zeros((n_charges, len(plan_raw)), dtype=np.int64)
    pos_mat = np.zeros((n_charges, len(plan_raw)), dtype=np.int64)
    cells = [(charge_index[rid], pair_id, power_w, intern_comp(component),
              pos)
             for pair_id, plan in enumerate(plan_raw)
             for pos, (rid, component, power_w) in enumerate(plan)]
    if cells:
        charge, pair_id, power_w, component, pos = zip(*cells)
        has_mat[charge, pair_id] = True
        power_mat[charge, pair_id] = power_w
        comp_mat[charge, pair_id] = component
        pos_mat[charge, pair_id] = pos
    # Flatten to one (charge, interval) row list, charge-major: every
    # interval in which each charge carries a power column.
    c_idx, i_idx = np.nonzero(has_mat[:, interval_pair])
    pairs_f = interval_pair[i_idx]
    single_f = single_mat[c_idx, pairs_f]
    multi_f = multi_mat[c_idx, pairs_f]

    def flat_rows(rows):
        """Interval, plan position, component and joules of flat rows."""
        c, pair_id, i = c_idx[rows], pairs_f[rows], i_idx[rows]
        return (i, pos_mat[c, pair_id], comp_mat[c, pair_id],
                power_mat[c, pair_id] * dt_s[i])

    # Stream columns: interval row, plan position (-1: const), rank
    # within the charge, component id, name id, joules.
    stream_i = [np.arange(n_intervals, dtype=np.int64)]
    stream_p = [np.full(n_intervals, -1, dtype=np.int64)]
    stream_q = [np.zeros(n_intervals, dtype=np.int64)]
    stream_c = [np.zeros(n_intervals, dtype=np.int64)]
    stream_n = [np.zeros(n_intervals, dtype=np.int64)]
    stream_v = [const_arr]
    # -- single-tracked charges: ONE fused cover + grouping ----------------
    single_rows = np.nonzero(single_f >= 0)[0]
    if len(single_rows):
        codes, seg_names = segment_names
        seg_names = np.array([intern_name(name) for name in seg_names],
                             dtype=np.int64)[codes]
        i, pos, comp, joules = flat_rows(single_rows)
        row, rank, name, share = _single_cover(
            timeline, i, single_f[single_rows], dt_ns[i],
            idle_ids[pair_log[pairs_f[single_rows]]], seg_names)
        i = i[row]
        stream_i.append(i)
        stream_p.append(pos[row])
        stream_q.append(rank)
        stream_c.append(comp[row])
        stream_n.append(name)
        stream_v.append(joules[row] * (share / dt_ns[i]))
    # -- untracked charges: one contribution per row -----------------------
    untracked_rows = np.nonzero((single_f < 0) & (multi_f < 0))[0]
    if len(untracked_rows):
        i, pos, comp, joules = flat_rows(untracked_rows)
        stream_i.append(i)
        stream_p.append(pos)
        stream_q.append(np.zeros(len(i), dtype=np.int64))
        stream_c.append(comp)
        stream_n.append(np.full(len(i), untracked_id, dtype=np.int64))
        stream_v.append(joules)
    # -- multi charges: the scalar share helper, per group (rare) ----------
    multi_rows = np.nonzero(multi_f >= 0)[0]
    if len(multi_rows):
        sets = timeline.label_sets
        bounds = timeline.multi_bounds
        for g in np.unique(multi_f[multi_rows]).tolist():
            i, pos, comp, joules = flat_rows(
                multi_rows[multi_f[multi_rows] == g])
            multi = timeline.multi_segments[bounds[g]:bounds[g + 1]]
            idle_name = idle_names[int(timeline.multi_keys[g])
                                   // _RES_SPACE]
            offsets, seg_rows, overlaps = _ragged_cover(
                timeline.interval_t0[i], timeline.interval_t1[i],
                multi.t0, multi.t1)
            seg_sets = [sets[s] for s in multi.set_ids.tolist()]
            offs = offsets.tolist()
            srows = seg_rows.tolist()
            over = overlaps.tolist()
            dt_list = dt_ns[i].tolist()
            joules_list = joules.tolist()
            i_list = i.tolist()
            p_list = pos.tolist()
            c_list = comp.tolist()
            mi: list[int] = []
            mp: list[int] = []
            mq: list[int] = []
            mc: list[int] = []
            mn: list[int] = []
            mv: list[float] = []
            for r in range(len(i_list)):
                start, stop = offs[r], offs[r + 1]
                shares = _multi_shares(
                    ((seg_sets[srows[k]], over[k])
                     for k in range(start, stop)),
                    dt_list[r], idle_name, name_of)
                for rank, (activity, fraction) in \
                        enumerate(shares.items()):
                    mi.append(i_list[r])
                    mp.append(p_list[r])
                    mq.append(rank)
                    mc.append(c_list[r])
                    mn.append(intern_name(activity))
                    mv.append(joules_list[r] * fraction)
            if mi:
                stream_i.append(np.array(mi, dtype=np.int64))
                stream_p.append(np.array(mp, dtype=np.int64))
                stream_q.append(np.array(mq, dtype=np.int64))
                stream_c.append(np.array(mc, dtype=np.int64))
                stream_n.append(np.array(mn, dtype=np.int64))
                stream_v.append(np.array(mv, dtype=np.float64))
    # -- assemble and replay ----------------------------------------------
    i_all = np.concatenate(stream_i)
    p_all = np.concatenate(stream_p)
    q_all = np.concatenate(stream_q)
    # One composite key replaces the three-key lexsort: i primary, then
    # p, then q, with bases one past each key's maximum; the stable
    # argsort keeps lexsort's tie order (both stable on the original
    # positions).  p is shifted by one so the const sentinel (-1) maps
    # into [0, p_base) — an affine encoding is order-preserving only
    # over non-negative digits.  Intervals are log-major, so the log is
    # the leading key.
    p_base = int(p_all.max()) + 2 if len(p_all) else 2
    q_base = int(q_all.max()) + 1 if len(q_all) else 1
    order = np.argsort(
        (i_all * p_base + (p_all + 1)) * q_base + q_all, kind="stable")
    span = len(names) + 1
    per_log = len(comps) * span
    i_all = i_all[order]
    log_all = interval_log[i_all]
    code = log_all * per_log + (np.concatenate(stream_c) * span
                                + np.concatenate(stream_n))[order]
    values = np.concatenate(stream_v)[order]

    keys: dict[int, tuple[int, tuple[str, str]]] = {}

    def key_of(c: int) -> tuple[int, tuple[str, str]]:
        # Memoized: a live batch charges the same codes window after
        # window.
        key = keys.get(c)
        if key is None:
            log, rest = divmod(c, per_log)
            cid, nid = divmod(rest, span)
            key = keys[c] = (log, _CONST_PAIR if cid == 0
                             else (comps[cid], names[nid]))
        return key

    return i_all, log_all, code, values, timeline.n_logs * per_log, key_of


def columnar_energy_map(
    timeline: ColumnarTimeline,
    regressions: Sequence[RegressionResult],
    registry: ActivityRegistry,
    component_names: dict[int, str],
    energies_per_pulse_j: Sequence[float],
    *,
    fold_proxies: bool = False,
    idle_names: Optional[Sequence[str]] = None,
) -> list[EnergyMap]:
    """The columnar backend: a built
    :class:`~repro.core.timeline.ColumnarTimeline` → one energy map per
    log, with the end times and declared devices the timeline was built
    with.

    ``regressions``, ``energies_per_pulse_j`` and ``idle_names``
    (default ``"Idle"``) hold one value per log: a timeline of K logs
    (all priced with one ``registry``) folds in one pass into K maps,
    each bit-identical to folding that log on its own.

    Cover, the energy products and the ordered fold are all vectorized:
    :func:`_contribution_stream` orders the charges exactly as the
    streaming accumulator makes them (interval order, then state-vector
    column order, then activity-name first-occurrence order) and
    :func:`_charge_stream` adds them up, so the map is bit-identical to
    the streaming reference's (float bits *and* dict insertion order) —
    the contract the golden tests' reference leg enforces.  The busy
    time is :func:`_busy_time` with each whole log as one chunk.  This
    is the same fold the :class:`WindowedAccumulator` runs batch by
    batch.
    """
    regressions = list(regressions)
    pulse_j = list(energies_per_pulse_j)
    idle_names = ["Idle"] * timeline.n_logs if idle_names is None \
        else list(idle_names)
    if not (len(regressions) == len(pulse_j) == len(idle_names)
            == timeline.n_logs):
        raise ValueError(
            f"a timeline of {timeline.n_logs} logs needs a regression, "
            f"an energy per pulse and an idle name per log")
    first, stop = timeline.interval_bounds[:-1], timeline.interval_bounds[1:]
    if (stop == first).any():
        raise RegressionError("no power intervals to account")
    if not regressions:
        return []
    if any(reg is None for reg in regressions):
        raise RegressionError(
            "accounting needs a regression once power intervals exist"
        )
    segment_names = _segment_names(timeline, fold_proxies,
                                   _label_namer(registry, {}))
    _, log, code, values, n_codes, key_of = _contribution_stream(
        timeline, [{} for _ in regressions],
        [_column_power(reg) for reg in regressions], component_names,
        [reg.const_power_w for reg in regressions], segment_names,
        idle_names, registry.name_of)
    maps = [EnergyMap() for _ in regressions]
    _charge_stream(maps, log, code, values, n_codes, key_of)
    time_single: list[dict[int, dict[str, int]]] = [{} for _ in maps]
    time_multi: list[dict[int, dict[str, int]]] = [{} for _ in maps]
    # Closing rows are per log, so one bound past every row takes each
    # whole log as one chunk.
    _add_busy(_busy_time(timeline, [len(timeline.columns) + 1],
                         segment_names, registry.name_of, idle_names),
              time_single, time_multi)
    spans = (timeline.interval_t1[stop - 1]
             - timeline.interval_t0[first]).tolist()
    pulses = np.add.reduceat(timeline.interval_pulses, first).tolist()
    for k, emap in enumerate(maps):
        emap.time_ns = _fold_time(time_single[k], time_multi[k],
                                  component_names)
        emap.span_ns = spans[k]
        emap.metered_energy_j = pulses[k] * pulse_j[k]
    return maps


def stream_energy_map(
    entries: Iterable,
    regression: RegressionResult,
    registry: ActivityRegistry,
    component_names: dict[int, str],
    energy_per_pulse_j: float,
    *,
    fold_proxies: bool = False,
    idle_name: str = "Idle",
    end_time_ns: Optional[int] = None,
    single_res_ids: Optional[Iterable[int]] = None,
    multi_res_ids: Optional[Iterable[int]] = None,
) -> EnergyMap:
    """The streaming reference: log → timeline → accounting over
    decoded entries (any iterable, e.g.
    :func:`repro.core.logger.iter_entries`), in time order, fed one by
    one into an :class:`EnergyAccumulator`.  Bit-identical to
    :func:`columnar_energy_map` on the same inputs, by contract.
    """
    accumulator = EnergyAccumulator(
        regression, registry, component_names, energy_per_pulse_j,
        fold_proxies=fold_proxies, idle_name=idle_name,
        single_res_ids=single_res_ids, multi_res_ids=multi_res_ids,
        end_time_ns=end_time_ns,
    )
    return accumulator.feed_all(entries)


def build_energy_map(
    timeline: ColumnarTimeline,
    regression: RegressionResult,
    registry: ActivityRegistry,
    component_names: dict[int, str],
    energy_per_pulse_j: float,
    fold_proxies: bool = False,
    idle_name: str = "Idle",
    backend: Optional[str] = None,
) -> EnergyMap:
    """Merge power intervals, regression, and activity segments for one
    captured timeline: columnar (the default) folds the timeline itself;
    ``backend="streaming"`` runs the reference, re-feeding its rows,
    with its device sets and end time, through an
    :class:`EnergyAccumulator` — an independent reconstruction of the
    same snapshot.

    ``component_names`` maps res_id to the display name of each device.
    Devices present in the power layout but not declared activity
    devices are charged to ``(untracked)``.
    """
    if resolve_analysis_backend(backend) == "columnar":
        (emap,) = columnar_energy_map(
            timeline, [regression], registry, component_names,
            [energy_per_pulse_j],
            fold_proxies=fold_proxies, idle_names=[idle_name],
        )
        return emap
    return stream_energy_map(
        timeline.entries,
        regression,
        registry,
        component_names,
        energy_per_pulse_j,
        fold_proxies=fold_proxies,
        idle_name=idle_name,
        end_time_ns=timeline.end_time_ns,
        single_res_ids=timeline.single_device_ids(),
        multi_res_ids=timeline.multi_device_ids(),
    )
