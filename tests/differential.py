"""One seeded generator of adversarial logs, and the paths every log
must fold identically through.

Quanto charges every joule through one chain: log, power intervals and
activity segments (with proxy binds), regression, per-activity charge.
This reproduction runs that chain five ways, and all five must give
the same :class:`EnergyMap` bits: the streaming reference
(:func:`stream_energy_map`, the oracle), the whole-log columnar fold,
the K-log fused fold, the live fold (:meth:`WireDecoder.feed_columns`
at byte splits into a :class:`WindowedAccumulator`) and
checkpoint/restore of an ingest :class:`NodeSession`.

:func:`adversarial_log` is the one generator of random logs in the
tests; :func:`log_features` and :func:`plan_features` read back which
adversarial inputs a log and its feeding plan hold, so the harness can
assert that each occurred.  Each ``check_*`` function runs one path on
one :class:`Case` and, on a failure, raises an ``AssertionError``
naming the case (its seed or log name), the path and the first
differing cell.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Optional

import numpy as np

import oracle
from repro.apps.bounce import BounceApp
from repro.apps.collection import build_line_topology
from repro.core import accounting
from repro.core.accounting import (
    EnergyMap,
    WindowedAccumulator,
    columnar_energy_map,
    stream_energy_map,
)
from repro.core.labels import ActivityRegistry
from repro.core.logger import (
    ENTRY_SIZE,
    ENTRY_STRUCT,
    LogColumns,
    WireDecoder,
    decode_columns,
    iter_entries,
)
from repro.core.regression import RegressionResult, SinkColumn
from repro.core.timeline import ColumnarTimeline, TimelineStream
from repro.experiments.common import run_blink
from repro.hw.platform import PlatformConfig
from repro.serve import NodeSession
from repro.serve.journal import decode_checkpoint, frame_checkpoint
from repro.serve.protocol import make_hello
from repro.tos.network import Network
from repro.tos.node import COMPONENT_NAMES, NodeConfig, fusable_groups
from repro.units import ms, seconds

# Entry types, inlined for terse generator code.
POWER, CHANGE, BIND, ADD, REMOVE, BOOT = 1, 2, 3, 4, 5, 6

U32 = 1 << 32

#: Activity labels the generator paints; the last is a proxy label.
LABELS = (0x0101, 0x0102, 0x0103, 0x01C8)

#: Component names per device: 0, 1, 3 and 5 may be single-activity
#: devices, 2 has power states only, 7 and 9 are multi-activity.
NAMES = {0: "CPU", 1: "Radio", 2: "Flash", 3: "LED", 5: "Sensor",
         7: "TimerA", 9: "TimerB"}

#: The same devices, most sharing one component, so busy times of
#: several devices merge into one breakdown key.
SHARED_NAMES = {0: "CPU", 1: "CPU", 2: "Flash", 3: "CPU", 5: "CPU",
                7: "CPU", 9: "CPU"}

#: One registry names the activities of every generated log.
REGISTRY = ActivityRegistry()


@dataclass
class Case:
    """One log with everything its analysis takes, and the reference
    results the paths are held to (computed once, on first use)."""

    name: str
    raw: bytes
    end_time_ns: int
    singles: list
    multis: list
    regression: RegressionResult
    pulse_j: float
    idle_name: str
    names: dict
    registry: ActivityRegistry = field(default=REGISTRY, repr=False)
    _oracle: dict = field(default_factory=dict, init=False, repr=False)
    _references: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def columns(self) -> LogColumns:
        return decode_columns(self.raw)

    def timeline(self) -> ColumnarTimeline:
        """A fresh one-log columnar build."""
        return ColumnarTimeline(
            self.columns, end_time_ns=self.end_time_ns,
            single_res_ids=self.singles, multi_res_ids=self.multis)

    def oracle_map(self, fold: bool) -> EnergyMap:
        """The streaming reference's map in one proxy-fold mode
        (computed once)."""
        if fold not in self._oracle:
            self._oracle[fold] = stream_energy_map(
                iter_entries(self.raw), self.regression, self.registry,
                self.names, self.pulse_j, fold_proxies=fold,
                idle_name=self.idle_name, end_time_ns=self.end_time_ns,
                single_res_ids=self.singles, multi_res_ids=self.multis)
        return self._oracle[fold]

    @cached_property
    def plan(self) -> "Plan":
        return plan_for(self)

    def reference_windows(self, plan: "Plan") -> list[list[str]]:
        """The window sequence of one-row batches at ``plan``'s stride
        and origin (computed once per pair): each batch closes at most
        one window, so the chained per-window charge is the reference
        the batched closes are held to."""
        key = (plan.stride_ns, plan.origin_ns)
        if key not in self._references:
            cuts = range(0, len(self.raw) + 1, ENTRY_SIZE)
            windows, final, _ = live_fold(self, plan, cuts, min_batch=1,
                                          retain=None)
            assert_same_map(self, "windowed one-row batches",
                            self.oracle_map(False), final)
            self._references[key] = [window_cells(w) for w in windows]
        return self._references[key]


@dataclass
class Plan:
    """How the harness feeds one log: byte cuts for the live path, the
    window knobs, the fold batch size, and a checkpoint cut (none if
    ``None``)."""

    cuts: list
    stride_ns: int
    origin_ns: Optional[int] = None
    min_batch: int = accounting.MIN_BATCH_ENTRIES
    retain: Optional[int] = None
    checkpoint_at: Optional[int] = None


def chunk_cuts(size: int, chunk: int) -> list[int]:
    """The cuts of ``size`` bytes into ``chunk``-byte pieces."""
    return [*range(0, size, chunk), size]


# -- the generator ------------------------------------------------------------


def adversarial_log(seed: int) -> Case:
    """A random but semantically valid log: monotone time and iCount
    (each may start just below 2^32 so it wraps, alone or with the
    other), boots first, then power toggles, activity changes, runs of
    binds (self-binds, out-and-back, same-time, chains), multi
    add/removes (now and then on a single device, which turns multi),
    with same-time bursts; sometimes no activity rows at all.  The end
    time falls before, at or past the last entry, or exactly on a
    segment or interval edge; the declared devices cover every device
    named and sometimes one that never is."""
    rng = random.Random(seed)
    singles = sorted(rng.sample((0, 1, 3), rng.randrange(0, 4)))
    sinks = sorted(rng.sample((0, 1, 2, 3), rng.randrange(1, 5)))
    quiet = rng.random() < 0.12  # power records only
    n_rows = rng.randrange(6, 110)
    wraps = rng.choice(("none", "time", "icount", "both"))
    t = rng.randrange(20_000)
    ic = rng.randrange(1000)
    if wraps in ("time", "both"):
        t = U32 - rng.randrange(1, n_rows * 1200)
    if wraps in ("icount", "both"):
        ic = U32 - rng.randrange(1, n_rows * 20)
    rows = [(BOOT, rid, t, ic, 0) for rid in sinks]
    painted: dict[int, int] = {}
    turned: set[int] = set()

    def step(same_time_p=0.3):
        nonlocal t, ic
        if rng.random() >= same_time_p:
            t += rng.randrange(1, 4000)
        ic += rng.randrange(0, 50)

    def paint(kind, rid, value):
        rows.append((kind, rid, t, ic, value))
        painted[rid] = value

    while len(rows) < n_rows:
        step()
        kind = rng.random()
        if kind < 0.4 or quiet or not singles and kind < 0.75:
            rows.append((POWER, rng.choice(sinks), t, ic, rng.randrange(2)))
        elif kind < 0.65 and singles:
            paint(CHANGE, rng.choice(singles), rng.choice(LABELS))
        elif kind < 0.8 and singles:
            # A run of binds on one device: each rebinds from the
            # device's current label, so a run is a chain.
            rid = rng.choice(singles)
            back = None
            for _ in range(rng.randrange(1, 5)):
                current = painted.get(rid)
                roll = rng.random()
                if roll < 0.2 and current is not None:
                    target = current                      # self-bind
                elif roll < 0.5 and back is not None:
                    target = back                         # out and back
                else:
                    target = rng.choice(LABELS)
                back = current
                paint(BIND, rid, target)
                step(same_time_p=0.5)
        elif kind < 0.92:
            rid = 9
            if singles and rng.random() < 0.12:
                rid = rng.choice(singles)   # a single device turns multi
                turned.add(rid)
            rows.append((ADD, rid, t, ic, rng.choice(LABELS)))
        else:
            rows.append((REMOVE, rng.choice([9, *turned]), t, ic,
                         rng.choice(LABELS)))
    t += 1
    rows.append((POWER, sinks[0], t, ic, 1))   # at least one interval

    declared = list(singles)
    if rng.random() < 0.3:
        declared = sorted({*declared, 0, 1, 3})
    if rng.random() < 0.25:
        declared.append(5)                      # declared, never named
    if rng.random() < 0.5:
        declared = [rid for rid in declared if rid not in turned]
    multis = sorted({9, *turned, *([7] if rng.random() < 0.25 else [])})

    times = [row[2] for row in rows]
    edges = {
        "before": rng.choice(times[:-1]) + rng.randrange(0, 3),
        "at": times[-1],
        "past": times[-1] + rng.randrange(1, 5000),
        "segment": rng.choice([row[2] for row in rows
                               if row[0] in (CHANGE, BIND)] or times),
        "interval": rng.choice([row[2] for row in rows if row[0] == POWER]),
    }
    end_us = min(edges[rng.choice(list(edges))], times[-1] + 5000)
    end_us = max(end_us, times[0])

    return Case(
        name=f"seed {seed}",
        raw=pack(rows),
        end_time_ns=end_us * 1000,
        singles=sorted(set(declared)),
        multis=multis,
        regression=regression(
            {rid: rng.uniform(0.001, 0.02) for rid in sinks},
            rng.uniform(0.0005, 0.002)),
        pulse_j=rng.choice((1e-6, 2.5e-6)),
        idle_name=rng.choice(("Idle", f"{seed}:Idle")),
        names=SHARED_NAMES if seed % 4 == 3 else NAMES,
    )


def regression(power_w: dict[int, float],
               const_power_w: float) -> RegressionResult:
    """A solved regression drawing ``power_w[rid]`` watts while device
    ``rid`` is in power state 1, over a constant floor."""
    columns = [SinkColumn(res_id=rid, value=1, name=f"sink{rid}")
               for rid in power_w]
    return RegressionResult(
        columns=columns,
        power_w={c.name: power_w[c.res_id] for c in columns},
        const_power_w=const_power_w, voltage=3.0,
        y=np.zeros(1), y_hat=np.zeros(1), weights=np.ones(1),
        group_states=[], group_time_ns=[], group_energy_j=[])


def pack(rows) -> bytes:
    """``(type, res_id, time_us, icount, value)`` rows in the wire
    format, time and iCount wrapped to u32."""
    return b"".join(
        ENTRY_STRUCT.pack(kind, rid, time_us % U32, pulses % U32, value)
        for kind, rid, time_us, pulses, value in rows)


def plan_for(case: Case) -> Plan:
    """The seeded feeding plan of ``case``: random byte cuts (sometimes
    exactly at a wrapping entry), a stride from twice the log's span
    down to a sliver of it, an origin at or before the first record,
    a fold batch of one row, a few or the default, a retention of all
    windows or a few, and a checkpoint cut at the start, the end or
    anywhere (mid-entry too)."""
    rng = random.Random(f"plan {case.name}")
    size = len(case.raw)
    cuts = set(rng.sample(range(1, size), min(size - 1, rng.randrange(12))))
    wrapped = wrap_rows(case.columns)
    if wrapped and rng.random() < 0.6:
        cuts.add(ENTRY_SIZE * rng.choice(wrapped))
    times = case.columns.time_ns
    span = max(int(times[-1] - times[0]), 1)
    stride = max(1, int(span / rng.choice((0.5, 3, 12, 60)))
                 + rng.randrange(1000))
    origin = None
    if rng.random() < 0.5:
        origin = max(0, int(times[0]) - rng.randrange(3 * stride))
    return Plan(
        cuts=sorted({0, size, *cuts}),
        stride_ns=stride,
        origin_ns=origin,
        min_batch=rng.choice((1, 2, 5, 16, accounting.MIN_BATCH_ENTRIES)),
        retain=rng.choice((None, 1, 3)),
        checkpoint_at=rng.choice((0, size, rng.randrange(size + 1),
                                  rng.randrange(size + 1))),
    )


def wrap_rows(columns: LogColumns) -> list[int]:
    """Rows whose raw u32 time or iCount is below the row before's:
    where a counter wrapped."""
    raw_time = (columns.time_ns // 1000) % U32
    raw_ic = columns.icount % U32
    return (np.nonzero((raw_time[1:] < raw_time[:-1])
                       | (raw_ic[1:] < raw_ic[:-1]))[0] + 1).tolist()


# -- what a log and its plan hold ---------------------------------------------


def log_features(case: Case) -> set[str]:
    """The adversarial features ``case``'s log holds, read back from
    its rows (not from the generator's choices)."""
    cols = case.columns
    kinds, rids = cols.type.tolist(), cols.res_id.tolist()
    times, values = (cols.time_ns // 1000).tolist(), cols.value.tolist()
    seen: set[str] = set()
    time_wraps, ic_wraps = ((np.diff(column % U32) < 0).any()
                            for column in (cols.time_ns // 1000, cols.icount))
    if time_wraps or ic_wraps:
        seen.add("time and iCount wrap" if time_wraps and ic_wraps else
                 "time wraps alone" if time_wraps else "iCount wraps alone")
    power = [t for kind, t in zip(kinds, times) if kind == POWER]
    if any(a == b for a, b in zip(power, power[1:])):
        seen.add("same-time power records (merged interval edge)")
    # Per device: its label, when it was last painted, and the labels
    # the binds since its last change rebound from (a chain).
    painted: dict[int, tuple] = {}
    for kind, rid, t, value in zip(kinds, rids, times, values):
        if kind not in (CHANGE, BIND):
            continue
        label, last_t, chain = painted.get(rid, (None, None, []))
        if last_t == t:
            seen.add("same-time changes (zero-length segment)")
        if kind == BIND:
            if value == label:
                seen.add("self-bind")
            elif chain and chain[-1] == value:
                seen.add("out-and-back bind")
            if chain and last_t == t:
                seen.add("same-time binds")
            chain = [*chain, label]
            if len(chain) >= 3:
                seen.add("bind chain of 3 or more")
        painted[rid] = (value, t, chain if kind == BIND else [])
    if {ADD, REMOVE} <= set(kinds):
        seen.add("multi add and remove")
    if set(painted) & {rid for kind, rid in zip(kinds, rids) if kind == ADD}:
        seen.add("single device turns multi")
    if not {CHANGE, BIND, ADD, REMOVE} & set(kinds):
        seen.add("no activity rows")
    end_us = case.end_time_ns // 1000
    seen.add("end before last entry" if end_us < times[-1] else
             "end at last entry" if end_us == times[-1] else
             "end past last entry")
    if case.end_time_ns % 1000 == 0:
        if end_us in {t for k, t in zip(kinds, times) if k in (CHANGE, BIND)}:
            seen.add("end on a segment edge")
        if end_us in {t for k, t in zip(kinds, times) if k == POWER}:
            seen.add("end on an interval edge")
    if (set(case.singles) | set(case.multis)) - set(rids):
        seen.add("declared device never named")
    first_paint: dict[int, int] = {}
    first_draw: dict[int, int] = {}
    for at, (kind, rid, value) in enumerate(zip(kinds, rids, values)):
        if kind in (CHANGE, BIND):
            first_paint.setdefault(rid, at)
        elif kind == POWER and value:
            first_draw.setdefault(rid, at)
    if any(first_draw.get(rid, len(kinds)) < first_paint.get(rid, -1)
           for rid in case.singles):
        seen.add("declared device named only after it drew power")
    if len(set(case.names.values())) < len(case.names):
        seen.add("devices sharing a component name")
    return seen


def plan_features(case: Case) -> set[str]:
    """The feeding features ``case``'s plan exercises."""
    plan = case.plan
    batch = ("one row" if plan.min_batch == 1 else "the default size"
             if plan.min_batch == accounting.MIN_BATCH_ENTRIES
             else "a few rows")
    seen = {f"fold batches of {batch}",
            "retain all windows" if plan.retain is None
            else "retain a few windows",
            "default origin" if plan.origin_ns is None
            else "origin before the first record"}
    cuts = set(plan.cuts)
    for row in wrap_rows(case.columns):
        at = ENTRY_SIZE * row
        if plan.checkpoint_at > at:
            seen.add("checkpoint after a wrap")
        if at in cuts:
            seen.add("wrap exactly at a split point")
        elif not cuts & set(range(at, at + ENTRY_SIZE)):
            seen.add("wrap inside a chunk")
    if any(cut % ENTRY_SIZE for cut in cuts):
        seen.add("split mid-entry")
    size = len(case.raw)
    seen.add("checkpoint at the start" if plan.checkpoint_at == 0 else
             "checkpoint at the end" if plan.checkpoint_at == size else
             "checkpoint mid-entry" if plan.checkpoint_at % ENTRY_SIZE else
             "checkpoint between entries")
    return seen


# -- failure reports ----------------------------------------------------------


@contextmanager
def on_path(case: Case, path: str):
    """Name ``case`` and ``path`` in whatever fails inside."""
    try:
        yield
    except Exception as exc:
        raise AssertionError(f"{case.name}, path {path}: {exc}") from exc


def assert_same_map(case: Case, path: str, reference: EnergyMap,
                    got: EnergyMap) -> None:
    with on_path(case, path):
        oracle.assert_same_map(reference, got)


def window_cells(snapshot) -> list[str]:
    """Every cell of a window, one line each: floats as ``float.hex``,
    dicts in insertion order (their sizes too)."""
    def exact(value):
        return float.hex(value) if isinstance(value, float) else repr(value)

    cells = []
    for f in fields(snapshot):
        value = getattr(snapshot, f.name)
        head = f"window {snapshot.index} {f.name}"
        if isinstance(value, dict):
            cells += [f"{head} {key!r} {exact(item)}"
                      for key, item in value.items()]
            value = f"{len(value)} keys"
        cells.append(f"{head} {exact(value)}")
    return cells


def assert_same_windows(reference: list, snapshots: list) -> None:
    """``snapshots`` have ``reference``'s cells; else name the first
    cell that differs."""
    want = [cell for cells in reference for cell in cells]
    got = [cell for snapshot in snapshots for cell in window_cells(snapshot)]
    for a, b in zip(want, got):
        if a != b:
            raise AssertionError(
                f"first differing cell: reference {a!r}, got {b!r}")
    assert len(want) == len(got), \
        f"{len(want)} reference cells, got {len(got)}"


def map_of_window(snapshot) -> EnergyMap:
    """The map a window's cumulative sums stand for."""
    return EnergyMap(
        time_ns=dict(snapshot.cumulative_time_ns),
        energy_j=dict(snapshot.cumulative_energy_j),
        metered_energy_j=snapshot.metered_energy_j,
        reconstructed_energy_j=snapshot.reconstructed_energy_j,
        span_ns=snapshot.span_ns)


def take_rows(columns: LogColumns, rows: slice) -> LogColumns:
    """The columns of a run of rows (a chunk of the log)."""
    return LogColumns(
        type=columns.type[rows], res_id=columns.res_id[rows],
        time_ns=columns.time_ns[rows], icount=columns.icount[rows],
        value=columns.value[rows])


def assert_same_rows(reference: LogColumns, first_row: int,
                     got: LogColumns) -> None:
    """``got`` equals the reference decode's rows from ``first_row`` on;
    else name the first differing row and field."""
    want = take_rows(reference, slice(first_row, first_row + len(got)))
    for name in ("type", "res_id", "time_ns", "icount", "value"):
        a, b = getattr(want, name), getattr(got, name)
        differ = np.nonzero(a != b)[0] if len(a) == len(b) else [0]
        if len(differ):
            row = int(differ[0])
            raise AssertionError(
                f"decoded row {first_row + row} {name}: reference "
                f"{a[row] if row < len(a) else 'absent'}, got "
                f"{b[row] if row < len(b) else 'absent'}")


def assert_same_timeline(view: ColumnarTimeline,
                         single: ColumnarTimeline) -> None:
    """One log of a K-log timeline equals its one-log build: intervals,
    per-device segment columns and multi-device spans."""
    assert view.end_time_ns == single.end_time_ns
    assert view.power_intervals() == single.power_intervals()
    assert view.interval_row.tolist() == single.interval_row.tolist()
    assert view.single_device_ids() == single.single_device_ids()
    assert view.multi_device_ids() == single.multi_device_ids()
    for rid in single.single_device_ids():
        got, want = view._singles.get(rid), single._singles.get(rid)
        for name in got.__slots__:
            assert getattr(got, name).tolist() \
                == getattr(want, name).tolist(), (rid, name)
    for rid in single.multi_device_ids():
        got, want = view._multis.get(rid), single._multis.get(rid)
        assert [view.label_sets[s] for s in got.set_ids] \
            == [single.label_sets[s] for s in want.set_ids]
        for name in ("t0", "t1", "close_row"):
            assert getattr(got, name).tolist() \
                == getattr(want, name).tolist(), (rid, name)


# -- the paths ----------------------------------------------------------------


@contextmanager
def batch_size(rows: int):
    """Fold live batches once ``rows`` rows wait."""
    saved = accounting.MIN_BATCH_ENTRIES
    accounting.MIN_BATCH_ENTRIES = rows
    try:
        yield
    finally:
        accounting.MIN_BATCH_ENTRIES = saved


def check_columnar(case: Case, folds=(False, True)) -> None:
    """Decode, reconstruction and the ``folds`` proxy-fold maps of the
    whole-log columnar path against the streaming reference."""
    entries = list(iter_entries(case.raw))
    with on_path(case, "decode"):
        assert_same_rows(LogColumns.from_entries(entries), 0, case.columns)
    timeline = case.timeline()
    with on_path(case, "reconstruction"):
        intervals, segments, multis = [], [], []
        TimelineStream(
            single_res_ids=case.singles, multi_res_ids=case.multis,
            on_interval=intervals.append, on_segment=segments.append,
            on_multi_segment=multis.append,
        ).feed_all(entries, case.end_time_ns)
        assert timeline.power_intervals() == intervals
        # The fold's share arithmetic needs every interval positive.
        assert (timeline.interval_t1 > timeline.interval_t0).all()
        for rid in timeline.single_device_ids():
            assert timeline.activity_segments(rid) \
                == [s for s in segments if s.res_id == rid], f"device {rid}"
        built = []
        for rid in timeline.multi_device_ids():
            spans = timeline._multis.get(rid)
            built += [(rid, t0, t1, timeline.label_sets[set_id])
                      for t0, t1, set_id in zip(
                          spans.t0.tolist(), spans.t1.tolist(),
                          spans.set_ids)]
        assert sorted(built) == sorted(
            (m.res_id, m.t0_ns, m.t1_ns, m.labels) for m in multis)
    check_columnar_maps(case, timeline, folds)


def check_columnar_maps(case: Case, timeline: ColumnarTimeline,
                        folds=(False, True)) -> None:
    """The columnar fold of ``timeline`` (``case``'s one-log build) in
    each of the ``folds`` proxy-fold modes against the reference."""
    for fold in folds:
        (emap,) = columnar_energy_map(
            timeline, [case.regression], case.registry, case.names,
            [case.pulse_j], fold_proxies=fold, idle_names=[case.idle_name])
        assert_same_map(case, f"columnar fold_proxies={fold}",
                        case.oracle_map(fold), emap)


def check_fused(group: list[Case]) -> None:
    """One timeline and one fold per family of the group's logs whose
    registries name every activity alike, grouped as the node layer's
    fused pass groups them (:func:`fusable_groups`): each log's view
    equals its one-log build, and each map the reference's, which
    prices the log with its own registry (the one-log build's map
    equals it, see :func:`check_columnar`)."""
    for indices in fusable_groups([case.registry for case in group]):
        family = [group[i] for i in indices]
        first = family[0]
        fused = ColumnarTimeline(
            [case.columns for case in family],
            end_time_ns=[case.end_time_ns for case in family],
            single_res_ids=[case.singles for case in family],
            multi_res_ids=[case.multis for case in family])
        assert fused.n_logs == len(family)
        path = f"fused K={len(family)}"
        for k, case in enumerate(family):
            with on_path(case, f"{path} log({k})"):
                assert_same_timeline(fused.log(k), case.timeline())
        for fold in (False, True):
            maps = columnar_energy_map(
                fused, [case.regression for case in family],
                first.registry, first.names,
                [case.pulse_j for case in family], fold_proxies=fold,
                idle_names=[case.idle_name for case in family])
            for k, (case, emap) in enumerate(zip(family, maps)):
                assert_same_map(case, f"{path} map {k} fold_proxies={fold}",
                                case.oracle_map(fold), emap)


def decoded_pieces(raw: bytes, cuts, restore_at: Optional[int] = None,
                   reference: Optional[LogColumns] = None):
    """Feed ``raw`` to a wire decoder in the pieces ``cuts`` delimit,
    the decoder going through its snapshot at byte ``restore_at``, and
    yield each piece's rows, each checked against the one-shot decode
    (``reference``, else :func:`decode_columns` of ``raw``)."""
    reference = decode_columns(raw) if reference is None else reference
    decoder = WireDecoder()
    row = 0
    for lo, hi in zip(cuts, cuts[1:]):
        if lo == restore_at:
            decoder = WireDecoder.from_snapshot(decoder.snapshot())
        columns = decoder.feed_columns(raw[lo:hi])
        assert_same_rows(reference, row, columns)
        row += len(columns)
        yield columns
    if cuts[-1] == restore_at:
        decoder = WireDecoder.from_snapshot(decoder.snapshot())
    decoder.finish()
    assert row == len(reference), f"{row} rows decoded of {len(reference)}"


def live_fold(case: Case, plan: Plan, cuts, *, min_batch: int,
              retain: Optional[int], seen: Optional[set] = None):
    """``case``'s raw log cut at ``cuts`` into a wire decoder and its
    rows into a windowed accumulator at ``plan``'s stride and origin.
    Returns (retained windows, final map, windows emitted); notes in
    ``seen`` what the batches did."""
    seen = set() if seen is None else seen
    with batch_size(min_batch):
        accumulator = WindowedAccumulator(
            case.regression, case.registry, case.names, case.pulse_j,
            stride_ns=plan.stride_ns, origin_ns=plan.origin_ns,
            idle_name=case.idle_name, single_res_ids=case.singles,
            multi_res_ids=case.multis, end_time_ns=case.end_time_ns,
            retain=retain)
        for columns in decoded_pieces(case.raw, cuts,
                                      reference=case.columns):
            # The private counters, as reading the public ones folds
            # the buffered rows first.
            emitted = accumulator._windows_emitted
            accumulator.feed_columns(columns)
            if len(columns) and not accumulator._pending_rows \
                    and accumulator._windows_emitted == emitted:
                seen.add("a batch closing no window")
            if accumulator._tail is not None:
                seen.add("tail re-cover")
                if accumulator._tail[2]:
                    seen.add("tail begins mid-batch")
        if accumulator._tail is not None and accumulator._pending_rows:
            seen.add("rows join an open tail at finish")
        final = accumulator.finish()
        windows = accumulator.windows
    if any(not w.intervals for w in windows):
        seen.add("empty windows")
    if len(windows) < accumulator.windows_emitted:
        seen.add("evicted windows")
    return windows, final, accumulator.windows_emitted


def assert_windows(case: Case, plan: Plan, path: str, snapshots: list,
                   final: EnergyMap, emitted: int,
                   retain: Optional[int]) -> None:
    """The final map is the reference's and the last window's
    cumulative state; the retained windows are the newest of the
    reference sequence at ``plan``'s stride and origin."""
    assert_same_map(case, path, case.oracle_map(False), final)
    assert_same_map(case, f"{path} last window", final,
                    map_of_window(snapshots[-1]))
    reference = case.reference_windows(plan)
    with on_path(case, path):
        assert emitted == len(reference), \
            f"{emitted} windows emitted, reference {len(reference)}"
        if retain is not None:
            reference = reference[len(reference) - min(retain, emitted):]
        assert_same_windows(reference, snapshots)


def check_windowed(case: Case, seen: Optional[set] = None,
                   plan: Optional[Plan] = None):
    """The live path at the plan's byte cuts (``case``'s own plan
    unless one is given), at its batch size and retention and at the
    default batch retaining all, against the oracle's map and the
    one-row-batch window sequence; the last window carries the final
    map.  Returns the first run's (windows, final map, windows
    emitted)."""
    plan = case.plan if plan is None else plan
    runs = []
    for min_batch, retain in dict.fromkeys(
            ((plan.min_batch, plan.retain),
             (accounting.MIN_BATCH_ENTRIES, None))):
        path = (f"windowed batch={min_batch} retain={retain} "
                f"stride={plan.stride_ns} origin={plan.origin_ns}")
        with on_path(case, path):
            windows, final, emitted = live_fold(
                case, plan, plan.cuts, min_batch=min_batch, retain=retain,
                seen=seen)
        assert_windows(case, plan, path, windows, final, emitted, retain)
        runs.append((windows, final, emitted))
    return runs[0]


def check_checkpoint(case: Case, seen: Optional[set] = None,
                     plan: Optional[Plan] = None) -> list:
    """Feed ``case`` through an ingest session up to the plan's
    checkpoint cut (``case``'s own plan unless one is given), round-trip
    the session through checkpoint bytes into a fresh one and feed it
    the rest: same windows, same map.  Notes in ``seen`` what state the
    checkpoint carried; returns the session's retained windows."""
    plan = case.plan if plan is None else plan
    hello = make_hello(
        node_id=1, registry=case.registry, component_names=case.names,
        regression=case.regression, energy_per_pulse_j=case.pulse_j,
        idle_name=case.idle_name, stride_ns=plan.stride_ns,
        single_res_ids=case.singles, multi_res_ids=case.multis,
        end_time_ns=case.end_time_ns, origin_ns=plan.origin_ns)
    cut = plan.checkpoint_at
    path = (f"checkpoint at byte {cut} batch={plan.min_batch} "
            f"retain={plan.retain}")
    cuts = sorted({*plan.cuts, *([] if cut is None else [cut])})
    seen = set() if seen is None else seen
    with on_path(case, path), batch_size(plan.min_batch):
        session = NodeSession(hello, retain=plan.retain)
        # The last piece is empty, so a cut at the end restores too.
        for lo, hi in zip(cuts, [*cuts[1:], len(case.raw)]):
            if lo == cut:
                accumulator = session.accumulator
                before = accumulator.windows
                if any(labels for _, labels
                       in accumulator._carry.multi_open.values()):
                    seen.add("checkpoint carries an open multi span")
                if accumulator._tail is not None:
                    seen.add("checkpoint during the tail")
                if accumulator._base is not None:
                    seen.add("checkpoint after evictions")
                blob = frame_checkpoint(
                    session.checkpoint_state()["payload"])
                session = NodeSession(hello, retain=plan.retain)
                session.load_state(decode_checkpoint(blob))
                assert session.bytes_received == cut
                assert_same_windows([window_cells(w) for w in before],
                                    session.accumulator.windows)
            session.ingest(case.raw[lo:hi])
        final = session.finish()
        windows = session.accumulator.windows
        emitted = session.accumulator.windows_emitted
    assert_windows(case, plan, path, windows, final, emitted, plan.retain)
    return windows


# -- the real node logs -------------------------------------------------------


def node_case(name: str, node, overshoot_ns: int = 0) -> Case:
    """A simulated node's log, analysed as the node analyses it (its
    regression, devices and end time, less ``overshoot_ns`` so records
    run past the analysis end)."""
    timeline = node.timeline()
    return Case(
        name=f"log {name}",
        raw=bytes(node.logger.raw_bytes()),
        end_time_ns=timeline.end_time_ns - overshoot_ns,
        singles=list(node.single_res_ids),
        multis=list(node.multi_res_ids),
        regression=node.regression(timeline),
        pulse_j=node.platform.icount.nominal_energy_per_pulse_j,
        idle_name=node.registry.name_of(node.idle),
        names=COMPONENT_NAMES,
        registry=node.registry,
    )


def blink_node():
    """A Blink node run for 8 s.  Each analysis of a node closes its log
    by running the simulation on (see ``QuantoNode.mark_log_end``), so
    a test module builds its own nodes."""
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    return node


def bounce_network():
    """The two-node Bounce network: proxies, binds, remote labels."""
    network = Network(seed=1)
    network.add_node(NodeConfig(node_id=1, mac="csma"))
    network.add_node(NodeConfig(node_id=4, mac="csma"))
    app1 = BounceApp(peer_id=4, originate_delay_ns=ms(250))
    app4 = BounceApp(peer_id=1, originate_delay_ns=ms(650))
    network.boot_all({1: app1.start, 4: app4.start})
    network.run(seconds(3))
    return network


def collection_network():
    """A small multihop collection line (root 11), built the way the
    serve-ingest benchmark builds its nodes."""
    network = Network(seed=5)
    node_ids = [11, 12, 13]
    for node_id in node_ids:
        network.add_node(NodeConfig(
            node_id=node_id, mac="csma",
            platform=PlatformConfig(device_variation=0.02)))
    apps = build_line_topology(network, node_ids, root_id=11,
                               sample_period_ns=seconds(1))
    network.boot_all({nid: app.start for nid, app in apps.items()})
    network.run(seconds(6))
    return network
