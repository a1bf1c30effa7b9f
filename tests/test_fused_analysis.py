"""Multi-log analysis: one timeline build and one fold over K logs.

A :class:`ColumnarTimeline` of K logs must hand each log back exactly
as a one-log build makes it, and one ``columnar_energy_map`` call over
it must produce K maps bit-identical (``float.hex`` and dict order) to
K separate folds.  The bind-chain resolution, now array code (successor
binds plus pointer jumping), is fuzzed against the streaming
``_SingleTracker`` on the cases that stress it.  ``QuantoNode.
breakdown_all`` — the fused per-network entry point — must equal a loop
of per-node analyses, and go through the node module's names once.
"""

import random

import numpy as np
import oracle
import pytest

import repro.tos.node as node_module
from repro.core import accounting
from repro.core.accounting import (
    WindowedAccumulator,
    columnar_energy_map,
    stream_energy_map,
)
from repro.core.labels import ActivityRegistry
from repro.core.logger import LogColumns, LogEntry
from repro.core.regression import RegressionResult, SinkColumn
from repro.core.timeline import (
    ColumnarTimeline,
    TimelineCarry,
    TimelineStream,
)
from repro.errors import LoggerError, RegressionError
from repro.tos.network import Network
from repro.tos.node import NodeConfig, QuantoNode
from repro.units import seconds

POWER, CHANGE, BIND, ADD, REMOVE, BOOT = 1, 2, 3, 4, 5, 6
LABELS = (0x0101, 0x0102, 0x0103, 0x01C8)
NAMES = {0: "CPU", 1: "Radio", 2: "Flash", 3: "LED", 9: "TimerB"}


def _entries(rows) -> list[LogEntry]:
    return [LogEntry(type=t, res_id=rid, time_us=time_us, icount=ic,
                     value=v, seq=seq)
            for seq, (t, rid, time_us, ic, v) in enumerate(rows)]


def _columns(rows) -> LogColumns:
    return LogColumns.from_entries(_entries(rows))


# -- bind chains ------------------------------------------------------------


def _assert_binds_match(rows, end_us, res_ids=(0,)):
    streamed = []
    TimelineStream(single_res_ids=res_ids, multi_res_ids=[],
                   on_segment=streamed.append).feed_all(
        _entries(rows), end_us * 1000)
    timeline = ColumnarTimeline(_columns(rows), end_time_ns=end_us * 1000,
                                single_res_ids=res_ids, multi_res_ids=[])
    for rid in res_ids:
        assert timeline.activity_segments(rid) \
            == [s for s in streamed if s.res_id == rid], rid


@pytest.mark.parametrize("seed", range(40))
def test_bind_chains_match_single_tracker(seed):
    """Random change/bind streams over three labels, so chains cross
    label changes and come back: self-binds (L→L), binds on a device's
    first row, same-time records (zero-length spans), and a trailing
    segment left open past the last record, or closed at it."""
    rng = random.Random(seed)
    labels = LABELS[:3]
    rows, t = [], 0
    for rid in (0, 1):
        if rng.random() < 0.5:   # the device's first row is a bind
            rows.append((BIND, rid, t, 0, rng.choice(labels)))
    for _ in range(rng.randrange(1, 60)):
        if rng.random() < 0.6:
            t += rng.randrange(1, 50)
        kind = BIND if rng.random() < 0.45 else CHANGE
        rows.append((kind, rng.choice((0, 1)), t, 0, rng.choice(labels)))
    end_us = t + rng.choice((0, 0, 17))
    _assert_binds_match(rows, end_us, res_ids=(0, 1))


@pytest.mark.parametrize("rows, end_us", [
    # L→L self-bind resolves L's segments to L; a later L→M moves them.
    ([(CHANGE, 0, 0, 0, 1), (BIND, 0, 5, 0, 1), (CHANGE, 0, 9, 0, 1),
      (BIND, 0, 12, 0, 2)], 20),
    # A bind on the device's first row has nothing to rebind.
    ([(BIND, 0, 0, 0, 1), (CHANGE, 0, 3, 0, 2), (BIND, 0, 6, 0, 3)], 9),
    # Out and back: 1→2, then 2→1, then 1→3 — the chain returns to 1.
    ([(CHANGE, 0, 0, 0, 1), (BIND, 0, 2, 0, 2), (BIND, 0, 4, 0, 1),
      (BIND, 0, 6, 0, 3)], 8),
    # Same-time binds: zero-length spans never enter a chain.
    ([(CHANGE, 0, 0, 0, 1), (BIND, 0, 4, 0, 2), (BIND, 0, 4, 0, 3),
      (BIND, 0, 4, 0, 1)], 4),
], ids=["self-bind", "first-row-bind", "out-and-back", "same-time"])
def test_bind_chain_cases(rows, end_us):
    _assert_binds_match(rows, end_us)


# -- K logs fused -----------------------------------------------------------


def _random_log(rng, singles, sinks, n_entries):
    """A valid random log over the given single devices and power sinks,
    plus TimerB add/removes; an empty ``sinks`` gives a log without a
    single power interval."""
    rows, t, ic = [], rng.randrange(10_000), rng.randrange(1000)
    for rid in sinks:
        rows.append((BOOT, rid, t, ic, 0))
    for _ in range(n_entries):
        if rng.random() < 0.7:
            t += rng.randrange(1, 4000)
        ic += rng.randrange(0, 50)
        kind = rng.random()
        if kind < 0.45 and sinks:
            rows.append((POWER, rng.choice(sinks), t, ic, rng.randrange(2)))
        elif kind < 0.75 and singles:
            rows.append((CHANGE, rng.choice(singles), t, ic,
                         rng.choice(LABELS)))
        elif kind < 0.85 and singles:
            rows.append((BIND, rng.choice(singles), t, ic,
                         rng.choice(LABELS)))
        elif kind < 0.95:
            # Now and then a single device's add: it turns multi mid-log.
            rows.append((ADD, rng.choice((9,) * 12 + tuple(singles)), t,
                         ic, rng.choice(LABELS)))
        else:
            rows.append((REMOVE, 9, t, ic, rng.choice(LABELS)))
    if sinks:   # at least one interval
        t += 1
        rows.append((POWER, sinks[0], t, ic, 1))
    return _columns(rows), t * 1000


def _regression(rng, sinks):
    columns = [SinkColumn(res_id=rid, value=1, name=f"sink{rid}")
               for rid in sinks]
    return RegressionResult(
        columns=columns,
        power_w={c.name: rng.uniform(0.001, 0.02) for c in columns},
        const_power_w=rng.uniform(0.0005, 0.002),
        voltage=3.0,
        y=np.zeros(1), y_hat=np.zeros(1), weights=np.ones(1),
        group_states=[], group_time_ns=[], group_energy_j=[],
    )


def _random_logs(rng, count):
    """``count`` logs with differing device sets, each declaring every
    device it names: its singles (or all three, some never named), the
    multi device 9, and any single device it adds to as multi too (kept
    single as well, or not: either way its change/binds are dropped);
    with several logs, the first has no activity rows."""
    logs = []
    for k in range(count):
        singles = sorted(rng.sample((0, 1, 3), rng.randrange(0, 4)))
        sinks = sorted(rng.sample((0, 1, 2, 3), rng.randrange(1, 5)))
        columns, end_ns = _random_log(rng, singles, sinks,
                                      rng.randrange(0, 200))
        if count > 1 and k == 0:
            columns = columns[(columns.type == POWER)
                              | (columns.type == BOOT)]
        turned = sorted(set(columns.res_id[columns.type == ADD].tolist())
                        - {9})
        end_ns = max(0, end_ns + rng.choice((0, -500_000, 5_000_000)))
        declared = singles if rng.random() < 0.7 else [0, 1, 3]
        if rng.random() < 0.5:
            declared = [rid for rid in declared if rid not in turned]
        logs.append(dict(
            columns=columns,
            end_ns=end_ns,
            singles=declared,
            multis=[9, *turned],
            regression=_regression(rng, sinks),
            pulse_j=rng.choice((1e-6, 2.5e-6)),
            idle=f"{k}:Idle",
        ))
    return logs


def _fused(logs):
    return ColumnarTimeline(
        [log["columns"] for log in logs],
        end_time_ns=[log["end_ns"] for log in logs],
        single_res_ids=[log["singles"] for log in logs],
        multi_res_ids=[log["multis"] for log in logs])


def _single(log):
    return ColumnarTimeline(log["columns"], end_time_ns=log["end_ns"],
                            single_res_ids=log["singles"],
                            multi_res_ids=log["multis"])


def _reference(log, registry, fold):
    """The streaming reference's map of one log."""
    return stream_energy_map(
        _single(log).entries, log["regression"], registry, NAMES,
        log["pulse_j"], fold_proxies=fold, idle_name=log["idle"],
        end_time_ns=log["end_ns"], single_res_ids=log["singles"],
        multi_res_ids=log["multis"])


def _windowed(log, registry):
    """The live fold's map of one log, fed 7 rows at a time."""
    accumulator = WindowedAccumulator(
        log["regression"], registry, NAMES, log["pulse_j"],
        stride_ns=1_000_000, idle_name=log["idle"],
        single_res_ids=log["singles"], multi_res_ids=log["multis"],
        end_time_ns=log["end_ns"])
    columns = log["columns"]
    for at in range(0, len(columns), 7):
        accumulator.feed_columns(columns[at:at + 7])
    return accumulator.finish()


def _assert_same_timeline(view, single):
    assert view.end_time_ns == single.end_time_ns
    assert view.power_intervals() == single.power_intervals()
    assert view.interval_row.tolist() == single.interval_row.tolist()
    assert view.single_device_ids() == single.single_device_ids()
    assert view.multi_device_ids() == single.multi_device_ids()
    for rid in single.single_device_ids():
        got, want = view.single_columns(rid), single.single_columns(rid)
        for name in got.__slots__:
            assert getattr(got, name).tolist() \
                == getattr(want, name).tolist(), (rid, name)
    for rid in single.multi_device_ids():
        got, want = view.multi_columns(rid), single.multi_columns(rid)
        assert [view.label_sets[s] for s in got.set_ids] \
            == [single.label_sets[s] for s in want.set_ids]
        for name in ("t0", "t1", "close_row"):
            assert getattr(got, name).tolist() \
                == getattr(want, name).tolist(), (rid, name)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("count", [1, 2, 5])
def test_fused_logs_match_single_builds(seed, count, monkeypatch):
    """Each log of a fused timeline equals its one-log build, and the
    fused fold's maps equal K separate folds, the streaming reference
    and (without proxy folding) the windowed fold in small batches —
    float bits and key order."""
    monkeypatch.setattr(accounting, "MIN_BATCH_ENTRIES", 16)
    rng = random.Random(seed * 10 + count)
    logs = _random_logs(rng, count)
    fused = _fused(logs)
    assert fused.n_logs == count
    for k, log in enumerate(logs):
        _assert_same_timeline(fused.log(k), _single(log))
    registry = ActivityRegistry()
    for fold in (False, True):
        maps = columnar_energy_map(
            fused, [log["regression"] for log in logs], registry, NAMES,
            [log["pulse_j"] for log in logs], fold_proxies=fold,
            idle_names=[log["idle"] for log in logs])
        assert len(maps) == count
        for log, fused_map in zip(logs, maps):
            (alone,) = columnar_energy_map(
                _single(log), [log["regression"]], registry, NAMES,
                [log["pulse_j"]], fold_proxies=fold,
                idle_names=[log["idle"]])
            oracle.assert_same_map(alone, fused_map)
            oracle.assert_same_map(_reference(log, registry, fold),
                                   fused_map)
            if not fold:
                oracle.assert_same_map(_windowed(log, registry), fused_map)


def test_once_disagreeing_log_folds_identically_when_declared():
    """The seeded log on which whole-log device inference once charged
    ``('LED', '4:Idle')`` what the stream split between it and
    ``('LED', '(untracked)')``: declared, the offline fold, the live
    fold and the reference give one map, bit for bit."""
    log = _random_logs(random.Random(65), 5)[4]
    assert 3 in log["singles"]
    registry = ActivityRegistry()
    (offline,) = columnar_energy_map(
        _single(log), [log["regression"]], registry, NAMES,
        [log["pulse_j"]], idle_names=[log["idle"]])
    assert ("LED", "4:Idle") in offline.energy_j
    assert ("LED", "(untracked)") not in offline.energy_j
    oracle.assert_same_map(_reference(log, registry, False), offline)
    oracle.assert_same_map(_windowed(log, registry), offline)


@pytest.mark.parametrize("row", [
    (CHANGE, 3, 20, 2, LABELS[0]),
    (BIND, 3, 20, 2, LABELS[0]),
    (ADD, 0, 20, 2, LABELS[0]),
    (REMOVE, 3, 20, 2, LABELS[0]),
], ids=["change", "bind", "add", "remove"])
def test_undeclared_device_is_refused(row):
    """A change/bind of a device declared neither way, or an add/remove
    of one not declared multi, raises in a whole-log, a K-log and a
    batch build: the product paths never infer a device."""
    columns = _columns([(BOOT, 0, 0, 0, 0), (CHANGE, 0, 10, 1, LABELS[1]),
                        row, (POWER, 0, 30, 3, 1)])
    devices = dict(single_res_ids=[0], multi_res_ids=[9])
    with pytest.raises(LoggerError, match="did not declare"):
        ColumnarTimeline(columns, **devices)
    with pytest.raises(LoggerError, match="log 1 names"):
        ColumnarTimeline([columns[:2], columns], single_res_ids=[[0], [0]],
                         multi_res_ids=[[9], [9]])
    with pytest.raises(LoggerError, match="did not declare"):
        ColumnarTimeline(columns, carry=TimelineCarry(), final=False,
                         **devices)


def test_log_without_power_intervals_raises_as_alone():
    """A log with no power interval fails the fused fold with the error
    its own fold raises."""
    rng = random.Random(3)
    logs = _random_logs(rng, 3)
    logs[1]["columns"], _ = _random_log(rng, [0, 1], [], 40)
    logs[1].update(singles=[0, 1], multis=[0, 1, 9])
    registry = ActivityRegistry()
    with pytest.raises(RegressionError) as alone:
        columnar_energy_map(_single(logs[1]), [logs[1]["regression"]],
                            registry, NAMES, [1e-6])
    with pytest.raises(RegressionError) as fused:
        columnar_energy_map(
            _fused(logs), [log["regression"] for log in logs], registry,
            NAMES, [1e-6] * 3)
    assert str(fused.value) == str(alone.value)


def _exact(value):
    """``value`` with floats as ``float.hex`` and dicts as item lists."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(_exact(key), _exact(item)) for key, item in value.items()]
    return value


def _window_bits(snapshot):
    return [(name, _exact(value)) for name, value in vars(snapshot).items()]


def _split_fold(log, registry, names, stride_ns, retain, cuts, seen):
    """The live fold of ``log`` fed in the chunks ``cuts`` delimit:
    every emitted and retained window and the final map, as exact
    bits.  Notes in ``seen`` the batch shapes the split produced."""
    emitted = []
    accumulator = WindowedAccumulator(
        log["regression"], registry, names, log["pulse_j"],
        stride_ns=stride_ns, idle_name=log["idle"],
        single_res_ids=log["singles"], multi_res_ids=log["multis"],
        end_time_ns=log["end_ns"], retain=retain, on_window=emitted.append)
    columns = log["columns"]
    for lo, hi in zip(cuts, cuts[1:]):
        before = len(emitted)
        accumulator.feed_columns(columns[lo:hi])
        if accumulator._pending_rows:
            continue  # not folded yet
        times = columns.time_ns[lo:hi]
        seen["no close"] |= len(emitted) == before
        seen["empty windows"] |= any(
            not snapshot.intervals for snapshot in emitted[before + 1:])
        seen["tail mid-batch"] |= \
            int(times[0]) <= log["end_ns"] < int(times[-1])
    seen["rows join an open tail at finish"] |= \
        accumulator._tail is not None and accumulator._pending_rows > 0
    final = accumulator.finish()
    seen["evicted"] |= len(accumulator.windows) < len(emitted)
    return ([_window_bits(s) for s in emitted],
            [_window_bits(s) for s in accumulator.windows],
            [(name, _exact(value)) for name, value in vars(final).items()])


@pytest.mark.parametrize("names", [
    NAMES, {0: "CPU", 1: "CPU", 2: "Flash", 3: "CPU", 9: "CPU"}],
    ids=["components", "shared-component"])
def test_windowed_split_points_fold_identically(names, monkeypatch):
    """Random batch boundaries against one-row batches (each closes at
    most one window, so the chained per-window charge is the
    reference): every window emitted and retained and the final map
    are the same bits.  Strides shorter than an interval make one batch
    emit empty windows, a retention below the window count evicts, an
    end time inside a batch starts the tail re-cover mid-batch, rows
    left buffered fold at finish (joining a tail already open), and
    devices sharing a component name merge their busy time."""
    seen = dict.fromkeys(
        ("no close", "empty windows", "tail mid-batch", "evicted",
         "rows join an open tail at finish"), False)
    for seed in range(10):
        rng = random.Random(1000 + seed)
        for log in _random_logs(rng, 2):
            n = len(log["columns"])
            if rng.random() < 0.5:
                # The analysis ends mid-log: a long tail re-cover.
                log["end_ns"] = int(log["columns"].time_ns[
                    rng.randrange(n)]) + rng.randrange(1000)
            stride_ns = rng.choice((200_000, 1_500_000, 6_000_000)) \
                + rng.randrange(100_000)
            retain = rng.choice((1, 3, None))
            cuts = [0, *sorted(rng.sample(range(1, n),
                                          min(n - 1, rng.randrange(8)))), n]
            registry = ActivityRegistry()
            monkeypatch.setattr(accounting, "MIN_BATCH_ENTRIES", 1)
            reference = _split_fold(log, registry, names, stride_ns,
                                    retain, range(n + 1), dict(seen))
            # Chunks fold once this many rows wait; the rest at finish.
            monkeypatch.setattr(accounting, "MIN_BATCH_ENTRIES",
                                rng.choice((1, 1, 24, n + 1)))
            assert _split_fold(log, registry, names, stride_ns, retain,
                               cuts, seen) == reference, seed
    assert all(seen.values()), seen


def test_fused_timeline_checks_time_order_per_log():
    """Each log must be in time order; a log may start before the one
    ahead of it ends."""
    early = _columns([(BOOT, 0, 0, 0, 0), (POWER, 0, 5, 1, 1)])
    late = _columns([(BOOT, 0, 50, 0, 0), (POWER, 0, 60, 1, 1)])
    ColumnarTimeline([late, early], single_res_ids=[[]] * 2,
                     multi_res_ids=[[]] * 2)
    backwards = _columns([(BOOT, 0, 9, 0, 0), (POWER, 0, 5, 1, 1)])
    with pytest.raises(LoggerError, match="backwards"):
        ColumnarTimeline([early, backwards, late], single_res_ids=[[]] * 3,
                         multi_res_ids=[[]] * 3)


def test_fused_timeline_refuses_per_device_views():
    """Per-device accessors belong to one log: a fused timeline hands
    them out through ``log(k)`` only."""
    logs = _random_logs(random.Random(1), 2)
    fused = _fused(logs)
    with pytest.raises(ValueError, match="log"):
        fused.single_device_ids()
    with pytest.raises(ValueError, match="log"):
        fused.grouped_inputs(1e-6)
    assert fused.log(1).single_device_ids() \
        == _single(logs[1]).single_device_ids()


# -- the network entry point ------------------------------------------------


def _collection(seed=5, nodes=(10, 11, 12, 13)):
    from repro.apps.collection import build_star_topology

    network = Network(seed=seed)
    for node_id in nodes:
        network.add_node(NodeConfig(node_id=node_id, mac="csma"))
    apps = build_star_topology(network, list(nodes), root_id=nodes[0],
                               sample_period_ns=seconds(2))
    network.boot_all({nid: app.start for nid, app in apps.items()})
    network.run(seconds(6))
    return network, list(nodes)


def test_breakdown_all_equals_per_node_loop():
    """The fused entry point snapshots each node after its own log-end
    mark, in order, exactly like a loop of per-node ``timeline()`` +
    ``breakdown`` with proxies folded: same maps (bits and order), same
    regressions, same timelines; each node's memo holds its view."""
    network, ids = _collection()
    looped = []
    for nid in ids:
        node = network.node(nid)
        timeline = node.timeline()
        regression = node.regression(timeline)
        looped.append((timeline, regression, node.energy_map(
            timeline, regression, fold_proxies=True)))
    network, ids = _collection()
    fused = QuantoNode.breakdown_all([network.node(nid) for nid in ids])
    for nid, (timeline, regression, emap), got in zip(ids, looped, fused):
        oracle.assert_same_map(emap, got.energy_map)
        assert got.regression.power_w == regression.power_w
        assert got.regression.const_power_w == regression.const_power_w
        _assert_same_timeline(got.timeline, timeline)
        assert network.node(nid)._timeline_cache[2] is got.timeline


def test_breakdown_all_calls_each_layer_name_once_per_pass(monkeypatch):
    """The tracer of the benchmark swaps the node module's
    ``ColumnarTimeline``, ``solve_grouped`` and ``columnar_energy_map``
    for plain functions: the fused path must still work through them,
    building one timeline and one fold for all nodes and one regression
    per node."""
    calls = {"ColumnarTimeline": 0, "solve_grouped": 0,
             "columnar_energy_map": 0}
    for name in calls:
        real = getattr(node_module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(node_module, name, counted)
    network, ids = _collection(nodes=(10, 11, 12))
    QuantoNode.breakdown_all([network.node(nid) for nid in ids])
    assert calls == {"ColumnarTimeline": 1, "solve_grouped": 3,
                     "columnar_energy_map": 1}


def test_layout_built_once_per_node(monkeypatch):
    """A node's power-state layout is fixed once it is built: a network
    point builds one per node, however many regressions it solves."""
    builds = []
    real = node_module.layout_from_tracker
    monkeypatch.setattr(node_module, "layout_from_tracker",
                        lambda tracker: builds.append(tracker)
                        or real(tracker))
    network, ids = _collection(nodes=(10, 11, 12))
    nodes = [network.node(nid) for nid in ids]
    QuantoNode.breakdown_all(nodes)
    for node in nodes:
        node.regression()
    assert builds == [node.tracker for node in nodes]


def test_oracle_answers_the_fused_path(monkeypatch):
    """Under the oracle, ``breakdown_all`` is answered by the streaming
    reference, one snapshot per node, each checked against the fused
    product map."""
    import repro.core.accounting as accounting

    oracle.install(monkeypatch)
    streamed = []
    real = oracle.stream_energy_map

    def spy(*args, **kwargs):
        streamed.append(kwargs["end_time_ns"])
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "stream_energy_map", spy)
    network, ids = _collection(nodes=(10, 11, 12))
    answers = QuantoNode.breakdown_all([network.node(nid) for nid in ids])
    assert streamed == [a.timeline.end_time_ns for a in answers]
    assert all(isinstance(a.energy_map, accounting.EnergyMap)
               for a in answers)
