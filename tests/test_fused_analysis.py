"""Multi-log analysis: one timeline build and one fold over K logs.

Each log of a K-log :class:`ColumnarTimeline` must equal its one-log
build, and the fused fold's maps K separate folds and the streaming
reference bit for bit: the differential harness's fused check
(``tests/differential.py``) runs on groups of 1, 2 and 5 generated
logs here.  Its live check runs here on generated logs split at random
byte cuts, with and without devices sharing a component name, and on a
hand-built log whose device draws power before it is first named (the
case whole-log device inference once charged apart from the stream).
Also pinned: the array-coded bind-chain resolution against the streaming
``_SingleTracker`` on hand-built cases and on the dense chains of
generated logs' change/bind rows, declared-device refusals, per-log
time order and error parity, and ``QuantoNode.breakdown_all`` — the fused
per-network entry point — which must equal a loop of per-node analyses
and go through the node module's names once.
"""

import oracle
import pytest

import repro.tos.node as node_module
from differential import (
    ADD,
    BIND,
    BOOT,
    CHANGE,
    LABELS,
    NAMES,
    POWER,
    REMOVE,
    SHARED_NAMES,
    Case,
    adversarial_log,
    assert_same_timeline,
    check_checkpoint,
    check_columnar,
    check_fused,
    check_windowed,
    pack,
    regression,
    take_rows,
)
from repro.core.accounting import columnar_energy_map
from repro.core.labels import ActivityRegistry
from repro.core.logger import LogColumns, LogEntry
from repro.core.timeline import (
    ColumnarTimeline,
    TimelineCarry,
    TimelineStream,
)
from repro.errors import LoggerError, RegressionError
from repro.tos.network import Network
from repro.tos.node import NodeConfig, QuantoNode
from repro.units import seconds


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
    """A generated log's change/bind rows of its declared single
    devices, alone: dense chains that cross label changes and come back
    — self-binds, out-and-back, same-time binds, binds on a device's
    first row — and a trailing segment open past the last record or
    closed at it."""
    case = adversarial_log(seed)
    cols = case.columns
    rows = [row for row in zip(
        cols.type.tolist(), cols.res_id.tolist(),
        (cols.time_ns // 1000).tolist(), cols.icount.tolist(),
        cols.value.tolist()) if row[0] in (CHANGE, BIND)
        and row[1] in case.singles]
    _assert_binds_match(rows, case.end_time_ns // 1000,
                        res_ids=case.singles)


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


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("count", [1, 2, 5])
def test_fused_logs_match_single_builds(seed, count):
    """Each log of a fused timeline of ``count`` generated logs (one
    component-name map, as the fold takes one) equals its one-log
    build, and the fused fold's maps equal the streaming reference in
    both proxy modes — float bits and key order."""
    first = 3000 + 10 * seed + count
    check_fused([adversarial_log(first + 4 * k) for k in range(count)])


def test_once_disagreeing_log_folds_identically_when_declared():
    """The LED draws power before its first activity change, the case
    on which whole-log device inference once charged ``('LED',
    '4:Idle')`` what the stream split between it and ``('LED',
    '(untracked)')``: declared, the offline fold, the live fold, a
    checkpointed session and the reference give one map, bit for bit."""
    led = 3
    case = Case(
        name="log LED named after it drew power",
        raw=pack([(BOOT, 0, 0, 0, 0), (BOOT, led, 0, 0, 0),
                  (POWER, led, 100, 5, 1), (POWER, 0, 150, 6, 1),
                  (CHANGE, 0, 200, 9, LABELS[0]), (POWER, led, 300, 12, 0),
                  (CHANGE, led, 400, 15, LABELS[1]),
                  (POWER, led, 500, 20, 1), (CHANGE, led, 600, 22, LABELS[2]),
                  (POWER, 0, 700, 25, 0)]),
        end_time_ns=800_000, singles=[0, led], multis=[9],
        regression=regression({0: 0.004, led: 0.01}, 0.001), pulse_j=1e-6,
        idle_name="4:Idle", names=NAMES)
    reference = case.oracle_map(False)
    assert ("LED", "4:Idle") in reference.energy_j
    assert ("LED", "(untracked)") not in reference.energy_j
    check_columnar(case)
    check_windowed(case)
    check_checkpoint(case)


@pytest.mark.parametrize("names", [NAMES, SHARED_NAMES],
                         ids=["components", "shared-component"])
def test_windowed_split_points_fold_identically(names):
    """Generated logs cut at random bytes, folded in batches of their
    plan's size and of the default, against one-row batches (each
    closes at most one window, so the chained per-window charge is the
    reference): every window retained and the final map are the same
    bits.  Strides shorter than an interval make one batch emit empty
    windows, a small retention evicts, an end time inside a batch
    starts the tail re-cover mid-batch, rows left buffered fold at
    finish (joining a tail already open), and with ``SHARED_NAMES``
    devices sharing a component name merge their busy time."""
    shared = names is SHARED_NAMES
    seen = set()
    for seed in [s for s in range(4000, 4080) if (s % 4 == 3) == shared][:14]:
        case = adversarial_log(seed)
        assert case.names is names
        check_windowed(case, seen)
    assert seen == {
        "a batch closing no window", "empty windows", "evicted windows",
        "tail re-cover", "tail begins mid-batch",
        "rows join an open tail at finish"}, seen


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
        ColumnarTimeline([take_rows(columns, slice(2)), columns],
                         single_res_ids=[[0], [0]],
                         multi_res_ids=[[9], [9]])
    with pytest.raises(LoggerError, match="did not declare"):
        ColumnarTimeline(columns, carry=TimelineCarry(), final=False,
                         **devices)


def test_log_without_power_intervals_raises_as_alone():
    """A log with no power interval fails the fused fold with the error
    its own fold raises."""
    cases = [adversarial_log(seed) for seed in (1, 2)]
    silent = _columns([(CHANGE, 0, 5, 0, LABELS[0]),
                       (BIND, 1, 9, 1, LABELS[1]),
                       (ADD, 9, 12, 2, LABELS[2]),
                       (CHANGE, 1, 20, 3, LABELS[0])])
    devices = dict(single_res_ids=[0, 1], multi_res_ids=[9])
    regression = cases[0].regression
    registry = ActivityRegistry()
    with pytest.raises(RegressionError) as alone:
        columnar_energy_map(ColumnarTimeline(silent, **devices),
                            [regression], registry, NAMES, [1e-6])
    fused = ColumnarTimeline(
        [cases[0].columns, silent, cases[1].columns],
        single_res_ids=[cases[0].singles, [0, 1], cases[1].singles],
        multi_res_ids=[cases[0].multis, [9], cases[1].multis])
    with pytest.raises(RegressionError) as both:
        columnar_energy_map(fused, [regression] * 3, registry, NAMES,
                            [1e-6] * 3)
    assert str(both.value) == str(alone.value)


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
    cases = [adversarial_log(seed) for seed in (1, 2)]
    fused = ColumnarTimeline(
        [case.columns for case in cases],
        single_res_ids=[case.singles for case in cases],
        multi_res_ids=[case.multis for case in cases])
    with pytest.raises(ValueError, match="log"):
        fused.single_device_ids()
    with pytest.raises(ValueError, match="log"):
        fused.grouped_inputs(1e-6)
    assert fused.log(1).single_device_ids() \
        == cases[1].timeline().single_device_ids()


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
        assert_same_timeline(got.timeline, timeline)
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
