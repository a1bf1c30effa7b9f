"""The columnar analysis backend: decode, cover, and attribution.

The columnar path is held to the streaming reference bit for bit by
the differential harness (``tests/differential.py``, run over every
path by ``tests/test_differential.py``); the tests here run its
columnar check on logs of their own and pin the rest:

* **Decode** — ``decode_columns`` agrees field for field with the
  entry decoder on generated logs, one moved to wrap u32 time
  mid-log; ``QuantoLogger.columns()`` produces the same columns
  whether the packed-bytes cache is cold or warm, and
  ``LogColumns.from_entries`` round-trips.
* **Cover** — the columnar interval, segment and multi-span
  reconstruction equals what ``TimelineStream`` emits, and the
  ``searchsorted`` interval cover matches the cursor-based streaming
  cover span for span, on generated logs.
* **Attribution** — the columnar map equals the streaming reference's
  on generated logs in each proxy-fold mode, hand-built edge cases
  (a device turning multi), the
  node-level API against the oracle (stale snapshots included), error
  parity, and the refusal of logs whose time goes backwards.

The experiment-level contract (columnar ≡ streaming on every
experiment) lives in ``test_golden_digests``, whose reference leg runs
the streaming oracle (``tests/oracle.py``).
"""

import dataclasses

import numpy as np
import oracle
import pytest

from differential import (
    ADD,
    BOOT,
    CHANGE,
    POWER,
    U32,
    Case,
    adversarial_log,
    check_columnar,
    pack,
    regression,
    take_rows,
)
from repro.core.accounting import (
    _ragged_cover,
    _scan_cover,
    ANALYSIS_BACKENDS,
    AnalysisBackendError,
    columnar_energy_map,
    resolve_analysis_backend,
)
from repro.core.labels import ActivityRegistry
from repro.core.logger import (
    LogColumns,
    decode_columns,
    decode_log,
    iter_entries,
)
from repro.core.regression import group_intervals, solve_grouped
from repro.core.timeline import (
    ColumnarTimeline,
    TimelineCarry,
    TimelineStream,
)
from repro.errors import LoggerError, RegressionError


# -- decode -----------------------------------------------------------------


def rebased(case: Case, time_base_us: int) -> Case:
    """``case`` with its log moved to start at ``time_base_us``."""
    cols = case.columns
    shift = time_base_us * 1000 - int(cols.time_ns[0])
    raw = pack(zip(cols.type.tolist(), cols.res_id.tolist(),
                   ((cols.time_ns + shift) // 1000).tolist(),
                   cols.icount.tolist(), cols.value.tolist()))
    return dataclasses.replace(
        case, name=f"{case.name} from {time_base_us} us", raw=raw,
        end_time_ns=case.end_time_ns + shift)


@pytest.mark.parametrize("time_base_us", [0, U32 - 2_000])
def test_decode_columns_matches_iter_entries(time_base_us):
    """Field-for-field decode equivalence, including u32 wrap-around:
    the second base starts just below the 32-bit boundary, so times
    wrap mid-log.  The harness's columnar check decodes first, then
    reconstructs and folds the moved log."""
    case = rebased(adversarial_log(7), time_base_us)
    raw_time = (case.columns.time_ns // 1000) % U32
    assert (np.diff(raw_time) < 0).any() == (time_base_us != 0)
    check_columnar(case)


def test_logger_columns_cold_and_warm():
    """``QuantoLogger.columns()`` must agree with decoding the packed
    bytes, both before the pack cache exists (raw-tuple ring path) and
    after (frombuffer path)."""
    from repro.experiments.common import run_blink
    from repro.units import seconds

    node, _app, _sim = run_blink(seed=0, duration_ns=seconds(2))
    cold = node.logger.columns()  # no raw_bytes() call yet: ring path
    raw = node.logger.raw_bytes()
    warm = node.logger.columns()  # packed cache now warm
    reference = decode_columns(raw)
    for candidate in (cold, warm):
        assert candidate.time_ns.tolist() == reference.time_ns.tolist()
        assert candidate.icount.tolist() == reference.icount.tolist()
        assert candidate.type.tolist() == reference.type.tolist()
        assert candidate.res_id.tolist() == reference.res_id.tolist()
        assert candidate.value.tolist() == reference.value.tolist()


def test_log_columns_from_entries_roundtrip():
    case = adversarial_log(3)
    entries = decode_log(case.raw)
    columns = LogColumns.from_entries(entries)
    reference = decode_columns(case.raw)
    assert columns.time_ns.tolist() == reference.time_ns.tolist()
    assert columns.icount.tolist() == reference.icount.tolist()
    # ...and back: the timeline's rows are the decoded entries, seq and
    # time_us included.
    assert ColumnarTimeline(reference, single_res_ids=case.singles,
                            multi_res_ids=case.multis).entries == entries


# -- reconstruction ---------------------------------------------------------


def _streamed(case):
    """The streaming trackers' reconstruction of a generated log:
    emitted intervals, and segments grouped per device in emission
    order."""
    intervals, segments = [], []
    TimelineStream(
        single_res_ids=case.singles, multi_res_ids=case.multis,
        on_interval=intervals.append, on_segment=segments.append,
    ).feed_all(iter_entries(case.raw), case.end_time_ns)
    by_device = {rid: [seg for seg in segments if seg.res_id == rid]
                 for rid in case.singles}
    return intervals, by_device


@pytest.mark.parametrize("seed", range(6))
def test_columnar_reconstruction_matches_streaming(seed):
    """Intervals (times, pulses, state vectors), per-device segments
    (spans, labels, bind resolution) and multi-device spans equal the
    streaming trackers'."""
    check_columnar(adversarial_log(200 + seed), folds=())


def test_backwards_time_is_refused():
    """Time order is the invariant the one columnar fold rests on: a
    record stamped before its predecessor raises, in whole-log mode and
    in batch mode against the carry's last record."""
    case = adversarial_log(5)
    entries = decode_log(case.raw)
    k = next(i for i in range(len(entries) - 1)
             if entries[i].time_ns < entries[i + 1].time_ns)
    swapped = list(entries)
    swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
    devices = dict(single_res_ids=case.singles, multi_res_ids=case.multis)
    with pytest.raises(LoggerError, match="backwards"):
        ColumnarTimeline(LogColumns.from_entries(swapped), **devices)
    # Batch mode: each batch is in order, but the second starts before
    # the first one's last record.
    columns = LogColumns.from_entries(entries)
    half = len(columns) // 2
    carry = TimelineCarry()
    ColumnarTimeline(take_rows(columns, slice(half, None)), carry=carry,
                     final=False, **devices)
    with pytest.raises(LoggerError, match="backwards"):
        ColumnarTimeline(take_rows(columns, slice(half)), carry=carry,
                         final=False, **devices)


@pytest.mark.parametrize("seed", range(6))
def test_ragged_cover_matches_cursor_cover(seed):
    """The searchsorted cover must yield the cursor-based cover's spans
    exactly: same segments, same overlaps, same order, per interval."""
    case = adversarial_log(100 + seed)
    intervals, by_device = _streamed(case)
    columnar = case.timeline()
    window_t0 = np.array([iv.t0_ns for iv in intervals], dtype=np.int64)
    window_t1 = np.array([iv.t1_ns for iv in intervals], dtype=np.int64)
    for rid in case.singles:
        segments = by_device[rid]
        device = columnar._singles.get(rid)
        offsets, seg_rows, overlaps = _ragged_cover(
            window_t0, window_t1, device.t0, device.t1)
        cursor = 0
        for index, interval in enumerate(intervals):
            expected, _covered, cursor = _scan_cover(
                segments, cursor, interval.t0_ns, interval.t1_ns)
            got = [
                (int(device.t0[j]), int(device.t1[j]), int(overlaps[k]))
                for k, j in enumerate(
                    seg_rows[offsets[index]:offsets[index + 1]].tolist(),
                    start=int(offsets[index]))
            ]
            assert got == [
                (segment.t0_ns, segment.t1_ns, overlap)
                for segment, overlap in expected
            ], f"res {rid}, interval {index}"


# -- attribution ------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("fold", [False, True])
def test_randomized_maps_bit_identical(seed, fold):
    """Streaming and columnar maps are bit-identical on generated logs
    whose analysis ends before the last record (the reference's
    tail-replay path), at it, or past it (trailing idle)."""
    check_columnar(adversarial_log(1000 + seed), folds=(fold,))


def test_grouped_inputs_match_group_intervals():
    columnar = adversarial_log(42).timeline()
    reference = group_intervals(columnar.power_intervals(), 1e-6)
    assert columnar.grouped_inputs(1e-6) == reference


def test_node_backend_api_is_bit_identical():
    """The node-level entry points (regression + energy map) agree
    with the streaming oracle, and the columnar regression is the same
    solved object contents as the interval-fed one."""
    from repro.experiments.common import run_blink
    from repro.units import seconds

    node, _app, _sim = run_blink(seed=5, duration_ns=seconds(4))
    reference_map = oracle.energy_map(node)
    columnar_map = node.energy_map()
    oracle.assert_same_map(reference_map, columnar_map)
    reference = oracle.regression(node)
    candidate = node.regression()
    assert reference.power_w == candidate.power_w
    assert reference.const_power_w == candidate.const_power_w
    assert reference.group_states == candidate.group_states
    assert reference.group_time_ns == candidate.group_time_ns
    assert reference.group_energy_j == candidate.group_energy_j
    assert (reference.y == candidate.y).all()
    assert (reference.y_hat == candidate.y_hat).all()
    # Fold mode through the node API too.
    oracle.assert_same_map(oracle.energy_map(node, fold_proxies=True),
                node.energy_map(fold_proxies=True))


def test_solve_grouped_equals_solve_breakdown():
    from repro.experiments.common import run_blink
    from repro.units import seconds

    node, _app, _sim = run_blink(seed=2, duration_ns=seconds(4))
    timeline = node.timeline()
    reference = node.regression(timeline)
    vectors, times_ns, energies = group_intervals(
        timeline.power_intervals(),
        node.platform.icount.nominal_energy_per_pulse_j)
    candidate = solve_grouped(
        vectors, times_ns, energies, node.layout(),
        node.platform.rail.voltage)
    assert reference.power_w == candidate.power_w
    assert reference.const_power_w == candidate.const_power_w


def test_device_turning_multi_mid_log_matches_streaming():
    """A device with change/bind records *and* later add/remove records.
    Declared multi, its change/binds are dropped, as the stream drops
    them; declared both ways, the stream keeps an (unfed) single
    tracker, so covers resolve as single-with-no-segments — all idle.
    Either way the columnar map equals the stream's, in both fold
    modes.  Declared single only, its add is a record of an undeclared
    multi device: the columnar timeline refuses it (the stream alone
    would infer the device)."""
    rid = 5
    raw = pack([(BOOT, rid, 50, 0, 0), (POWER, rid, 80, 1, 1),
                (CHANGE, rid, 100, 2, 0x0111), (ADD, rid, 200, 3, 0x0122),
                (CHANGE, rid, 300, 5, 0x0133), (POWER, rid, 400, 9, 0)])
    for singles in ([], [rid]):
        check_columnar(Case(
            name=f"log turning multi, singles {singles}", raw=raw,
            end_time_ns=400_000, singles=singles, multis=[rid],
            regression=regression({rid: 0.004}, 0.001), pulse_j=1e-6,
            idle_name="Idle", names={rid: "Dev"},
            registry=ActivityRegistry()))
    with pytest.raises(LoggerError, match="device 5"):
        ColumnarTimeline(decode_columns(raw), single_res_ids=[rid],
                         multi_res_ids=[])


def test_stale_timeline_snapshot_matches_streaming():
    """A timeline captured before the log grows must analyze its
    captured entries on the product path and the oracle alike — not
    the live log."""
    from repro.experiments.common import run_blink
    from repro.units import seconds

    node, _app, sim = run_blink(seed=4, duration_ns=seconds(2))
    stale = node.timeline()
    sim.run(until=sim.now + seconds(2))  # the log keeps growing
    reference = oracle.energy_map(node, stale)
    candidate = node.energy_map(stale)
    oracle.assert_same_map(reference, candidate)
    ref_reg = oracle.regression(node, stale)
    cand_reg = node.regression(stale)
    assert ref_reg.power_w == cand_reg.power_w
    assert ref_reg.group_time_ns == cand_reg.group_time_ns
    assert ref_reg.group_energy_j == cand_reg.group_energy_j


@pytest.mark.parametrize("stale", [False, True])
def test_node_backend_knob_selects_one_implementation(monkeypatch, stale):
    """The node's regression / energy_map / breakdown and the oracle's
    run exactly one implementation each: the oracle builds no
    ColumnarTimeline (the reference stays independent of the columnar
    reconstruction), the product runs no EnergyAccumulator, and the
    maps are byte-identical.  A stale snapshot analyzes only its own
    rows."""
    from repro.core.accounting import EnergyAccumulator
    from repro.experiments.common import run_blink
    from repro.tos.node import QuantoNode
    from repro.units import seconds

    node, _app, sim = run_blink(seed=6, duration_ns=seconds(2))
    snapshot = node.timeline() if stale else None
    if stale:
        sim.run(until=sim.now + seconds(2))  # the log keeps growing
    calls = {}
    build, feed_all = ColumnarTimeline.__init__, EnergyAccumulator.feed_all

    def spy_build(self, *args, **kwargs):
        calls["timelines"] += 1
        build(self, *args, **kwargs)

    def spy_feed_all(self, *args, **kwargs):
        calls["accumulators"] += 1
        return feed_all(self, *args, **kwargs)

    monkeypatch.setattr(ColumnarTimeline, "__init__", spy_build)
    monkeypatch.setattr(EnergyAccumulator, "feed_all", spy_feed_all)

    def analyze(impl):
        calls.update(timelines=0, accumulators=0)
        regression = impl.regression(node, snapshot)
        maps = [impl.energy_map(node, snapshot),
                impl.energy_map(node, snapshot, regression,
                                fold_proxies=True)]
        if not stale:
            maps.append(impl.breakdown(node)[1])
        return regression, maps, dict(calls)

    # The oracle first, so no memoized timeline can hide a build.
    ref_reg, ref_maps, ref_calls = analyze(oracle)
    cand_reg, cand_maps, cand_calls = analyze(QuantoNode)
    assert ref_calls["timelines"] == 0
    assert ref_calls["accumulators"] == len(ref_maps)
    assert cand_calls["accumulators"] == 0
    # The regression and every map share one memoized reconstruction
    # (none at all when a snapshot is passed).
    assert cand_calls["timelines"] == (0 if stale else 1)
    assert ref_reg.power_w == cand_reg.power_w
    assert ref_reg.group_time_ns == cand_reg.group_time_ns
    assert ref_reg.group_energy_j == cand_reg.group_energy_j
    for reference, candidate in zip(ref_maps, cand_maps):
        oracle.assert_same_map(reference, candidate)
    if stale:
        span = int(snapshot.interval_t1[-1]) - int(snapshot.interval_t0[0])
        assert ref_maps[0].span_ns == cand_maps[0].span_ns == span
        assert node.energy_map().span_ns > span


def test_oracle_check_names_the_first_differing_cell():
    """A map that differs in one cell's last bit fails naming that cell
    and both values' ``float.hex``."""
    from repro.experiments.common import run_blink
    from repro.units import seconds

    node, _app, _sim = run_blink(seed=6, duration_ns=seconds(2))
    reference = oracle.energy_map(node)
    product = node.energy_map()
    oracle.assert_same_map(reference, product)
    key = list(product.energy_j)[1]
    bumped = np.nextafter(product.energy_j[key], np.inf)
    product.energy_j[key] = float(bumped)
    with pytest.raises(AssertionError) as info:
        oracle.assert_same_map(reference, product)
    assert str(key) in str(info.value)
    assert float.hex(float(bumped)) in str(info.value)
    assert float.hex(reference.energy_j[key]) in str(info.value)


# -- selection --------------------------------------------------------------


def test_backend_resolution(monkeypatch):
    # Columnar is the product path; bit-identity makes it invisible to
    # every result.  The environment no longer selects anything.
    monkeypatch.setenv("REPRO_ANALYSIS_BACKEND", "streaming")
    assert resolve_analysis_backend() == "columnar"
    assert resolve_analysis_backend("columnar") == "columnar"
    assert resolve_analysis_backend("streaming") == "streaming"
    with pytest.raises(AnalysisBackendError):
        resolve_analysis_backend("vectorized")
    assert set(ANALYSIS_BACKENDS) == {"streaming", "columnar"}


def test_sweep_backend_digests_match(monkeypatch):
    """A sweep whose every point runs the streaming oracle reports
    byte-identical per-point digests to the product sweep (the
    implementation cannot leak into results), and the header names no
    analysis backend."""
    from repro.sim.sweep import run_sweep

    overrides = {"duration_ns": ["2000000000"]}
    candidate = run_sweep("table3", [0, 1], overrides)
    oracle.install(monkeypatch)
    reference = run_sweep("table3", [0, 1], overrides)
    assert [p.digest for p in reference.points] \
        == [p.digest for p in candidate.points]
    assert reference.digest() == candidate.digest()
    assert candidate.backend is None
    assert "analysis backend" not in candidate.render()


def test_columnar_errors_match_streaming():
    registry = ActivityRegistry()
    case = adversarial_log(0)
    devices = dict(single_res_ids=case.singles, multi_res_ids=case.multis)
    empty = ColumnarTimeline(decode_columns(b""), **devices)
    with pytest.raises(RegressionError, match="no power intervals"):
        columnar_energy_map(empty, [case.regression], registry, {}, [1e-6])
    timeline = ColumnarTimeline(case.columns, **devices)
    with pytest.raises(RegressionError, match="needs a regression"):
        columnar_energy_map(timeline, [None], registry, {}, [1e-6])


# -- logdump iterables ------------------------------------------------------


def test_dump_log_accepts_generator():
    """dump_log consumes generators (no materialized entry list) and
    renders the same text as the list path, counting past the limit."""
    from repro.toolkit.logdump import dump_log

    raw = adversarial_log(9).raw
    entries = decode_log(raw)
    assert len(entries) > 10
    assert dump_log(iter_entries(raw)) == dump_log(entries)
    assert dump_log(iter_entries(raw), limit=10) \
        == dump_log(entries, limit=10)
    assert dump_log(iter_entries(raw), limit=10).endswith("more entries")
