"""Batched multi-seed execution: bit-identity and engine-level gates.

The contract of :class:`repro.sim.batch.BatchSimulator` and the fused
columnar decode (:func:`repro.core.logger.decode_batch_records`) is that
batching is *invisible* in the results: every world's log, analysis, and
rendered output is byte-identical to the same seed run serially.  These
tests gate that contract at three levels:

* every experiment's per-point digests from a batched
  :func:`~repro.sim.sweep.run_sweep` at several K against per-seed
  :func:`run_experiment` (the end-to-end gate);
* the fused decode against per-world solo decode on adversarial inputs
  (ragged world lengths, u32 wraparound straddling world boundaries);
* the BatchSimulator itself: interleaving equivalence, attach/detach
  guards, and leftover hand-back;
* the batch's fused analysis: every sibling's ``breakdown()`` served
  from the one fused pass equals its solo ``breakdown()`` bit for bit,
  and a sibling whose log moved on, whose registry names an activity
  differently, or that was reset, is analysed alone.

One numpy identity the fused analysis leans on is pinned here too:
``np.bincount(idx, weights=w)`` accumulates each bin sequentially in
array order, bit-for-bit like a ``dict.get(key, 0.0) + x`` fold.
"""

import hashlib
import random

import numpy as np
import oracle
import pytest

import repro.experiments.common as common
import repro.tos.node as node_module
from repro.apps.blink import BlinkApp
from repro.core.logger import (
    ENTRY_DTYPE,
    _unwrap_records,
    decode_batch_records,
)
from repro.core.timeline import ColumnarTimeline
from repro.errors import SimulationError
from repro.experiments.common import (
    EXPERIMENT_IDS,
    blink_batch_plan,
    clear_batch_worlds,
    run_blink,
    run_experiment,
)
from repro.hw.platform import PlatformConfig
from repro.sim import sweep as sweep_module
from repro.sim.batch import WORLD_SEQ_STRIDE, BatchSimulator
from repro.sim.engine import Simulator
from repro.units import seconds

SEEDS = (0, 1, 2)


def _digest(result) -> str:
    return hashlib.sha256(result.render().encode("utf-8")).hexdigest()


# -- end-to-end: every experiment, several K ------------------------------


@pytest.fixture(scope="module")
def serial_digests():
    """Per-seed serial digests, computed once per experiment."""
    cache: dict[str, list[str]] = {}

    def get(exp_id: str) -> list[str]:
        if exp_id not in cache:
            cache[exp_id] = [
                _digest(run_experiment(exp_id, seed=seed)) for seed in SEEDS]
        return cache[exp_id]

    return get


def _batched_digests(monkeypatch, exp_id, seeds, k):
    """Per-point digests of an in-process sweep at ``batch=k``, with the
    retry budget at 0 so a batched point that raises fails the test
    instead of being re-run unbatched."""
    monkeypatch.setattr(sweep_module, "DEFAULT_POINT_RETRIES", 0)
    result = sweep_module.run_sweep(exp_id, seeds, batch=k)
    return [point.digest for point in result.points]


@pytest.mark.parametrize("k", [1, 2, 7])
@pytest.mark.parametrize("exp_id", EXPERIMENT_IDS)
def test_run_batch_matches_serial(exp_id, k, serial_digests, monkeypatch):
    """A sweep batched K worlds at a time reproduces every per-seed
    serial digest exactly — for every experiment, including the ones
    that never enter the batched blink path (they must pass through
    unchanged)."""
    assert _batched_digests(monkeypatch, exp_id, SEEDS, k) \
        == serial_digests(exp_id)


def test_full_width_batch_matches_serial(monkeypatch):
    """A full K=7 chunk of 7 worlds on the blink path (table3), so the
    shared queue actually interleaves seven worlds at once."""
    seeds = range(7)
    serial = [_digest(run_experiment("table3", seed=s)) for s in seeds]
    assert _batched_digests(monkeypatch, "table3", seeds, 7) == serial


# -- fused decode vs solo decode ------------------------------------------


def _random_log(rng: random.Random, n: int) -> np.ndarray:
    """A synthetic raw log: u32 time/ic fields that wrap mid-log."""
    records = np.zeros(n, dtype=ENTRY_DTYPE)
    # Walk unwrapped 64-bit counters upward in big erratic steps so the
    # stored u32 fields wrap at unpredictable rows (possibly row 0).
    t = rng.randrange(0, 1 << 33)
    ic = rng.randrange(0, 1 << 33)
    for i in range(n):
        records["type"][i] = rng.randrange(0, 8)
        records["res_id"][i] = rng.randrange(0, 16)
        records["time"][i] = t & 0xFFFFFFFF
        records["ic"][i] = ic & 0xFFFFFFFF
        records["value"][i] = rng.randrange(0, 1 << 16)
        t += rng.randrange(0, 1 << 31)
        ic += rng.randrange(0, 1 << 31)
    return records


@pytest.mark.parametrize("trial", range(20))
def test_fused_decode_matches_solo(trial):
    """decode_batch_records over ragged concatenated worlds ==
    per-world _unwrap_records, bit for bit — including worlds whose
    boundary rows look like a wrap (next world starts below the
    previous world's last u32 value) and empty worlds anywhere."""
    rng = random.Random(0xBA7C4 + trial)
    counts = [rng.choice([0, 1, 2, rng.randrange(3, 40)])
              for _ in range(rng.randrange(1, 6))]
    worlds = [_random_log(rng, n) for n in counts]
    fused = decode_batch_records(np.concatenate(worlds), counts)
    assert len(fused) == len(worlds)
    for got, raw in zip(fused, worlds):
        want = _unwrap_records(raw)
        np.testing.assert_array_equal(got.type, want.type)
        np.testing.assert_array_equal(got.res_id, want.res_id)
        np.testing.assert_array_equal(got.time_ns, want.time_ns)
        np.testing.assert_array_equal(got.icount, want.icount)
        np.testing.assert_array_equal(got.value, want.value)


def test_fused_decode_rejects_bad_counts():
    records = _random_log(random.Random(7), 5)
    with pytest.raises(Exception):
        decode_batch_records(records, [2, 2])


# -- BatchSimulator: interleaving equivalence and guards ------------------


def _schedule_probe(sim: Simulator, trace: list, label: str) -> None:
    """A little self-rescheduling workload with same-time FIFO ties."""

    def tick(step: int) -> None:
        trace.append((sim.now, label, step))
        if step < 5:
            sim.after(0 if step % 2 else 700, tick, step + 1)

    sim.at(100, tick, 0)
    sim.at(100, tick, 100)  # same-timestamp FIFO tie


def test_batch_run_matches_solo_runs():
    """Each attached world's (time, order) trace equals its solo run."""
    solo_traces = []
    for label in ("a", "b", "c"):
        sim = Simulator()
        trace: list = []
        _schedule_probe(sim, trace, label)
        sim.run(until=10_000)
        solo_traces.append(trace)
        assert sim.now == 10_000

    sims = [Simulator() for _ in range(3)]
    traces: list[list] = [[] for _ in sims]
    batch = BatchSimulator(sims)
    batch.attach()
    for sim, trace, label in zip(sims, traces, "abc"):
        _schedule_probe(sim, trace, label)
    batch.run(until=10_000)
    batch.detach()
    assert traces == solo_traces
    for sim in sims:
        assert sim.now == 10_000
        assert sim._batch is None


def test_attach_assigns_disjoint_seq_ranges():
    sims = [Simulator() for _ in range(2)]
    batch = BatchSimulator(sims)
    batch.attach()
    assert sims[0]._seq == 0
    assert sims[1]._seq == WORLD_SEQ_STRIDE
    batch.detach()


def test_attach_guards():
    with pytest.raises(SimulationError):
        BatchSimulator([])
    sim = Simulator()
    with pytest.raises(SimulationError):
        BatchSimulator([sim, sim])  # duplicate world
    sim.at(10, lambda: None)
    with pytest.raises(SimulationError):
        BatchSimulator([sim]).attach()  # queued events
    fresh = Simulator()
    batch = BatchSimulator([fresh])
    batch.attach()
    with pytest.raises(SimulationError):
        batch.attach()  # double attach
    with pytest.raises(SimulationError):
        BatchSimulator([fresh]).attach()  # already in a batch
    batch.detach()
    with pytest.raises(SimulationError):
        batch.detach()  # double detach


def test_attached_world_refuses_solo_drive():
    sim = Simulator()
    batch = BatchSimulator([sim])
    batch.attach()
    with pytest.raises(SimulationError):
        sim.run(until=100)
    with pytest.raises(SimulationError):
        sim.reset()
    batch.detach()
    sim.run(until=100)  # detached world is a plain simulator again


def test_detach_hands_back_leftovers():
    """Events still queued at detach time fire on the world's own next
    run, in the same order a serial run would have fired them."""
    solo = Simulator()
    solo_trace: list = []
    _schedule_probe(solo, solo_trace, "w")
    solo.run(until=10_000)

    sim = Simulator()
    trace: list = []
    batch = BatchSimulator([sim])
    batch.attach()
    _schedule_probe(sim, trace, "w")
    batch.run(until=150)  # stop mid-workload; leftovers still queued
    batch.detach()
    assert sim.pending() > 0
    sim.run(until=10_000)
    assert trace == solo_trace


# -- the batch's fused analysis -------------------------------------------

#: The table3 noise configurations a sweep batches.
TABLE3_CONFIGS = {
    "noise-free": {},
    "variation": {"device_variation": 0.02},
    "jitter": {"icount_jitter_pulses": 1.0},
    "gain-error": {"icount_gain_error": 0.01},
}

BATCH_SEEDS = (0, 1, 2, 3)


def _blink(seed, config):
    """``run_blink`` the way table3 calls it for ``config``."""
    kwargs = {"platform": PlatformConfig(**config)} if config else {}
    return run_blink(seed, **kwargs)[0]


def _batch_nodes(config):
    """The finished worlds of one batch of :data:`BATCH_SEEDS`, as sweep
    points receive them: simulated together, logs closed, decoded in one
    pass and linked as siblings."""
    clear_batch_worlds()
    with blink_batch_plan(BATCH_SEEDS):
        return [_blink(seed, config) for seed in BATCH_SEEDS]


def _solo(node):
    """``breakdown()`` of the node's closed log analysed alone: a fresh
    one-log timeline, its regression and map."""
    timeline = ColumnarTimeline(
        node.logger.columns(), end_time_ns=node.sim.now,
        single_res_ids=node.single_res_ids,
        multi_res_ids=node.multi_res_ids)
    regression = node.regression(timeline)
    return regression, node.energy_map(timeline, regression)


def _assert_same_breakdown(want, got):
    """Regression and map equal bit for bit: float bits and order."""
    (want_reg, want_map), (got_reg, got_map) = want, got
    assert [(name, float.hex(p)) for name, p in got_reg.power_w.items()] \
        == [(name, float.hex(p)) for name, p in want_reg.power_w.items()]
    assert float.hex(got_reg.const_power_w) \
        == float.hex(want_reg.const_power_w)
    assert got_reg.y.tobytes() == want_reg.y.tobytes()
    assert got_reg.y_hat.tobytes() == want_reg.y_hat.tobytes()
    oracle.assert_same_map(want_map, got_map)


@pytest.fixture
def builds(monkeypatch):
    """The log count of every timeline the node layer builds."""
    counts = []
    real = node_module.ColumnarTimeline

    def counted(*args, **kwargs):
        timeline = real(*args, **kwargs)
        counts.append(timeline.n_logs)
        return timeline

    monkeypatch.setattr(node_module, "ColumnarTimeline", counted)
    return counts


@pytest.mark.parametrize("config", TABLE3_CONFIGS.values(),
                         ids=TABLE3_CONFIGS)
def test_batch_breakdowns_equal_solo_breakdowns(config, builds):
    """The first sibling's ``breakdown()`` analyses the whole batch in
    one timeline build and one fold and parks each sibling's result;
    every result equals the same seed's serial ``breakdown()``."""
    clear_batch_worlds()
    serial = [_blink(seed, config).breakdown() for seed in BATCH_SEEDS]
    nodes = _batch_nodes(config)
    del builds[:]
    first = nodes[0].breakdown()
    assert builds == [len(nodes)]
    assert all(node._parked is not None for node in nodes[1:])
    got = [first, *(node.breakdown() for node in nodes[1:])]
    assert builds == [len(nodes)]
    for want, have in zip(serial, got):
        _assert_same_breakdown(want, have)


def test_batch_fuses_under_the_benchmark_tracer(monkeypatch, builds):
    """The benchmark's tracer swaps ``repro.experiments.common``'s
    ``QuantoNode`` for a plain function that builds one: the batch path
    must still link its worlds and fuse their analysis."""
    real = common.QuantoNode
    monkeypatch.setattr(common, "QuantoNode",
                        lambda *args, **kwargs: real(*args, **kwargs))
    nodes = _batch_nodes(TABLE3_CONFIGS["noise-free"])
    del builds[:]
    for node in nodes:
        node.breakdown()
    assert builds == [len(nodes)]


def test_sibling_whose_log_moved_on_is_analysed_alone(builds):
    """A sibling whose log grew after the batch stays out of the fused
    pass, which leaves its world untouched, and is analysed alone."""
    nodes = _batch_nodes(TABLE3_CONFIGS["variation"])
    moved = nodes[2]
    moved.sim.run(until=moved.sim.now + seconds(1))
    state = (moved.logger.records_written, moved.sim.now)
    del builds[:]
    nodes[0].breakdown()
    assert builds == [len(nodes) - 1]
    assert (moved.logger.records_written, moved.sim.now) == state
    assert moved._parked is None
    got = moved.breakdown()
    _assert_same_breakdown(_solo(moved), got)


def test_parked_result_is_served_only_to_the_log_it_analysed():
    """A sibling whose log grew after the fused pass parked its result
    is analysed afresh."""
    nodes = _batch_nodes(TABLE3_CONFIGS["variation"])
    nodes[0].breakdown()
    later = nodes[1]
    assert later._parked is not None
    later.sim.run(until=later.sim.now + seconds(1))
    got = later.breakdown()
    _assert_same_breakdown(_solo(later), got)


def test_sibling_with_other_activity_names_is_analysed_alone(builds):
    """A sibling whose registry names an activity differently gets a
    pass of its own, and its own names."""
    nodes = _batch_nodes(TABLE3_CONFIGS["noise-free"])
    odd = nodes[1]
    names, next_id = odd.registry.snapshot_state()
    names[odd.registry.register("Red")] = "Rouge"
    odd.registry.restore_state((names, next_id))
    del builds[:]
    nodes[0].breakdown()
    assert builds == [len(nodes) - 1, 1]
    got = odd.breakdown()
    assert "1:Rouge" in got[1].activities()
    _assert_same_breakdown(_solo(odd), got)


def _rerun(node, seed):
    """Reset the node and run Blink on it again, as long as table3 does,
    its log closed; returns its (record count, end time)."""
    node.reset(seed=seed)
    node.boot(BlinkApp().start)
    node.sim.run(until=seconds(48))
    node.mark_log_end()
    return node.logger.records_written, node.sim.now


def test_reset_unlinks_the_node_and_drops_its_parked_result(builds):
    """A reset world leaves its batch, and a reset drops a parked
    result, even when the next run's log ends with the same record
    count and time as the one the batch left."""
    nodes = _batch_nodes(TABLE3_CONFIGS["variation"])
    left = nodes[2]
    batch_key = (left.logger.records_written, left.sim.now)
    assert _rerun(left, seed=98) == batch_key
    del builds[:]
    nodes[0].breakdown()
    assert builds == [len(nodes) - 1]
    node = nodes[1]
    parked_key = node._parked[:2]
    assert _rerun(node, seed=99) == parked_key
    assert node._parked is None
    for rerun in (node, left):
        _assert_same_breakdown(_solo(rerun), rerun.breakdown())


# -- the numpy identity the fused fold relies on --------------------------


def test_bincount_weights_accumulate_sequentially():
    """np.bincount(idx, weights=w) must equal the sequential
    ``dict.get(bin, 0.0) + w`` fold bit-for-bit (same addition order per
    bin, same +0.0 start) — the fused energy fold depends on it."""
    rng = random.Random(99)
    idx = [rng.randrange(0, 7) for _ in range(500)]
    w = [rng.uniform(-1e-9, 1e-9) * (10 ** rng.randrange(0, 10))
         for _ in range(500)]
    # Signed-zero start: a bin fed only -0.0 must still total +0.0.
    idx += [3, 3]
    w += [-0.0, -0.0]
    folded: dict[int, float] = {}
    for i, x in zip(idx, w):
        folded[i] = folded.get(i, 0.0) + x
    binned = np.bincount(
        np.asarray(idx, dtype=np.intp),
        weights=np.asarray(w, dtype=np.float64), minlength=7)
    for i, total in folded.items():
        got = float(binned[i])
        assert (got == total
                and np.signbit(got) == np.signbit(total)), (i, got, total)
