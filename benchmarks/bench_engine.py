"""Engine/pipeline throughput baseline: the perf-trajectory benchmark.

Measures the numbers that the simulator and analysis fast paths are
judged by and writes them to ``results/BENCH_engine.json`` so future PRs
have a machine-readable baseline:

* ``engine_events_per_sec`` — raw calendar-queue throughput on a
  synthetic workload (bursty same-instant events, far-future timer arms,
  cancellations);
* ``analysis_entries_per_sec`` — decode → cover → attribute throughput
  of the offline analysis over a real Blink log, for the columnar
  product path and the streaming reference, plus
  ``analysis_speedup_columnar``;
  the two maps are asserted bit-identical before any speedup is
  reported;
* ``network_analysis_entries_per_sec`` — timeline build plus fold over
  every node log of one 6-node ``ext_collection`` star point, in the
  fused multi-log pass ``QuantoNode.breakdown_all`` runs (one
  ``ColumnarTimeline`` of all logs, one ``columnar_energy_map``); its
  maps are asserted bit-identical to the per-node path first;
* ``windowed_entries_per_sec`` — live-path throughput
  (``NodeSession.ingest`` on 1021-byte chunks: columnar decode and the
  batched windowed fold at a 1 s stride), the per-node cost of the
  ingest server; the served map is asserted bit-identical to the
  offline map first;
* ``windowed_stream_entries_per_sec`` — the same live path on the
  shape the ingest server sees under load: one ``serve-ingest``-shaped
  collection node log (~12k entries, 1 s stride) fed in 37 KB reads,
  each folded as its own batch and closing several windows, so both
  the per-batch and the per-window cost of the fold show; the served
  map is asserted bit-identical to the offline map first;
* ``serve_recovery_ms`` — wall time for the durable ingest path to
  rebuild one node session from its checkpoint + journal-tail replay
  (a half-log tail, the post-SIGKILL shape).  Recorded, not gated;
* ``serve_checkpoint_bytes`` — the size of that mid-stream checkpoint
  file: a deterministic count, so checkpoint format bloat shows.
  Recorded, not gated;
* ``sweep_points_per_sec_serial`` — end-to-end table3 points per second
  on the 64-point reference grid with batching off (``batch=1``): the
  strict one-world-at-a-time reference;
* ``batched_points_per_sec`` — the same grid through the default
  in-process executor (K worlds per batch on one shared event queue,
  fused log decode); this is what a plain ``--jobs 1`` sweep now
  delivers, and the headline number the regression gate watches;
* ``sweep_points_per_sec_cached`` — the same grid folded entirely from
  a warm packed shard store (cache-hit throughput; the marginal cost of
  a fully cached campaign, also gated);
* ``parallel_speedup_jobs2`` — wall-clock speedup of the same grid at
  ``--jobs 2``.  Only meaningful with >= 2 usable cores: the JSON
  records ``cpu_count``/``usable_cpus``, ``--check`` gates the speedup
  (>= 1.5x) **only** on a multi-core host, and a single-core box
  records the number without judging it.
* ``src_loc`` — lines in ``src/repro/**/*.py``: code size as a
  tracked number.  Recorded, not gated.

Every timing is the **median of 3** independent runs, with the relative
spread ``(max - min) / median`` recorded alongside — a single-shot
number on a busy host is measurement noise (the pre-PR-4 baseline
reported a 1.195x "parallel speedup" on a 1-CPU container).

``--check`` compares fresh serial/batched throughput, columnar-analysis,
network-analysis and both live-ingest (windowed) measurements against the
committed baseline and exits nonzero if any regressed by more than the
tolerance (default 25 %, the CI gate).  Each failed gate is printed with
the host slowdown: ledgerbench's reference loop time
(``ledgerbench/hostspeed.py``) over the reference host's, so a failure
on a slowed host (slowdown well above 1) reads apart from one where the
code moved (slowdown near 1).  ``--check-parallel`` runs only the sweep
grid and gates the ``--jobs 2`` speedup against the multi-core floor —
the taskset-pinned CI leg that proves the pool actually scales when
cores exist.
Runnable standalone (``PYTHONPATH=src python benchmarks/bench_engine.py
[--check|--check-parallel]``) or via pytest.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

from repro.core.accounting import columnar_energy_map, stream_energy_map
from repro.core.logger import decode_columns, iter_entries
from repro.core.timeline import ColumnarTimeline
from repro.sim.engine import NEAR_WINDOW_NS, Simulator
from repro.sim.sweep import run_sweep
from repro.units import seconds

sys.path.append(str(Path(__file__).resolve().parent.parent / "ledgerbench"))
from hostspeed import REFERENCE_MS, loop_s  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "repro"
BASELINE_PATH = RESULTS_DIR / "BENCH_engine.json"

#: The reference sweep grid: 64 table3 points with the paper's noise
#: sources on (full-length runs, so the campaign is realistic work).
#: benchmarks/bench_sweep.py imports these — keep the grid defined once.
SWEEP_SEEDS = range(64)
SWEEP_OVERRIDES = {
    "duration_ns": [str(seconds(48))],
    "device_variation": ["0.02"],
    "icount_jitter_pulses": ["1.0"],
}

#: Gated throughputs may regress by at most this factor before --check
#: fails (the CI gate; override with REPRO_BENCH_TOLERANCE).
DEFAULT_TOLERANCE = 0.25

#: Minimum --jobs 2 wall-clock speedup required on a host with >= 2
#: usable cores (override with REPRO_BENCH_PARALLEL_FLOOR).  A 1-CPU
#: host records the speedup without gating it — two workers sharing one
#: core can only lose to the serial run.
PARALLEL_SPEEDUP_FLOOR = 1.5

#: Independent timing runs per metric; the median is reported.
REPEATS = 3


def _usable_cpus() -> int:
    """Cores this process may actually run on: the scheduling affinity
    mask where the platform exposes one (so a taskset-pinned or
    containerized run reports its real allowance), else cpu_count."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            usable = len(affinity(0))
            if usable > 0:
                return usable
        except OSError:  # pragma: no cover - platform quirk
            pass
    return os.cpu_count() or 1


def _median_spread(samples: list[float]) -> tuple[float, float]:
    """Median plus relative spread ``(max - min) / median`` — the
    honest way to report a timing on a shared host."""
    median = statistics.median(samples)
    spread = (max(samples) - min(samples)) / median if median else 0.0
    return median, spread


def host_slowdown(rounds: int = 5) -> float:
    """How many times slower than the reference host this host runs
    the reference loop now (median of ``rounds`` runs)."""
    return statistics.median(loop_s() for _ in range(rounds)) * 1e3 \
        / REFERENCE_MS


def src_loc() -> int:
    """Lines of Python under ``src/repro``."""
    return sum(len(path.read_text("utf-8").splitlines())
               for path in SRC_DIR.rglob("*.py"))


def bench_engine_events(total: int = 60_000) -> float:
    """Raw scheduler throughput: a synthetic mix of same-instant bursts,
    short hops, far-future arms, and cancellations."""
    sim = Simulator()
    fired = [0]

    def hop(step: int) -> None:
        fired[0] += 1
        if fired[0] >= total:
            return
        # A burst at the same instant, a short hop, and a far arm whose
        # predecessor gets cancelled — the regimes the calendar queue
        # splits between buckets and the overflow heap.
        sim.call_now(lambda: None)
        doomed = sim.after(2 * NEAR_WINDOW_NS, lambda: None)
        doomed.cancel()
        sim.after(step % 997 + 1, hop, step + 1)

    sim.after(1, hop, 0)
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    return sim.events_executed / wall


def _analysis_workload():
    """One Blink run plus everything the analysis phase needs."""
    from repro.experiments.common import run_blink
    from repro.tos.node import COMPONENT_NAMES

    node, _, _sim = run_blink(0, duration_ns=seconds(48))
    timeline = node.timeline()  # marks the log end
    regression = node.regression(timeline)
    raw = node.logger.raw_bytes()
    kwargs = dict(
        fold_proxies=False,
        idle_name=node.registry.name_of(node.idle),
        end_time_ns=timeline.end_time_ns,
        single_res_ids=timeline.single_device_ids(),
        multi_res_ids=timeline.multi_device_ids(),
    )
    args = (regression, node.registry, COMPONENT_NAMES,
            node.platform.icount.nominal_energy_per_pulse_j)
    return raw, args, kwargs


def bench_analysis(rounds: int = 20) -> dict:
    """Decode → cover → attribute entries/s: the columnar product path
    against the streaming reference.

    Each round starts from the packed log bytes (decode included) and
    runs to a finished :class:`EnergyMap` — the whole reconstruction a
    sweep point pays per log.  The two maps are asserted equal
    before any speedup is published.
    """
    raw, args, kwargs = _analysis_workload()
    entry_count = len(raw) // 12

    def run_streaming():
        return stream_energy_map(iter_entries(raw), *args, **kwargs)

    def run_columnar():
        regression, registry, names, per_pulse = args
        timeline = ColumnarTimeline(
            decode_columns(bytes(raw)), end_time_ns=kwargs["end_time_ns"],
            single_res_ids=kwargs["single_res_ids"],
            multi_res_ids=kwargs["multi_res_ids"])
        (emap,) = columnar_energy_map(
            timeline, [regression], registry, names, [per_pulse],
            fold_proxies=kwargs["fold_proxies"],
            idle_names=[kwargs["idle_name"]])
        return emap

    reference = run_streaming()
    candidate = run_columnar()
    assert list(reference.energy_j) == list(candidate.energy_j) \
        and reference.energy_j == candidate.energy_j, \
        "columnar map diverged from the streaming reference — fix " \
        "before benchmarking"

    throughputs: dict[str, list[float]] = {"streaming": [], "columnar": []}
    for _ in range(REPEATS):
        for name, fn in (("streaming", run_streaming),
                         ("columnar", run_columnar)):
            start = time.perf_counter()
            for _round in range(rounds):
                fn()
            wall = time.perf_counter() - start
            throughputs[name].append(entry_count * rounds / wall)
    medians = {}
    spreads = {}
    for name, samples in throughputs.items():
        medians[name], spreads[name] = _median_spread(samples)
    return {
        "analysis_entries_per_sec": {k: round(v) for k, v in medians.items()},
        "analysis_entries_per_sec_spread": {
            k: round(v, 3) for k, v in spreads.items()},
        "analysis_speedup_columnar": round(
            medians["columnar"] / medians["streaming"], 3),
        "log_entry_count": entry_count,
    }


def _network_workload():
    """The node logs of one 6-node ``ext_collection`` star point (seed
    5, 30 s), each closed right after its own log-end mark, with the
    per-log inputs of the fold."""
    from repro.apps.collection import build_star_topology
    from repro.tos.network import Network
    from repro.tos.node import NodeConfig, QuantoNode

    node_ids = list(range(10, 16))
    network = Network(seed=5)
    for node_id in node_ids:
        network.add_node(NodeConfig(node_id=node_id, mac="csma"))
    apps = build_star_topology(network, node_ids, root_id=node_ids[0],
                               sample_period_ns=seconds(4))
    network.boot_all({nid: app.start for nid, app in apps.items()})
    network.run(seconds(30))
    nodes = [network.node(node_id) for node_id in node_ids]
    analyses = QuantoNode.breakdown_all(nodes)
    timelines = [analysis.timeline for analysis in analyses]
    return nodes, timelines, [analysis.regression for analysis in analyses]


def bench_network_analysis(rounds: int = 20) -> dict:
    """Timeline build + fold entries/s over every log of a network point:
    one ``ColumnarTimeline`` of all six logs and one
    ``columnar_energy_map`` into six maps, regressions given.  The maps
    are asserted bit-identical to the per-node path (one timeline and
    one fold per log) before anything is timed."""
    from repro.tos.node import COMPONENT_NAMES

    nodes, timelines, regressions = _network_workload()
    registry = nodes[0].registry
    devices = dict(
        end_time_ns=[t.end_time_ns for t in timelines],
        single_res_ids=[t.single_device_ids() for t in timelines],
        multi_res_ids=[t.multi_device_ids() for t in timelines])
    pulse_j = [node.platform.icount.nominal_energy_per_pulse_j
               for node in nodes]
    idle_names = [registry.name_of(node.idle) for node in nodes]
    entry_count = sum(len(t.columns) for t in timelines)

    def run_fused():
        fused = ColumnarTimeline([t.columns for t in timelines], **devices)
        return columnar_energy_map(
            fused, regressions, registry, COMPONENT_NAMES, pulse_j,
            fold_proxies=True, idle_names=idle_names)

    def run_per_node():
        return [
            columnar_energy_map(
                ColumnarTimeline(
                    t.columns, end_time_ns=t.end_time_ns,
                    single_res_ids=t.single_device_ids(),
                    multi_res_ids=t.multi_device_ids()),
                [regression], registry, COMPONENT_NAMES, [per_pulse],
                fold_proxies=True, idle_names=[idle])[0]
            for t, regression, per_pulse, idle in zip(
                timelines, regressions, pulse_j, idle_names)]

    def bits(emap):
        return ([(key, value.hex()) for key, value in emap.energy_j.items()],
                list(emap.time_ns.items()), emap.span_ns,
                emap.metered_energy_j.hex(),
                emap.reconstructed_energy_j.hex())

    assert [bits(m) for m in run_fused()] \
        == [bits(m) for m in run_per_node()], \
        "fused network maps diverged from the per-node path — fix " \
        "before benchmarking"
    samples: list[float] = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _round in range(rounds):
            run_fused()
        wall = time.perf_counter() - start
        samples.append(entry_count * rounds / wall)
    median, spread = _median_spread(samples)
    return {
        "network_analysis_entries_per_sec": round(median),
        "network_analysis_entries_per_sec_spread": round(spread, 3),
        "network_log_entry_count": entry_count,
    }


def bench_windowed(rounds: int = 20) -> dict:
    """Live-path throughput: the per-node work the ingest server runs,
    :meth:`NodeSession.ingest` decoding each chunk into columns and
    folding them through the windowed accumulator at a 1 s stride.
    Each round replays the packed Blink log in 1021-byte chunks (a
    prime, so entry boundaries drift through every offset) through a
    fresh session, and the final map is asserted bit-identical to the
    offline streaming map before any number is published."""
    from repro.core.accounting import build_energy_map
    from repro.experiments.common import run_blink
    from repro.serve import NodeSession, hello_for_node
    from repro.tos.node import COMPONENT_NAMES

    stride_ns = int(seconds(1))
    chunk = 1021
    node, _, _sim = run_blink(0, duration_ns=seconds(48))
    timeline = node.timeline()  # marks the log end
    regression = node.regression(timeline)
    hello = hello_for_node(node, stride_ns=stride_ns, timeline=timeline,
                           regression=regression)
    raw = bytes(node.logger.raw_bytes())
    entry_count = len(raw) // 12

    def run_windowed():
        session = NodeSession(hello, retain=None)
        for offset in range(0, len(raw), chunk):
            session.ingest(raw[offset:offset + chunk])
        return session.finish()

    reference = build_energy_map(
        timeline, regression, node.registry, COMPONENT_NAMES,
        node.platform.icount.nominal_energy_per_pulse_j,
        idle_name=node.registry.name_of(node.idle), backend="streaming")
    served = run_windowed()
    assert list(served.energy_j) == list(reference.energy_j) \
        and served.energy_j == reference.energy_j, \
        "served map diverged from batch — fix before benchmarking"

    samples: list[float] = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _round in range(rounds):
            run_windowed()
        wall = time.perf_counter() - start
        samples.append(entry_count * rounds / wall)
    median, spread = _median_spread(samples)
    return {
        "windowed_entries_per_sec": round(median),
        "windowed_entries_per_sec_spread": round(spread, 3),
        "windowed_stride_ns": stride_ns,
    }


#: Bytes per read in :func:`bench_windowed_stream`: about what the
#: ingest server's 64 KB socket reads return under the ``serve-ingest``
#: load (a 1021-byte chunked client, a few reads per 140 KB stream).
STREAM_READ_BYTES = 37 * 1024


def _stream_workload():
    """One node log shaped like the ``serve-ingest`` benchmark's: node
    11 of a seeded 4-node collection line (30 s, 1 s samples, 2 %
    device variation), closed right after its own log-end mark, with
    its hello (1 s stride) and offline map."""
    from repro.apps.collection import build_line_topology
    from repro.core.accounting import build_energy_map
    from repro.hw.platform import PlatformConfig
    from repro.serve import hello_for_node
    from repro.tos.network import Network
    from repro.tos.node import COMPONENT_NAMES, NodeConfig

    network = Network(seed=0)
    node_ids = [10, 11, 12, 13]
    for node_id in node_ids:
        network.add_node(NodeConfig(
            node_id=node_id, mac="csma",
            platform=PlatformConfig(device_variation=0.02)))
    apps = build_line_topology(network, node_ids, root_id=node_ids[0],
                               sample_period_ns=seconds(1))
    network.boot_all({nid: app.start for nid, app in apps.items()})
    network.run(seconds(30))
    node = network.node(11)
    timeline = node.timeline()  # marks the log end
    regression = node.regression(timeline)
    hello = hello_for_node(node, stride_ns=int(seconds(1)),
                           timeline=timeline, regression=regression)
    offline = build_energy_map(
        timeline, regression, node.registry, COMPONENT_NAMES,
        node.platform.icount.nominal_energy_per_pulse_j,
        idle_name=node.registry.name_of(node.idle))
    return hello, bytes(node.logger.raw_bytes()), offline


def bench_windowed_stream(rounds: int = 10) -> dict:
    """Live-path throughput on a ``serve-ingest``-shaped stream:
    :meth:`NodeSession.ingest` on :data:`STREAM_READ_BYTES` reads of
    one ~12k-entry collection node log at a 1 s stride.  Each read
    folds as one batch closing several windows, and the rest folds at
    ``finish``.  The served map is asserted bit-identical to the
    offline map before any number is published."""
    from repro.serve import NodeSession

    hello, raw, offline = _stream_workload()
    entry_count = len(raw) // 12

    def run_stream():
        session = NodeSession(hello, retain=64)
        for offset in range(0, len(raw), STREAM_READ_BYTES):
            session.ingest(raw[offset:offset + STREAM_READ_BYTES])
        return session.finish()

    served = run_stream()
    assert list(served.energy_j) == list(offline.energy_j) \
        and served.energy_j == offline.energy_j \
        and served.time_ns == offline.time_ns, \
        "served map diverged from batch — fix before benchmarking"

    samples: list[float] = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _round in range(rounds):
            run_stream()
        wall = time.perf_counter() - start
        samples.append(entry_count * rounds / wall)
    median, spread = _median_spread(samples)
    return {
        "windowed_stream_entries_per_sec": round(median),
        "windowed_stream_entries_per_sec_spread": round(spread, 3),
        "windowed_stream_entry_count": entry_count,
    }


def bench_serve_recovery(rounds: int = 5) -> dict:
    """Crash-recovery latency of the durable ingest path: wall time for
    :meth:`NodeSession.restore` to rebuild one node from its checkpoint
    plus journal-tail replay — the in-process cousin of the serve chaos
    job's restart-to-listening measurement.  The state dir is prepared
    the way a SIGKILLed server leaves it: a full WAL and a checkpoint
    from roughly mid-stream, so every restore pays a real half-log
    replay.  The restored accounting is asserted bit-identical to the
    uninterrupted session before the number is reported."""
    import tempfile

    from repro.experiments.common import run_blink
    from repro.serve import NodeJournal, NodeSession, hello_for_node

    node, _, _sim = run_blink(0, duration_ns=seconds(48))
    hello = hello_for_node(node, stride_ns=int(seconds(1)))
    raw = bytes(node.logger.raw_bytes())
    chunk = 1021
    with tempfile.TemporaryDirectory(prefix="bench-serve-recover-") as root:
        journal = NodeJournal(root, node.node_id)
        journal.create(hello)
        live = NodeSession(hello, retain=64, journal=journal)
        for at in range(0, len(raw), chunk):
            piece = raw[at:at + chunk]
            journal.append_chunk(piece)
            live.ingest(piece)
            if live.checkpointed_bytes == 0 \
                    and live.bytes_received >= len(raw) // 2:
                journal.write_checkpoint(live.checkpoint_state())
                live.checkpointed_bytes = live.bytes_received
        journal.close()
        checkpoint_bytes = journal.checkpoint_path.stat().st_size

        restored = NodeSession.restore(root, node.node_id, retain=64)
        restored.journal.close()
        assert restored.bytes_received == len(raw)
        assert restored.finish().energy_j == live.finish().energy_j, \
            "restored session diverged from live — fix before benchmarking"

        samples: list[float] = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            for _round in range(rounds):
                again = NodeSession.restore(root, node.node_id, retain=64)
                again.journal.close()
            samples.append((time.perf_counter() - start) / rounds * 1e3)
    median, spread = _median_spread(samples)
    return {
        "serve_recovery_ms": round(median, 2),
        "serve_recovery_ms_spread": round(spread, 3),
        "serve_recovery_log_bytes": len(raw),
        "serve_checkpoint_bytes": checkpoint_bytes,
    }


def bench_sweep_grid() -> tuple[float, float, float, str]:
    """(serial, batched, jobs=2-speedup, digest) on the 64-point grid.

    Serial forces ``batch=1`` (one world at a time — the strict
    reference); batched is the default in-process executor (K worlds
    per shared queue, fused decode); parallel is the jobs=2 pool over
    the batched executor.  All three runs must report the same sweep
    digest — batching and pooling change wall time only.
    """
    serial = run_sweep("table3", SWEEP_SEEDS, SWEEP_OVERRIDES,
                       jobs=1, batch=1)
    batched = run_sweep("table3", SWEEP_SEEDS, SWEEP_OVERRIDES, jobs=1)
    parallel = run_sweep("table3", SWEEP_SEEDS, SWEEP_OVERRIDES, jobs=2)
    assert serial.digest() == batched.digest(), \
        "batched sweep diverged from serial reference"
    assert serial.digest() == parallel.digest(), \
        "parallel sweep diverged from serial reference"
    speedup = batched.wall_s / parallel.wall_s if parallel.wall_s else 0.0
    return (len(serial.points) / serial.wall_s,
            len(batched.points) / batched.wall_s,
            speedup, serial.digest())


def bench_cached_sweep(reference_digest: str) -> float:
    """Cache-hit points/sec: the 64-point grid folded from a warm packed
    shard store (one populating run, then a fully cached rerun).  The
    cached fold must reproduce the fresh run's sweep digest exactly —
    that identity is asserted before the number is reported."""
    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench-sweep-cache-") as root:
        populate = run_sweep("table3", SWEEP_SEEDS, SWEEP_OVERRIDES,
                             jobs=1, cache_dir=root)
        assert populate.digest() == reference_digest, \
            "populating run diverged from the uncached reference"
        cached = run_sweep("table3", SWEEP_SEEDS, SWEEP_OVERRIDES,
                           jobs=1, cache_dir=root)
        assert cached.cache_hits == len(cached.points), \
            "cached rerun re-simulated points — cache keys unstable"
        assert cached.digest() == reference_digest, \
            "cached fold diverged from the fresh sweep"
        return len(cached.points) / cached.wall_s


def run_benchmarks() -> dict:
    events_median, events_spread = _median_spread(
        [bench_engine_events() for _ in range(REPEATS)])
    analysis = bench_analysis()
    network = bench_network_analysis()
    windowed = bench_windowed()
    windowed.update(bench_windowed_stream())
    recovery = bench_serve_recovery()
    points_samples: list[float] = []
    batched_samples: list[float] = []
    speedup_samples: list[float] = []
    digest = None
    for _ in range(REPEATS):
        points_per_sec, batched_per_sec, speedup, run_digest = \
            bench_sweep_grid()
        points_samples.append(points_per_sec)
        batched_samples.append(batched_per_sec)
        speedup_samples.append(speedup)
        assert digest is None or digest == run_digest, \
            "sweep digest unstable across repeats — determinism break"
        digest = run_digest
    points_median, points_spread = _median_spread(points_samples)
    batched_median, batched_spread = _median_spread(batched_samples)
    speedup_median, speedup_spread = _median_spread(speedup_samples)
    cached_median, cached_spread = _median_spread(
        [bench_cached_sweep(digest) for _ in range(REPEATS)])
    from repro.sim.sweep import resolve_batch
    numbers = {
        "timing": f"median of {REPEATS}",
        "engine_events_per_sec": round(events_median),
        "engine_events_per_sec_spread": round(events_spread, 3),
        "sweep_points_per_sec_serial": round(points_median, 2),
        "sweep_points_per_sec_serial_spread": round(points_spread, 3),
        "batched_points_per_sec": round(batched_median, 2),
        "batched_points_per_sec_spread": round(batched_spread, 3),
        "batch_k": resolve_batch(None),
        "batch_speedup": round(batched_median / points_median, 3)
        if points_median else 0.0,
        "sweep_points_per_sec_cached": round(cached_median, 2),
        "sweep_points_per_sec_cached_spread": round(cached_spread, 3),
        "sweep_grid_points": len(list(SWEEP_SEEDS)),
        "parallel_speedup_jobs2": round(speedup_median, 3),
        "parallel_speedup_jobs2_spread": round(speedup_spread, 3),
        "sweep_digest": digest,
        "cpu_count": os.cpu_count(),
        "usable_cpus": _usable_cpus(),
        "src_loc": src_loc(),
    }
    numbers.update(analysis)
    numbers.update(network)
    numbers.update(windowed)
    numbers.update(recovery)
    return numbers


def check_against_baseline(numbers: dict) -> list[str]:
    """The regression gate: serial table3 throughput, columnar
    analysis throughput (one log, and a network point's logs fused) and
    live-ingest throughput (the Blink log in 1021-byte chunks, and a
    serve-shaped stream in 37 KB reads) must stay within
    tolerance of the committed baseline; the determinism digest must
    match it exactly when the grid definition is unchanged."""
    failures: list[str] = []
    if not BASELINE_PATH.is_file():
        return [f"no committed baseline at {BASELINE_PATH}"]
    baseline = json.loads(BASELINE_PATH.read_text("utf-8"))
    tolerance = float(os.environ.get("REPRO_BENCH_TOLERANCE",
                                     DEFAULT_TOLERANCE))
    floor = baseline["sweep_points_per_sec_serial"] * (1.0 - tolerance)
    measured = numbers["sweep_points_per_sec_serial"]
    if measured < floor:
        failures.append(
            f"serial table3 throughput regressed: {measured:.2f} points/s "
            f"< {floor:.2f} (baseline "
            f"{baseline['sweep_points_per_sec_serial']:.2f} - {tolerance:.0%})"
        )
    if "batched_points_per_sec" in baseline:
        floor = baseline["batched_points_per_sec"] * (1.0 - tolerance)
        measured = numbers["batched_points_per_sec"]
        if measured < floor:
            failures.append(
                f"batched sweep throughput regressed: {measured:.2f} "
                f"points/s < {floor:.2f} (baseline "
                f"{baseline['batched_points_per_sec']:.2f} - {tolerance:.0%})"
            )
    if "sweep_points_per_sec_cached" in baseline:
        floor = baseline["sweep_points_per_sec_cached"] * (1.0 - tolerance)
        measured = numbers["sweep_points_per_sec_cached"]
        if measured < floor:
            failures.append(
                f"cache-hit fold throughput regressed: {measured:.2f} "
                f"points/s < {floor:.2f} (baseline "
                f"{baseline['sweep_points_per_sec_cached']:.2f} - "
                f"{tolerance:.0%})"
            )
    baseline_analysis = baseline.get("analysis_entries_per_sec", {})
    if "columnar" in baseline_analysis:
        floor = baseline_analysis["columnar"] * (1.0 - tolerance)
        measured = numbers["analysis_entries_per_sec"]["columnar"]
        if measured < floor:
            failures.append(
                f"columnar analysis throughput regressed: "
                f"{measured:.0f} entries/s < {floor:.0f} (baseline "
                f"{baseline_analysis['columnar']:.0f} - {tolerance:.0%})"
            )
    if "network_analysis_entries_per_sec" in baseline:
        floor = baseline["network_analysis_entries_per_sec"] \
            * (1.0 - tolerance)
        measured = numbers["network_analysis_entries_per_sec"]
        if measured < floor:
            failures.append(
                f"network (multi-log) analysis throughput regressed: "
                f"{measured:.0f} entries/s < {floor:.0f} (baseline "
                f"{baseline['network_analysis_entries_per_sec']:.0f} - "
                f"{tolerance:.0%})"
            )
    if "windowed_entries_per_sec" in baseline:
        floor = baseline["windowed_entries_per_sec"] * (1.0 - tolerance)
        measured = numbers["windowed_entries_per_sec"]
        if measured < floor:
            failures.append(
                f"live-ingest (windowed) throughput regressed: "
                f"{measured:.0f} entries/s < {floor:.0f} (baseline "
                f"{baseline['windowed_entries_per_sec']:.0f} - "
                f"{tolerance:.0%})"
            )
    if "windowed_stream_entries_per_sec" in baseline:
        floor = baseline["windowed_stream_entries_per_sec"] \
            * (1.0 - tolerance)
        measured = numbers["windowed_stream_entries_per_sec"]
        if measured < floor:
            failures.append(
                f"live-ingest (serve-shaped stream) throughput regressed: "
                f"{measured:.0f} entries/s < {floor:.0f} (baseline "
                f"{baseline['windowed_stream_entries_per_sec']:.0f} - "
                f"{tolerance:.0%})"
            )
    if baseline.get("sweep_grid_points") == numbers["sweep_grid_points"] \
            and baseline.get("sweep_digest") != numbers["sweep_digest"]:
        failures.append(
            "sweep digest diverged from the committed baseline grid — "
            "determinism break, not a perf regression"
        )
    # The pool must actually scale where cores exist.  On a 1-CPU host
    # the number is recorded but not judged (two workers on one core
    # can only lose); the dedicated multi-core CI leg pins >= 2 cores
    # so this branch is exercised there on every run.
    if numbers.get("usable_cpus", 1) >= 2:
        floor = float(os.environ.get("REPRO_BENCH_PARALLEL_FLOOR",
                                     PARALLEL_SPEEDUP_FLOOR))
        measured = numbers["parallel_speedup_jobs2"]
        if measured < floor:
            failures.append(
                f"--jobs 2 speedup too low on a "
                f"{numbers['usable_cpus']}-core host: {measured:.2f}x < "
                f"{floor:.2f}x"
            )
    return failures


def check_parallel() -> int:
    """The multi-core CI leg: run only the sweep grid and gate the
    ``--jobs 2`` wall-clock speedup.  Requires >= 2 usable cores (pin
    with ``taskset -c 0,1`` for a clean two-core statement); refuses to
    pass vacuously on a single-core host."""
    usable = _usable_cpus()
    if usable < 2:
        print(f"FAIL: --check-parallel needs >= 2 usable cores, "
              f"have {usable} — run on a multi-core host or pin with "
              f"taskset", file=sys.stderr)
        return 1
    floor = float(os.environ.get("REPRO_BENCH_PARALLEL_FLOOR",
                                 PARALLEL_SPEEDUP_FLOOR))
    speedups: list[float] = []
    digest = None
    for _ in range(REPEATS):
        _points, _batched, speedup, run_digest = bench_sweep_grid()
        speedups.append(speedup)
        assert digest is None or digest == run_digest, \
            "sweep digest unstable across repeats — determinism break"
        digest = run_digest
    median, spread = _median_spread(speedups)
    print(json.dumps({
        "parallel_speedup_jobs2": round(median, 3),
        "parallel_speedup_jobs2_spread": round(spread, 3),
        "usable_cpus": usable,
        "sweep_digest": digest,
    }, indent=2))
    if median < floor:
        print(f"FAIL: --jobs 2 speedup {median:.2f}x < {floor:.2f}x on "
              f"a {usable}-core host", file=sys.stderr)
        return 1
    print(f"parallel check ok ({median:.2f}x >= {floor:.2f}x "
          f"on {usable} cores)")
    return 0


def main(argv: list[str]) -> int:
    if "--check-parallel" in argv:
        return check_parallel()
    numbers = run_benchmarks()
    print(json.dumps(numbers, indent=2))
    if "--check" in argv:
        failures = check_against_baseline(numbers)
        if failures:
            slowdown = host_slowdown()
            for failure in failures:
                print(f"FAIL: {failure} [host slowdown {slowdown:.2f}x]",
                      file=sys.stderr)
            return 1
        print("baseline check ok")
        return 0
    RESULTS_DIR.mkdir(exist_ok=True)
    BASELINE_PATH.write_text(json.dumps(numbers, indent=2) + "\n", "utf-8")
    print(f"wrote {BASELINE_PATH}")
    return 0


def test_engine_bench_smoke():
    """Tier-1 smoke: the benchmark machinery runs and its numbers are
    sane (positive throughputs, reference-identical maps)."""
    events_per_sec = bench_engine_events(total=2_000)
    assert events_per_sec > 0
    analysis = bench_analysis(rounds=2)
    assert analysis["log_entry_count"] > 0
    assert analysis["analysis_entries_per_sec"]["streaming"] > 0
    assert analysis["analysis_entries_per_sec"]["columnar"] > 0
    network = bench_network_analysis(rounds=2)
    assert network["network_analysis_entries_per_sec"] > 0
    windowed = bench_windowed(rounds=2)
    assert windowed["windowed_entries_per_sec"] > 0
    stream = bench_windowed_stream(rounds=1)
    assert stream["windowed_stream_entries_per_sec"] > 0
    recovery = bench_serve_recovery(rounds=1)
    assert recovery["serve_recovery_ms"] > 0
    assert recovery["serve_checkpoint_bytes"] > 0
    assert src_loc() > 0
    assert host_slowdown(rounds=1) > 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
