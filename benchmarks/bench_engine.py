"""Engine/pipeline throughput baseline: the perf-trajectory benchmark.

Measures the numbers that the simulator and analysis fast paths are
judged by and writes them to ``results/BENCH_engine.json`` so future PRs
have a machine-readable baseline:

* ``engine_events_per_sec`` — raw calendar-queue throughput on a
  synthetic workload (bursty same-instant events, far-future timer arms,
  cancellations);
* ``analysis_entries_per_sec_columnar`` and ``_streaming`` — decode →
  cover → attribute throughput of the offline analysis over a real
  Blink log, for the columnar product path and the streaming reference,
  with their ratio ``analysis_speedup_columnar``; the two maps are
  asserted bit-identical before anything is timed.  The peak bytes each
  path allocates (``analysis_peak_bytes_*``, tracemalloc) are measured
  in a separate untimed pass;
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
* ``serve_recovery_ms`` — time for the durable ingest path to rebuild
  one node session from its checkpoint + journal-tail replay (a
  half-log tail, the post-SIGKILL shape), and ``serve_checkpoint_bytes``,
  the size of that checkpoint;
* ``sweep_points_per_sec_serial`` — end-to-end table3 points per second
  on the 64-point reference grid with batching off (``batch=1``): the
  strict one-world-at-a-time reference;
* ``batched_points_per_sec`` — the same grid through the default
  in-process executor (K worlds per batch on one shared event queue,
  fused log decode): what a plain ``--jobs 1`` sweep delivers;
* ``sweep_points_per_sec_cached`` — the same grid folded entirely from
  a warm packed shard store (cache-hit throughput);
* ``src_loc`` — lines in ``src/repro/**/*.py``: code size as a
  tracked number.

Every row is timed by :func:`ref_seconds`: the median of
:data:`SAMPLES` samples, each scaled by ``ledgerbench/hostspeed.py``'s
reference loop timed just before and just after it, so a rate reads in
units of a host that runs that loop in ``REFERENCE_MS``.  Shared hosts
slow by up to 1.8x for minutes at a time; the loop slows with the rows
beside it, so most of a slow period cancels out.  Not all of it: the
numpy-heavy rows slow more than the pure-Python loop, and still move
about ±10% between samples on a 2-vCPU shared host.

``--check`` measures every row and checks each :data:`GATES` row
against ``baseline × FLOOR`` from the committed baseline; a gated row
missing from the baseline fails, as does a sweep digest that differs
from the baseline's (a determinism break, not a slowdown).
``--check-parallel`` runs only the pool gate: ``--jobs 2`` against the
in-process executor on the 256-point :data:`PARALLEL_SEEDS` grid, at
least :data:`PARALLEL_FLOOR` on a host with two or more usable cores.
That gate is a ratio of two timings on one host, so its floor is
absolute.  So is the batch gate ``--check`` adds: ``batch_speedup``,
the batched over the serial table3 sweep, at least :data:`BATCH_FLOOR`
(batching must earn its code).  Runnable standalone
(``PYTHONPATH=src python benchmarks/bench_engine.py
[--check|--check-parallel]``);
``tests/test_bench_gates.py`` drives the gates and a smoke run.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from repro.core.accounting import columnar_energy_map, stream_energy_map
from repro.core.logger import decode_columns, iter_entries
from repro.core.timeline import ColumnarTimeline
from repro.sim.engine import NEAR_WINDOW_NS, Simulator
from repro.sim.sweep import detect_jobs, resolve_batch, run_sweep
from repro.units import seconds

sys.path.append(str(Path(__file__).resolve().parent.parent / "ledgerbench"))
from hostspeed import REFERENCE_MS, loop_s, scaled_ms  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "repro"
BASELINE_PATH = RESULTS_DIR / "BENCH_engine.json"

#: The reference sweep grid: 64 table3 points with the paper's noise
#: sources on (full-length runs, so the campaign is realistic work).
SWEEP_SEEDS = range(64)
SWEEP_OVERRIDES = {
    "duration_ns": [str(seconds(48))],
    "device_variation": ["0.02"],
    "icount_jitter_pulses": ["1.0"],
}

#: The pool gate's grid.  64 points run in well under a second, so pool
#: start-up and the workers' first world builds dominate a jobs=2 run
#: of them; on 256 points they are amortised.
PARALLEL_SEEDS = range(256)

#: Gated rows, each checked against ``baseline × FLOOR``.
GATES = {
    "sweep_points_per_sec_serial": "serial table3 sweep (batch=1)",
    "batched_points_per_sec": "batched table3 sweep",
    "sweep_points_per_sec_cached": "cache-hit sweep fold",
    "analysis_entries_per_sec_columnar": "columnar analysis, one log",
    "network_analysis_entries_per_sec":
        "columnar analysis, a network point's logs fused",
    "windowed_entries_per_sec": "live ingest, 1021-byte chunks",
    "windowed_stream_entries_per_sec": "live ingest, serve-shaped stream",
}

#: A gated row fails below this fraction of its baseline.
FLOOR = 0.75

#: Minimum --jobs 2 speedup over the in-process executor on
#: :data:`PARALLEL_SEEDS`, with two usable cores.
PARALLEL_FLOOR = 1.5

#: Minimum ``batch_speedup`` (batched over ``batch=1`` points/s on the
#: reference grid): a ratio of two timings on one host, like
#: :data:`PARALLEL_FLOOR`.
BATCH_FLOOR = 1.15

#: Samples per timed row; the median is reported.
SAMPLES = 5


def ref_seconds(fn, rounds: int = 1) -> float:
    """Median seconds one ``fn()`` call takes on the reference host.

    Each of :data:`SAMPLES` samples times ``rounds`` back-to-back calls
    and is scaled by the hostspeed loop timed just before and just
    after it (``hostspeed.scaled_ms``)."""
    samples = []
    for _ in range(SAMPLES):
        before = loop_s()
        start = time.perf_counter()
        for _round in range(rounds):
            fn()
        wall = time.perf_counter() - start
        samples.append(scaled_ms(wall / rounds, before, loop_s()) / 1e3)
    return statistics.median(samples)


def peak_bytes(fn) -> int:
    """Peak bytes allocated (tracemalloc) while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def src_loc() -> int:
    """Lines of Python under ``src/repro``."""
    return sum(len(path.read_text("utf-8").splitlines())
               for path in SRC_DIR.rglob("*.py"))


def bench_engine_events(total: int = 60_000) -> float:
    """Raw scheduler throughput: a synthetic mix of same-instant bursts,
    short hops, far-future arms, and cancellations."""

    def run() -> Simulator:
        sim = Simulator()
        fired = [0]

        def hop(step: int) -> None:
            fired[0] += 1
            if fired[0] >= total:
                return
            # A burst at the same instant, a short hop, and a far arm
            # whose predecessor gets cancelled — the regimes the
            # calendar queue splits between buckets and the overflow
            # heap.
            sim.call_now(lambda: None)
            doomed = sim.after(2 * NEAR_WINDOW_NS, lambda: None)
            doomed.cancel()
            sim.after(step % 997 + 1, hop, step + 1)

        sim.after(1, hop, 0)
        sim.run()
        return sim

    return run().events_executed / ref_seconds(run)


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


def bench_analysis(rounds: int = 100) -> dict:
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

    streaming = entry_count / ref_seconds(run_streaming, rounds)
    columnar = entry_count / ref_seconds(run_columnar, rounds)
    return {
        "analysis_entries_per_sec_columnar": round(columnar),
        "analysis_entries_per_sec_streaming": round(streaming),
        "analysis_speedup_columnar": round(columnar / streaming, 3),
        "analysis_peak_bytes_columnar": peak_bytes(run_columnar),
        "analysis_peak_bytes_streaming": peak_bytes(run_streaming),
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
    return {
        "network_analysis_entries_per_sec":
            round(entry_count / ref_seconds(run_fused, rounds)),
        "network_log_entry_count": entry_count,
    }


def bench_windowed(rounds: int = 50) -> dict:
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
    return {
        "windowed_entries_per_sec":
            round(entry_count / ref_seconds(run_windowed, rounds)),
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


def bench_windowed_stream(rounds: int = 20) -> dict:
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
    return {
        "windowed_stream_entries_per_sec":
            round(entry_count / ref_seconds(run_stream, rounds)),
        "windowed_stream_entry_count": entry_count,
    }


def bench_serve_recovery(rounds: int = 5) -> dict:
    """Crash-recovery latency of the durable ingest path: time for
    :meth:`NodeSession.restore` to rebuild one node from its checkpoint
    plus journal-tail replay — the in-process cousin of the serve chaos
    job's restart-to-listening measurement.  The state dir is prepared
    the way a SIGKILLed server leaves it: a full WAL and a checkpoint
    from roughly mid-stream, so every restore pays a real half-log
    replay.  The restored accounting is asserted bit-identical to the
    uninterrupted session before the number is reported."""
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

        def restore():
            NodeSession.restore(root, node.node_id, retain=64).journal.close()

        restore_s = ref_seconds(restore, rounds)
    return {
        "serve_recovery_ms": round(restore_s * 1e3, 2),
        "serve_recovery_log_bytes": len(raw),
        "serve_checkpoint_bytes": checkpoint_bytes,
    }


def _sweep_rate(seeds, **options):
    """Points/s of the table3 grid over ``seeds`` run with ``options``,
    and the last run's :class:`SweepResult`; every sample must report
    the same sweep digest."""
    runs = []
    per_run = ref_seconds(lambda: runs.append(
        run_sweep("table3", seeds, SWEEP_OVERRIDES, **options)))
    assert len({run.digest() for run in runs}) == 1, \
        "sweep digest unstable across samples — determinism break"
    return len(seeds) / per_run, runs[-1]


def bench_sweep_grid() -> dict:
    """Serial (``batch=1``), batched (the default in-process executor)
    and cache-hit points/s on the 64-point grid.  The three must report
    the same sweep digest — batching and the cache change time only —
    and the cached rerun must simulate nothing."""
    serial, reference = _sweep_rate(SWEEP_SEEDS, jobs=1, batch=1)
    batched, run = _sweep_rate(SWEEP_SEEDS, jobs=1)
    assert run.digest() == reference.digest(), \
        "batched sweep diverged from serial reference"
    with tempfile.TemporaryDirectory(prefix="bench-sweep-cache-") as root:
        run_sweep("table3", SWEEP_SEEDS, SWEEP_OVERRIDES, jobs=1,
                  cache_dir=root)
        cached, run = _sweep_rate(SWEEP_SEEDS, jobs=1, cache_dir=root)
    assert run.cache_hits == len(run.points), \
        "cached rerun re-simulated points — cache keys unstable"
    assert run.digest() == reference.digest(), \
        "cached fold diverged from the fresh sweep"
    return {
        "sweep_points_per_sec_serial": round(serial, 2),
        "batched_points_per_sec": round(batched, 2),
        "batch_k": resolve_batch(None),
        "batch_speedup": round(batched / serial, 3),
        "sweep_points_per_sec_cached": round(cached, 2),
        "sweep_grid_points": len(SWEEP_SEEDS),
        "sweep_digest": reference.digest(),
    }


def bench_parallel() -> dict:
    """``--jobs 2`` over the in-process executor on the
    :data:`PARALLEL_SEEDS` grid, with equal sweep digests."""
    batched, reference = _sweep_rate(PARALLEL_SEEDS, jobs=1)
    pooled, run = _sweep_rate(PARALLEL_SEEDS, jobs=2)
    assert run.digest() == reference.digest(), \
        "parallel sweep diverged from the in-process run"
    return {
        "parallel_speedup_jobs2": round(pooled / batched, 3),
        "parallel_grid_points": len(PARALLEL_SEEDS),
        "usable_cpus": detect_jobs(),
    }


def run_benchmarks() -> dict:
    numbers = {
        "timing": f"median of {SAMPLES} samples, scaled to a host that "
                  f"runs the hostspeed loop in {REFERENCE_MS} ms",
        "engine_events_per_sec": round(bench_engine_events()),
        "cpu_count": os.cpu_count(),
        "usable_cpus": detect_jobs(),
        "src_loc": src_loc(),
    }
    for bench in (bench_analysis, bench_network_analysis, bench_windowed,
                  bench_windowed_stream, bench_serve_recovery,
                  bench_sweep_grid):
        numbers.update(bench())
    return numbers


def _gate_line(row: str, label: str, value: float, floor: float) -> str:
    verdict = "ok  " if value >= floor else "FAIL"
    return f"{verdict} {row} = {value:,.2f}, floor {floor:,.2f} — {label}"


def check_against_baseline(numbers: dict, baseline: dict) -> list[str]:
    """The regression gate: one line per :data:`GATES` row, its value
    next to its floor ``baseline × FLOOR``, then the batch gate's line.
    A line starts with ``FAIL`` when the row is under its floor or
    missing from the baseline; a sweep digest that differs from the
    baseline's adds one more (a determinism break, not a slowdown)."""
    lines = []
    for row, label in GATES.items():
        if row in baseline:
            lines.append(_gate_line(row, label, numbers[row],
                                    baseline[row] * FLOOR))
        else:
            lines.append(f"FAIL {row} is missing from the baseline — "
                         f"{label}")
    lines.append(batch_gate(numbers["batch_speedup"]))
    if numbers["sweep_digest"] != baseline.get("sweep_digest"):
        lines.append("FAIL sweep_digest differs from the baseline's — "
                     "determinism break, not a perf regression")
    return lines


def batch_gate(speedup: float) -> str:
    """The batch gate's line for a measured ``batch_speedup``."""
    return _gate_line("batch_speedup",
                      f"batched over batch=1, {len(SWEEP_SEEDS)} points",
                      speedup, BATCH_FLOOR)


def parallel_gate(speedup: float) -> str:
    """The pool gate's line for a measured ``--jobs 2`` speedup."""
    return _gate_line("parallel_speedup_jobs2",
                      f"--jobs 2 over jobs=1, {len(PARALLEL_SEEDS)} points",
                      speedup, PARALLEL_FLOOR)


def main(argv: list[str]) -> int:
    if "--check-parallel" in argv:
        usable = detect_jobs()
        if usable < 2:
            print(f"FAIL: --check-parallel needs >= 2 usable cores, "
                  f"have {usable} — run on a multi-core host or pin with "
                  f"taskset", file=sys.stderr)
            return 1
        numbers = bench_parallel()
        lines = [parallel_gate(numbers["parallel_speedup_jobs2"])]
    elif "--check" in argv:
        numbers = run_benchmarks()
        baseline = json.loads(BASELINE_PATH.read_text("utf-8")) \
            if BASELINE_PATH.is_file() else {}
        lines = check_against_baseline(numbers, baseline)
    else:
        numbers = run_benchmarks()
        RESULTS_DIR.mkdir(exist_ok=True)
        BASELINE_PATH.write_text(json.dumps(numbers, indent=2) + "\n",
                                 "utf-8")
        print(f"wrote {BASELINE_PATH}")
        return 0
    print(json.dumps(numbers, indent=2))
    print("\n".join(lines))
    if any(line.startswith("FAIL") for line in lines):
        return 1
    print("check ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
