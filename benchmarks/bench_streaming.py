"""Streaming vs batch accounting: peak memory and wall time.

The same 48-second Blink log is priced twice with the same regression:

* **batch** — the node's timeline (one columnar decode of the whole
  log, intervals and segments as column arrays) folded by
  ``columnar_energy_map``;
* **streaming** — a single pass: ``iter_entries`` feeding
  ``stream_energy_map`` (the streaming reference), nothing materialized
  but open spans.

The two maps are asserted identical (the refactor's contract), the
speed/space numbers go to ``results/``.  Peak memory is tracemalloc's
peak of allocations made inside each measured region.

Runnable standalone (``PYTHONPATH=src python benchmarks/bench_streaming.py``)
or via pytest.
"""

from __future__ import annotations

import time
import tracemalloc
from pathlib import Path

from repro.core.accounting import columnar_energy_map, stream_energy_map
from repro.core.logger import ENTRY_SIZE, decode_columns, iter_entries
from repro.core.regression import solve_breakdown
from repro.core.report import format_table
from repro.core.timeline import ColumnarTimeline, TimelineStream
from repro.experiments.common import run_blink
from repro.tos.node import COMPONENT_NAMES
from repro.units import seconds

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

DURATION_S = 48


def _measure(fn):
    tracemalloc.start()
    start = time.perf_counter()
    result = fn()
    wall_s = time.perf_counter() - start
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, wall_s, peak


def bench_streaming() -> str:
    node, _app, _sim = run_blink(seed=0, duration_ns=seconds(DURATION_S))
    node.mark_log_end()
    raw = node.logger.raw_bytes()
    end_time_ns = node.sim.now
    idle_name = node.registry.name_of(node.idle)
    energy_per_pulse = node.platform.icount.nominal_energy_per_pulse_j
    # Shared input, outside both regions.  The streaming regression and
    # the warm-up fold (first-call imports and numpy set-up) leave the
    # node's memoized timeline unbuilt, so the batch region pays for its
    # own decode and reconstruction.
    intervals: list = []
    TimelineStream(on_interval=intervals.append).feed_all(iter_entries(raw))
    regression = solve_breakdown(
        intervals, node.layout(), energy_per_pulse,
        node.platform.rail.voltage, weighting="sqrt_et")
    columnar_energy_map(
        ColumnarTimeline(
            decode_columns(bytes(raw)), end_time_ns=end_time_ns,
            single_res_ids=node.single_res_ids,
            multi_res_ids=node.multi_res_ids),
        [regression], node.registry, COMPONENT_NAMES, [energy_per_pulse],
        idle_names=[idle_name])

    def batch():
        (emap,) = columnar_energy_map(
            node.timeline(), [regression], node.registry, COMPONENT_NAMES,
            [energy_per_pulse], idle_names=[idle_name])
        return emap

    def streaming():
        return stream_energy_map(
            iter_entries(raw), regression, node.registry, COMPONENT_NAMES,
            energy_per_pulse, idle_name=idle_name,
            end_time_ns=end_time_ns, single_res_ids=node.single_res_ids,
            multi_res_ids=node.multi_res_ids)

    batch_map, batch_wall, batch_peak = _measure(batch)
    stream_map, stream_wall, stream_peak = _measure(streaming)
    assert batch_map.energy_j == stream_map.energy_j, \
        "streaming accounting diverged from batch"
    assert batch_map.time_ns == stream_map.time_ns

    rows = [
        ("batch", f"{batch_wall:.3f}", f"{batch_peak / 1024:.0f}", "1.00"),
        ("streaming", f"{stream_wall:.3f}", f"{stream_peak / 1024:.0f}",
         f"{batch_peak / stream_peak:.2f}" if stream_peak else "-"),
    ]
    report = "\n\n".join([
        f"== streaming bench: Blink {DURATION_S} s, "
        f"{len(raw) // ENTRY_SIZE} log entries ==\n"
        f"-- maps identical: "
        f"{sum(batch_map.energy_j.values()) * 1e3:.3f} mJ attributed",
        format_table(
            ("path", "wall (s)", "peak alloc (KiB)", "space ratio"), rows,
            title="batch vs streaming accounting"),
    ])
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "bench_streaming.txt").write_text(report + "\n")
    return report


def test_streaming_vs_batch(capsys):
    report = bench_streaming()
    with capsys.disabled():
        print()
        print(report)


if __name__ == "__main__":
    print(bench_streaming())
