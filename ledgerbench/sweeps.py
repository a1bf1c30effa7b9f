"""The sweep workloads: ``sweep-blink`` and ``sweep-network``.

Each pass runs ``run_sweep`` on the workload's grid, as a user would
call it (no ``batch=``, ``jobs=1``, default backend and warm start),
into a fresh cache directory — the cold pass — and then folds the same
grid again from that store — the refold pass.  Every pass must produce
the same sweep digest, cold and refold alike, and on a pinned seed the
digest pinned in ``pinned.json``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import time
from pathlib import Path

from hostspeed import REFERENCE_MS, loop_s, scaled_ms
from tracer import Tracer

HERE = Path(__file__).resolve().parent

#: workload -> (experiment, grid seeds per pass, override grid, traced
#: passes).  Grid seeds are drawn from the workload seed.
GRIDS = {
    # 8 seeds per override combo = one full K=8 batch per combo.
    "sweep-blink": ("table3", 8, {
        "device_variation": ["0", "0.02"],
        "duration_ns": [str(48 * 10**9)],
    }, 20),
    # Traffic, and so the cost of a point, differs from seed to seed;
    # three grid seeds per combo even that out.  5 s of network time
    # keeps a pass near 0.25 s, so a run holds enough passes for a
    # 90th-percentile latency.
    "sweep-network": ("ext_collection", 3, {
        "nodes": ["3", "6"],
        "topology": ["line", "star"],
        "duration_ns": [str(5 * 10**9)],
    }, 8),
}

#: Passes a timed run makes at least, however long they take.
MIN_PASSES = 5


def _engine_before(args, _kwargs):
    sim = args[0]
    return sim.events_executed, sim.now == 0


def _engine_after(tracer):
    def after(token, _result, args, _kwargs):
        executed, from_zero = token
        tracer.counts["engine.events"] += args[0].events_executed - executed
        if from_zero:
            tracer.counts["engine.runs_started"] += 1
            tracer.counts["engine.worlds_started"] += 1
    return after


def _batch_table(tracer):
    """BatchSimulator.run: one run of len(sims) worlds.  The worlds are
    captured at construction (the public ``BatchSimulator(sims)``)."""
    worlds: dict[int, tuple] = {}

    def init_before(args, _kwargs):
        worlds[id(args[0])] = tuple(args[1])

    def run_before(args, _kwargs):
        sims = worlds[id(args[0])]
        return sims, [sim.events_executed for sim in sims], \
            all(sim.now == 0 for sim in sims)

    def run_after(token, _result, _args, _kwargs):
        sims, executed, from_zero = token
        tracer.counts["engine.events"] += sum(
            sim.events_executed - before
            for sim, before in zip(sims, executed))
        if from_zero:
            tracer.counts["engine.runs_started"] += 1
            tracer.counts["engine.worlds_started"] += len(sims)

    return [
        ("repro.sim.batch", "BatchSimulator", "__init__", "batch.setup",
         {"before": init_before}),
        ("repro.sim.batch", "BatchSimulator", "attach", "batch.attach", {}),
        ("repro.sim.batch", "BatchSimulator", "detach", "batch.detach", {}),
        ("repro.sim.batch", "BatchSimulator", "run", "engine.run",
         {"before": run_before, "after": run_after}),
    ]


def wrap_table(tracer: Tracer) -> list:
    """Every traced span of the sweep path: (module, class or None,
    name, span, options).  Module-level names are patched in the module
    that calls them."""
    counts = tracer.counts

    def count(key, measure=lambda result, args: 1):
        def after(_token, result, args, _kwargs):
            counts[key] += measure(result, args)
        return {"after": after}

    return [
        ("repro.sim.sweep", None, "run_point", "sweep.point", {}),
        ("repro.sim.sweep", None, "run_experiment", "experiments.run", {}),
        ("repro.sim.sweep", "SweepCache", "store", "sweep.cache_store", {}),
        ("repro.sim.sweep", "SweepCache", "load", "sweep.cache_load", {}),
        ("repro.sim.shardstore", "ShardStore", "has", "shardstore.probe",
         count("shardstore.hits", lambda result, _a: int(bool(result)))),
        ("repro.sim.shardstore", "ShardStore", "store", "shardstore.append",
         count("shardstore.bytes_written", lambda _r, args: len(args[2]))),
        ("repro.sim.shardstore", "ShardStore", "load", "shardstore.load",
         count("shardstore.bytes_read",
               lambda result, _a: len(result) if result else 0)),
        ("repro.sim.engine", "Simulator", "run", "engine.run",
         {"before": _engine_before, "after": _engine_after(tracer)}),
        *_batch_table(tracer),
        ("repro.experiments.common", None, "QuantoNode", "world.build", {}),
        ("repro.tos.node", "QuantoNode", "reset", "world.reset", {}),
        ("repro.experiments.ext_collection", None, "Network",
         "network.build", count("network.worlds")),
        ("repro.tos.network", "Network", "add_node", "network.build", {}),
        ("repro.core.logger", "QuantoLogger", "columns", "logger.decode",
         count("logger.entries", lambda result, _a: len(result))),
        ("repro.core.logger", None, "decode_batch", "logger.decode", {}),
        ("repro.tos.node", None, "ColumnarTimeline", "timeline.build", {}),
        ("repro.core.timeline", "ColumnarTimeline", "grouped_inputs",
         "timeline.build", {}),
        ("repro.tos.node", None, "solve_grouped", "regression.solve", {}),
        ("repro.tos.node", None, "columnar_energy_map", "accounting.fold",
         {}),
        ("repro.core.netmerge", "NetworkMerger", "add", "netmerge.merge", {}),
        ("repro.core.netmerge", "NetworkMerger", "report", "netmerge.merge",
         {}),
        ("repro.experiments.common", "ExperimentResult", "render",
         "experiments.render", {}),
    ]


def grid_seeds(workload: str, seed: int) -> list[int]:
    _exp, count, _grid, _passes = GRIDS[workload]
    return random.Random(f"{workload}:{seed}").sample(range(10**6), count)


def pinned_digest(workload: str, seed: int):
    pins = json.loads((HERE / "pinned.json").read_text())
    return pins.get(workload, {}).get(str(seed))


class SweepWorkload:
    """One sweep workload bound to a seed and a scratch directory."""

    #: What each end-to-end metric measures here.
    NAMES = {
        "throughput_per_s": "points_per_s: grid / cold pass p50",
        "latency_ms_p50": "cold pass over the grid, ms at reference speed",
        "latency_ms_p90": "cold pass over the grid, ms at reference speed",
        "restore_ms": "refold of the grid from the warm store, p50, "
                      "ms at reference speed",
        "peak_rss_mb": "the sweep process",
    }

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.exp_id, _count, self.grid, self.traced_passes = GRIDS[workload]
        self.seeds = grid_seeds(workload, seed)
        self.digest = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.config: dict = {}
        self._passes = 0

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        """Imports, the source fingerprint, and the first worlds: one
        whole pass, so the worlds a sweep process keeps are built."""
        from repro.sim.sweep import code_fingerprint

        code_fingerprint()
        self.one_pass(time.perf_counter)

    # -- passes ----------------------------------------------------------

    def one_pass(self, clock) -> tuple[float, float, object]:
        """Cold pass into a fresh store, then refold from it.  Returns
        (cold seconds, refold seconds, cold SweepResult)."""
        from repro.sim.sweep import run_sweep

        cache = self.work / f"cache-{self._passes}"
        self._passes += 1
        start = clock()
        cold = run_sweep(self.exp_id, self.seeds, self.grid, cache_dir=cache)
        mid = clock()
        refold = run_sweep(self.exp_id, self.seeds, self.grid,
                           cache_dir=cache)
        end = clock()
        shutil.rmtree(cache, ignore_errors=True)
        self._check(cold, refold)
        return mid - start, end - mid, cold

    def _check(self, cold, refold) -> None:
        points = len(cold.points)
        self.attempted += 2 * points
        problems = []
        digest = cold.digest()
        if self.digest is None:
            # The pinned digest where there is one, else the first pass.
            self.digest = pinned_digest(self.workload, self.seed) or digest
        if digest != self.digest:
            problems.append(f"cold digest {digest} != expected {self.digest}")
        if cold.cache_hits != 0:
            problems.append(f"cold pass reused {cold.cache_hits} points")
        if refold.digest() != digest:
            problems.append(f"refold digest {refold.digest()} != cold")
        if refold.cache_hits != points:
            problems.append(
                f"refold simulated {points - refold.cache_hits} points")
        if problems:
            self.failed += 2 * points
            self.errors.extend(problems)
        if not self.config:
            from repro.core.accounting import resolve_analysis_backend
            from repro.experiments.common import WARM_START_ENV_VAR

            self.config = {
                "digest": digest,
                "digest_pinned": pinned_digest(self.workload, self.seed)
                is not None,
                "grid_points": points,
                "batch": cold.batch,
                "jobs": cold.jobs,
                "backend": cold.backend or resolve_analysis_backend(),
                "backend_explicit": cold.backend is not None,
                "warm_start_env": os.environ.get(WARM_START_ENV_VAR),
            }

    def run_for(self, seconds: float, clock) -> dict:
        """Passes for ``seconds``, the reference loop timed between
        them; every time metric is in ms at reference host speed."""
        cold_ms, refold_ms, loops = [], [], []
        cold_s = []
        points = 0
        before = loop_s(clock)
        deadline = clock() + seconds
        while len(cold_ms) < MIN_PASSES or clock() < deadline:
            cold, refold, result = self.one_pass(clock)
            after = loop_s(clock)
            cold_ms.append(scaled_ms(cold, before, after))
            refold_ms.append(scaled_ms(refold, before, after))
            loops.append(after)
            cold_s.append(cold)
            points += len(result.points)
            before = after
        grid = len(result.points)
        cold_p50 = statistics.median(cold_ms)
        refold_p50 = statistics.median(refold_ms)
        return {
            "throughput_per_s": grid / cold_p50 * 1e3,
            "latency_ms_p50": cold_p50,
            "latency_ms_p90": statistics.quantiles(cold_ms, n=10)[8],
            "restore_ms": refold_p50,
            "refold_points_per_s": grid / refold_p50 * 1e3,
            "passes": len(cold_ms),
            "wall_latency_ms_p50": statistics.median(cold_s) * 1e3,
            "wall_points_per_s": points / sum(cold_s),
            "host_slowdown": statistics.median(loops) * 1e3 / REFERENCE_MS,
        }

    def run_fixed(self, passes: int, clock, tracer=None):
        """``passes`` cold+refold passes from cold worlds; returns
        (cold points/s, cold results)."""
        from repro.experiments.common import (
            clear_batch_worlds, clear_warm_worlds,
        )

        clear_warm_worlds()
        clear_batch_worlds()
        if tracer is not None:
            tracer.install(wrap_table(tracer))
            tracer.start()
        cold_total = 0.0
        results = []
        try:
            for _ in range(passes):
                cold, _refold, result = self.one_pass(clock)
                cold_total += cold
                results.append(result)
        finally:
            if tracer is not None:
                tracer.stop()
        points = sum(len(result.points) for result in results)
        return points / cold_total, results

    def traced(self, clock) -> dict:
        """The traced run: the same fixed work untraced, then traced."""
        untraced, _ = self.run_fixed(self.traced_passes, clock)
        tracer = Tracer()
        traced, results = self.run_fixed(self.traced_passes, clock, tracer)
        summary = tracer.dump(self.work / "trace-sweep.json")
        points = [point for result in results for point in result.points]
        serial = sum(point.wall_s for point in points)
        layer = sweep_layer_metrics(summary)
        layer.update({
            "sweep.point_s_mean": serial / len(points),
            "sweep.overhead_s": sum(r.wall_s for r in results) - serial,
            "trace.overhead_frac": (untraced - traced) / untraced,
        })
        self.config["traced_worlds_per_run"] = layer["batch.worlds_per_run"]
        return {"summary": summary, "metrics": layer}


def sweep_layer_metrics(summary: dict) -> dict:
    total = summary["total_s"]
    calls = summary["calls"]
    counts = summary["counts"]

    def t(span):
        return total.get(span, 0.0)

    events = counts.get("engine.events", 0)
    runs = counts.get("engine.runs_started", 0)
    probes = calls.get("shardstore.probe", 0)
    return {
        "engine.run_s": t("engine.run"),
        "engine.events": events,
        "engine.us_per_event": t("engine.run") / events * 1e6
        if events else 0.0,
        "batch.worlds_per_run": counts.get("engine.worlds_started", 0) / runs
        if runs else 0.0,
        "world.builds": calls.get("world.build", 0)
        + counts.get("network.worlds", 0),
        "world.resets": calls.get("world.reset", 0),
        "world.build_s": t("world.build") + t("network.build"),
        "world.reset_s": t("world.reset"),
        "network.build_s": t("network.build"),
        "logger.decode_s": t("logger.decode"),
        "logger.entries": counts.get("logger.entries", 0),
        "timeline.build_s": t("timeline.build"),
        "regression.solve_s": t("regression.solve"),
        "accounting.fold_s": t("accounting.fold"),
        "netmerge.merge_s": t("netmerge.merge"),
        "experiments.render_s": t("experiments.render"),
        "shardstore.append_s": t("shardstore.append"),
        "shardstore.bytes_written": counts.get("shardstore.bytes_written", 0),
        "shardstore.load_s": t("shardstore.load"),
        "shardstore.bytes_read": counts.get("shardstore.bytes_read", 0),
        "shardstore.hit_ratio": counts.get("shardstore.hits", 0) / probes
        if probes else 0.0,
    }
