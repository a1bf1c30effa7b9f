"""Fleet-scale sweep runner: many seeds, many parameter points, one report.

A *sweep* executes one experiment over a grid of (seed, parameter-override)
points — serially or on a worker process pool — and reduces the
per-point results into a single :class:`SweepResult`:

* mean / stddev / 95 % CI for every numeric quantity the experiment
  reports (energy per (component, activity), regression coefficients,
  model-vs-meter errors, …— anything in ``ExperimentResult.data``);
* paper-vs-measured comparisons averaged over the fleet;
* a per-point digest table plus one combined sweep digest.

Aggregation is *streaming*: worker results are folded into running
Welford mean/variance state (plus min/max) in grid order as they arrive,
and each point's payload is dropped as soon as it is folded — the runner
retains one :class:`PointSummary` (describe + digest + wall time) per
point, so a campaign's memory footprint is independent of how much data
each experiment reports or how large the grid is.

Re-running overlapping campaigns is cheap: pass ``cache_dir`` and every
finished point is written to a **digest-keyed on-disk cache**.  A point's
key is the sha256 of (cache format, a fingerprint of the ``repro``
source tree, experiment id, seed, overrides) — so a second identical
sweep simulates nothing, a grid extension simulates only the new points,
and *any* source change invalidates every prior entry automatically.
Physically the cache is one packed append-only **shard store** per
experiment (:mod:`repro.sim.shardstore`): struct-framed, optionally
zlib-compressed JSON payloads behind an index file, so a warm rerun
folds points with one seek+read each instead of an open/parse/close per
file, and a whole campaign's cache travels as two files.  A point folded
from cache is byte-identical to the freshly simulated one (the per-point
digests in the report let anyone re-verify).

Splitting a grid across machines is the campaign orchestrator's job
(:mod:`repro.sim.campaign`): each machine runs ``campaign worker`` for
its shard of one manifest, and ``campaign merge`` folds the stores back
in canonical grid order — byte-identical, digest for digest, to the
unsharded run.

Determinism is the design center, not an afterthought:

* a point is *fully* described by ``(exp_id, seed, overrides)`` — workers
  share no state, inherit no RNG, and each run derives every random
  stream from its own seed (see :mod:`repro.sim.rng`);
* results are folded in grid order regardless of which worker finished
  first (the pool's futures are read in submission order), so serial
  and parallel execution are verifiably byte-identical — same
  per-point digests, same aggregates (``tests/test_determinism.py``
  proves it; the CI smoke sweep re-checks on every push).

Grid points run via :func:`repro.experiments.run_experiment`, so override
validation and type coercion happen once, up front, before any worker is
forked — a bad ``--set`` key fails in milliseconds, not after a fleet ran.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import traceback
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence, Union

from repro.core.accounting import BACKEND_ENV_VAR, resolve_analysis_backend
from repro.core.report import format_table
from repro.errors import SweepError
from repro.experiments.common import (
    blink_batch_plan, env_switch, experiment_params, run_experiment,
)
from repro.sim import faultinject
from repro.sim.shardstore import ShardStore

#: Bump when the cached payload layout changes; old entries then miss.
CACHE_FORMAT = 1


@dataclass(frozen=True)
class SweepPoint:
    """One cell of the campaign grid.

    ``overrides`` is a sorted tuple of raw ``(key, value-string)`` pairs —
    hashable, picklable, and parsed identically wherever the point runs.
    """

    exp_id: str
    seed: int
    overrides: tuple[tuple[str, str], ...] = ()

    def describe(self) -> str:
        if not self.overrides:
            return f"seed={self.seed}"
        joined = " ".join(f"{k}={v}" for k, v in self.overrides)
        return f"seed={self.seed} {joined}"


@dataclass
class PointResult:
    """What one grid point produced (the picklable reduction payload).

    Folded into the running aggregates and then dropped; only a
    :class:`PointSummary` survives in the sweep report.
    """

    point: SweepPoint
    data: dict[str, Any]
    comparisons: list[tuple[str, float, float]]
    digest: str  # sha256 of the rendered experiment output
    wall_s: float
    from_cache: bool = False

    @property
    def seed(self) -> int:
        return self.point.seed


@dataclass(frozen=True)
class PointSummary:
    """The per-point residue kept after folding: identity + provenance."""

    point: SweepPoint
    digest: str
    wall_s: float
    from_cache: bool = False

    @property
    def seed(self) -> int:
        return self.point.seed


@dataclass(frozen=True)
class MetricStats:
    """Mean/spread of one numeric quantity across the fleet."""

    name: str
    n: int
    mean: float
    stddev: float  # sample stddev (ddof=1); 0 for a single point
    ci95: float  # normal-approximation 95 % half-width of the mean
    min: float
    max: float


@dataclass(frozen=True)
class ComparisonStats:
    """A paper-vs-measured comparison averaged over the fleet."""

    name: str
    paper: float
    mean: float
    stddev: float


# -- streaming aggregation --------------------------------------------------


class RunningStat:
    """Welford's online mean/variance plus min/max — O(1) state per
    metric, numerically stable, and deterministic for a fixed fold
    order (the runner always folds in grid order)."""

    __slots__ = ("n", "mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        self.n += 1
        delta = value - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (value - self.mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def stddev(self) -> float:
        if self.n <= 1:
            return 0.0
        return math.sqrt(self._m2 / (self.n - 1))

    @property
    def ci95(self) -> float:
        if self.n <= 1:
            return 0.0
        return 1.96 * self.stddev / math.sqrt(self.n)

    def stats(self, name: str) -> MetricStats:
        return MetricStats(
            name=name, n=self.n, mean=self.mean, stddev=self.stddev,
            ci95=self.ci95, min=self.min, max=self.max,
        )


class SweepAggregator:
    """Folds :class:`PointResult` payloads into running fleet statistics.

    One instance per campaign; :meth:`fold` is called once per point in
    grid order, after which the point's payload can be dropped.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, RunningStat] = {}
        self._comparison_order: list[str] = []
        self._comparison_paper: dict[str, float] = {}
        self._comparisons: dict[str, RunningStat] = {}

    def fold(self, result: PointResult) -> None:
        for name, value in numeric_leaves(result.data).items():
            stat = self._metrics.get(name)
            if stat is None:
                stat = self._metrics[name] = RunningStat()
            stat.add(value)
        for name, paper, value in result.comparisons:
            stat = self._comparisons.get(name)
            if stat is None:
                stat = self._comparisons[name] = RunningStat()
                self._comparison_order.append(name)
                self._comparison_paper[name] = paper
            stat.add(value)

    def metrics(self) -> list[MetricStats]:
        return [self._metrics[name].stats(name)
                for name in sorted(self._metrics)]

    def comparisons(self) -> list[ComparisonStats]:
        stats = []
        for name in self._comparison_order:
            stat = self._comparisons[name]
            stats.append(ComparisonStats(
                name=name, paper=self._comparison_paper[name],
                mean=stat.mean, stddev=stat.stddev,
            ))
        return stats


@dataclass
class SweepResult:
    """The aggregated outcome of a whole campaign."""

    exp_id: str
    points: list[PointSummary]
    jobs: int
    wall_s: float
    metrics: list[MetricStats] = field(default_factory=list)
    comparisons: list[ComparisonStats] = field(default_factory=list)
    cache_dir: Optional[str] = None
    cache_hits: int = 0
    backend: Optional[str] = None  # analysis backend, when explicitly set
    batch: int = 1  # worlds per in-process batch (1 = unbatched)

    @property
    def seeds(self) -> list[int]:
        return [point.seed for point in self.points]

    @property
    def simulated(self) -> int:
        """Points actually run this campaign (not served from cache)."""
        return len(self.points) - self.cache_hits

    @property
    def serial_wall_s(self) -> float:
        """Sum of per-point wall times (the serial-execution estimate;
        cached points contribute their originally recorded time)."""
        return math.fsum(point.wall_s for point in self.points)

    def digest(self) -> str:
        """One hash over all per-point digests, in grid order."""
        hasher = hashlib.sha256()
        for point in self.points:
            hasher.update(point.point.describe().encode("utf-8"))
            hasher.update(point.digest.encode("ascii"))
        return hasher.hexdigest()

    def metric(self, name: str) -> MetricStats:
        for stats in self.metrics:
            if stats.name == name:
                return stats
        raise KeyError(name)

    def render(self) -> str:
        mode = f"parallel x{self.jobs}" if self.jobs > 1 else "serial"
        header = [
            f"== sweep: {self.exp_id} over {len(self.points)} points ==",
            f"-- mode: {mode}, batch {self.batch}; wall {self.wall_s:.2f} s "
            f"(serial estimate {self.serial_wall_s:.2f} s)",
        ]
        if self.backend is not None:
            header.append(f"-- analysis backend: {self.backend}")
        if self.cache_dir is not None:
            header.append(
                f"-- cache: {self.cache_hits} reused, "
                f"{self.simulated} simulated ({self.cache_dir})"
            )
        header.append(f"-- sweep digest: {self.digest()}")
        parts = ["\n".join(header)]
        if self.metrics:
            rows = [
                (stats.name, str(stats.n), f"{stats.mean:.6g}",
                 f"{stats.stddev:.3g}", f"{stats.ci95:.3g}",
                 f"{stats.min:.6g}", f"{stats.max:.6g}")
                for stats in self.metrics
            ]
            parts.append(format_table(
                ("metric", "n", "mean", "stddev", "ci95", "min", "max"),
                rows, title="aggregate metrics"))
        if self.comparisons:
            rows = []
            for comp in self.comparisons:
                ratio = f"{comp.mean / comp.paper:.3f}" if comp.paper else "-"
                rows.append((comp.name, f"{comp.paper:g}",
                             f"{comp.mean:.4g}", f"{comp.stddev:.3g}", ratio))
            parts.append(format_table(
                ("metric", "paper", "mean", "stddev", "ratio"), rows,
                title="paper vs measured (fleet mean)"))
        rows = [
            (point.point.describe(), point.digest[:16],
             f"{point.wall_s:.3f}",
             "cache" if point.from_cache else "run")
            for point in self.points
        ]
        parts.append(format_table(
            ("point", "digest", "wall (s)", "source"), rows,
            title="per-point digests"))
        return "\n\n".join(parts)


# -- on-disk result cache ---------------------------------------------------


_code_fingerprint_cache: Optional[str] = None


def code_fingerprint() -> str:
    """sha256 over every ``repro`` source file (path + contents).

    The cache-invalidation rule: a cached point is valid only for the
    exact source tree that produced it.  Editing *any* module — an
    experiment, a driver, the simulator — changes the fingerprint and
    every prior cache entry silently misses.  Computed once per process.
    """
    global _code_fingerprint_cache
    if _code_fingerprint_cache is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        hasher = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            hasher.update(str(path.relative_to(root)).encode("utf-8"))
            hasher.update(b"\0")
            hasher.update(path.read_bytes())
        _code_fingerprint_cache = hasher.hexdigest()
    return _code_fingerprint_cache


#: With this env switch on (``1``; ``0``/``off``/``no``/``false`` or
#: unset is off), every store (not just the first per run) re-parses its
#: JSON payload to prove the round-trip is lossless — the debug mode of
#: the identity check below.
CACHE_VERIFY_ENV_VAR = "REPRO_CACHE_VERIFY"


class SweepCache:
    """Digest-keyed per-point result store under one directory.

    Layout: one packed :class:`~repro.sim.shardstore.ShardStore` per
    experiment — ``<root>/<exp_id>.shard`` plus its ``.idx`` accelerator
    — holding JSON point payloads under the same 32-byte keys as ever
    (format version, code fingerprint, exp_id, seed, overrides all
    hashed in, so any source edit still auto-invalidates).  The cache is
    strictly best-effort: loads tolerate missing or torn records and
    stores tolerate unwritable targets (both just miss — a broken cache
    slows a campaign down, never kills or corrupts it).

    Round-trip identity: a cache hit must fold the same bytes a fresh
    run would have.  ``json.dumps``/``loads`` is lossless for the JSON
    types experiments report, so the expensive proof (re-parsing every
    payload on store — O(payload) per point) runs **once per process**
    as a canary; set ``$REPRO_CACHE_VERIFY=1`` to check every store
    while debugging an experiment that emits exotic payloads.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self._stores: dict[str, ShardStore] = {}

    def point_key(self, point: SweepPoint) -> str:
        # JSON-encode the identity so delimiter characters inside
        # override values can never collide two distinct points.
        identity = json.dumps(
            [CACHE_FORMAT, code_fingerprint(), point.exp_id, point.seed,
             [[key, value] for key, value in point.overrides]],
            separators=(",", ":"),
        )
        return hashlib.sha256(identity.encode("utf-8")).hexdigest()

    def _store_for(self, exp_id: str) -> ShardStore:
        store = self._stores.get(exp_id)
        if store is None:
            store = ShardStore(self.root / f"{exp_id}.shard")
            self._stores[exp_id] = store
        return store

    def _raw_key(self, point: SweepPoint) -> bytes:
        return bytes.fromhex(self.point_key(point))

    def refresh(self) -> None:
        """Drop cached index state so the next probe re-reads disk —
        how the campaign runner observes points its worker processes
        appended after this object last looked."""
        for store in self._stores.values():
            store.refresh()

    def has(self, point: SweepPoint) -> bool:
        """Index probe (no payload read) — used to plan the pool before
        any payload is held in memory."""
        try:
            return self._store_for(point.exp_id).has(self._raw_key(point))
        except OSError:  # pragma: no cover - stat trouble = miss
            return False

    def load(self, point: SweepPoint) -> Optional[PointResult]:
        raw = self._store_for(point.exp_id).load(self._raw_key(point))
        if raw is None:
            return None
        try:
            payload = json.loads(raw)
            return PointResult(
                point=point,
                data=payload["data"],
                comparisons=[tuple(c) for c in payload["comparisons"]],
                digest=payload["digest"],
                wall_s=payload["wall_s"],
                from_cache=True,
            )
        except (ValueError, KeyError, TypeError):
            return None

    _roundtrip_verified = False  # class-wide once-per-process canary

    def store(self, result: PointResult) -> bool:
        payload = {
            "describe": result.point.describe(),
            "data": result.data,
            "comparisons": [list(c) for c in result.comparisons],
            "digest": result.digest,
            "wall_s": result.wall_s,
        }
        try:
            text = json.dumps(payload)
        except (TypeError, ValueError):
            return False  # non-JSON payload: run it fresh every time
        if not SweepCache._roundtrip_verified \
                or env_switch(CACHE_VERIFY_ENV_VAR, default=False):
            if json.loads(text) != payload:
                # Lossy round-trip would break hit/miss identity.
                return False
            SweepCache._roundtrip_verified = True
        return self._store_for(result.point.exp_id).store(
            self._raw_key(result.point), text.encode("utf-8"))


# -- grid -----------------------------------------------------------------


def expand_grid(
    exp_id: str,
    seeds: Iterable[int],
    overrides: Optional[Mapping[str, Sequence[str]]] = None,
) -> list[SweepPoint]:
    """Cross seeds with every combination of override values.

    ``overrides`` maps parameter name to the list of values it sweeps
    over.  Points come out in deterministic order: seed-major, then the
    cartesian product of override values in key order.  Keys and values
    are validated against the experiment's parameters before anything
    runs.
    """
    params = experiment_params(exp_id)
    overrides = overrides or {}
    for key, values in overrides.items():
        param = params.get(key)
        if param is None:
            known = ", ".join(sorted(params)) or "(none)"
            raise SweepError(
                f"experiment {exp_id!r} has no parameter {key!r}; "
                f"sweepable parameters: {known}"
            )
        if not values:
            raise SweepError(f"parameter {key!r} has no values to sweep")
        for value in values:
            param.parse(value)  # fail fast on a bad grid, pre-fork

    combos: list[tuple[tuple[str, str], ...]] = [()]
    for key in sorted(overrides):
        combos = [
            combo + ((key, str(value)),)
            for combo in combos
            for value in overrides[key]
        ]
    seeds = list(seeds)
    if not seeds:
        raise SweepError("a sweep needs at least one seed")
    return [
        SweepPoint(exp_id=exp_id, seed=int(seed), overrides=combo)
        for seed in seeds
        for combo in combos
    ]


# -- execution ------------------------------------------------------------


def run_point(point: SweepPoint) -> PointResult:
    """Execute one grid point (the worker function; must stay module-level
    so it pickles for the pool)."""
    faultinject.fire("point", selector=point.seed)
    start = time.perf_counter()
    result = run_experiment(
        point.exp_id, seed=point.seed, overrides=dict(point.overrides)
    )
    text = result.render()
    return PointResult(
        point=point,
        data=result.data,
        comparisons=list(result.comparisons),
        digest=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        wall_s=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class PointFailure:
    """What :func:`_iter_chunk` yields instead of raising: the failed
    point plus the formatted traceback.  A raise inside a pool worker
    would throw away the rest of its chunk; this travels as an ordinary
    result, so the parent retries the one point in-process and keeps
    every other point's output."""

    point: SweepPoint
    error: str
    worker_traceback: str = ""


#: In-process retry budget for a point that failed (exception or worker
#: death).
DEFAULT_POINT_RETRIES = 2


def _run_point_fresh(point: SweepPoint) -> PointResult:
    """One retry attempt with every world cache dropped and warm start
    disabled: a point that failed must not inherit whatever half-mutated
    world state the failure may have left behind."""
    from repro.experiments.common import (
        WARM_START_ENV_VAR, clear_batch_worlds, clear_warm_worlds,
    )

    previous = os.environ.get(WARM_START_ENV_VAR)
    os.environ[WARM_START_ENV_VAR] = "0"
    clear_warm_worlds()
    clear_batch_worlds()
    try:
        return run_point(point)
    finally:
        if previous is None:
            del os.environ[WARM_START_ENV_VAR]
        else:
            os.environ[WARM_START_ENV_VAR] = previous


def _settle(outcome: Union[PointResult, PointFailure]) -> PointResult:
    """Pass a result through; re-run a failed point in-process (fresh
    world each attempt) and, after the retry budget, raise naming the
    point and every error seen."""
    if not isinstance(outcome, PointFailure):
        return outcome
    point = outcome.point
    errors = [outcome.error]
    for _attempt in range(DEFAULT_POINT_RETRIES):
        try:
            return _run_point_fresh(point)
        except Exception as exc:  # noqa: BLE001 - the retry boundary
            errors.append(f"{type(exc).__name__}: {exc}")
    detail = "; then ".join(errors)
    trace = f"\nworker traceback:\n{outcome.worker_traceback}" \
        if outcome.worker_traceback else ""
    raise SweepError(
        f"grid point [{point.describe()}] of {point.exp_id} failed "
        f"{len(errors)} times ({detail}){trace}"
    )


#: Default worlds-per-batch for the in-process executor.  K=8 amortizes
#: per-point loop entry and decode without holding more than a handful
#: of worlds live; override per campaign with ``batch=``/``--batch`` or
#: process-wide with ``$REPRO_SWEEP_BATCH``.
DEFAULT_BATCH_K = 8

BATCH_ENV_VAR = "REPRO_SWEEP_BATCH"


def resolve_batch(batch: Optional[int]) -> int:
    """The effective worlds-per-batch: an explicit argument wins, then
    ``$REPRO_SWEEP_BATCH``, then the default.  Values below 1 clamp to
    1 (unbatched)."""
    if batch is None:
        raw = os.environ.get(BATCH_ENV_VAR, "").strip()
        if raw:
            try:
                batch = int(raw)
            except ValueError:
                raise SweepError(
                    f"${BATCH_ENV_VAR} must be an integer, got {raw!r}")
        else:
            batch = DEFAULT_BATCH_K
    return max(1, int(batch))


def _batch_plans(
    points: Sequence[SweepPoint], k: int,
) -> list[Optional[tuple[int, ...]]]:
    """Per-point batch plans: group the points by configuration (same
    experiment, same overrides), chunk each group into runs of ``k``
    consecutive points, and give each chunk head the chunk's seed list.
    Non-heads get ``None`` — their worlds come from the pool the head's
    batch filled.  Batching only changes wall time: every point's
    digest is identical to its serial run (``tests/test_batched.py``).
    """
    plans: list[Optional[tuple[int, ...]]] = [None] * len(points)
    groups: dict[tuple, list[int]] = {}
    for index, point in enumerate(points):
        groups.setdefault(
            (point.exp_id, point.overrides), []).append(index)
    for indices in groups.values():
        for start in range(0, len(indices), k):
            chunk = indices[start:start + k]
            if len(chunk) > 1:
                plans[chunk[0]] = tuple(
                    points[index].seed for index in chunk)
    return plans


def _iter_chunk(
    points: Sequence[SweepPoint], k: int,
) -> Iterator[Union[PointResult, PointFailure]]:
    """The one place grid points run — in-process, in pool workers and
    in campaign workers alike.  Points run in order, with each chunk
    head announcing its chunk's seeds so ``run_blink`` simulates the
    whole chunk as one interleaved batch (K=1 plans no batches).  A
    point that raises becomes a :class:`PointFailure` in place and the
    rest still run (batch siblings of a failed head fall back to their
    serial path)."""
    for point, plan in zip(points, _batch_plans(points, k)):
        try:
            if plan is None:
                outcome = run_point(point)
            else:
                with blink_batch_plan(plan):
                    outcome = run_point(point)
        except Exception as exc:  # noqa: BLE001 - settled by the caller
            outcome = PointFailure(
                point=point, error=f"{type(exc).__name__}: {exc}",
                worker_traceback=traceback.format_exc())
        yield outcome


def _run_chunk(
    points: Sequence[SweepPoint], k: int,
) -> list[Union[PointResult, PointFailure]]:
    """The pool worker function (module-level so it pickles)."""
    return list(_iter_chunk(points, k))


def _iter_pool(
    misses: Sequence[SweepPoint],
    jobs: int,
    batch: int,
    fingerprint: Optional[str],
) -> Iterator[Union[PointResult, PointFailure]]:
    """Run the misses on a ``jobs``-wide process pool and yield their
    outcomes in grid order.

    Whole chunks travel to the workers so each can run its K-world
    batches.  Every chunk is submitted up front and the futures are
    read in submission order: workers never wait for the parent, and
    the fold stays in grid order with no re-order buffer.  A worker
    that dies (SIGKILL, OOM, a segfaulting extension) breaks the pool;
    every chunk not yet returned then comes back as
    :class:`PointFailure` rows, which :func:`_settle` re-runs
    in-process.  Closing the generator (the sweep finished or aborted)
    cancels the chunks still queued.
    """
    import multiprocessing
    from concurrent.futures.process import (
        BrokenProcessPool, ProcessPoolExecutor,
    )

    # ``fork`` where the platform has it: workers inherit the warm
    # interpreter (no re-import cost), and since every experiment seeds
    # itself from its point, inherited state cannot leak into results.
    context = multiprocessing.get_context(
        "fork" if hasattr(os, "fork") else "spawn")
    # ~jobs*4 chunks in total (about 4 per worker) amortize the IPC
    # round-trips and keep the tail balanced when point durations are
    # uneven (long seeds, heavy override combos).
    size = max(1, len(misses) // (jobs * 4))
    chunks = [misses[start:start + size]
              for start in range(0, len(misses), size)]
    # The source-tree fingerprint is computed once, in the parent,
    # before the fork: workers inherit it (fork) or get it from the
    # initializer (spawn) instead of each hashing the whole tree on
    # their first cache store.
    pool = ProcessPoolExecutor(
        max_workers=jobs, mp_context=context,
        initializer=_seed_worker_fingerprint if fingerprint else None,
        initargs=(fingerprint,))
    try:
        futures = [pool.submit(_run_chunk, chunk, batch) for chunk in chunks]
        for chunk, future in zip(chunks, futures):
            try:
                outcomes = future.result()
            except BrokenProcessPool:
                died = "pool worker died before returning this point"
                outcomes = [PointFailure(point=point, error=died)
                            for point in chunk]
            yield from outcomes
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def _seed_worker_fingerprint(fingerprint: str) -> None:
    """Pool initializer: install the parent's precomputed source-tree
    fingerprint so no worker ever re-hashes the whole tree (inherited
    for free under ``fork``; shipped explicitly for ``spawn``)."""
    global _code_fingerprint_cache
    _code_fingerprint_cache = fingerprint


def _merge_in_grid_order(
    points: Sequence[SweepPoint],
    hits: Sequence[bool],
    cache: Optional["SweepCache"],
    fresh: Iterator[PointResult],
) -> Iterator[PointResult]:
    """Interleave cached and freshly simulated results back into grid
    order (``fresh`` yields misses in their grid order).  Cached
    payloads load lazily, one at a time, so a warm rerun never holds
    more than the point being folded; an entry that probed present but
    fails to parse (corrupt file) is simulated inline — a slow point,
    never a lost campaign."""
    for index, point in enumerate(points):
        if hits[index]:
            result = cache.load(point)
            if result is None:
                result = _settle(next(_iter_chunk([point], 1)))
            yield result
        else:
            yield next(fresh)


def run_sweep(
    exp_id: str,
    seeds: Iterable[int],
    overrides: Optional[Mapping[str, Sequence[str]]] = None,
    jobs: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    backend: Optional[str] = None,
    batch: Optional[int] = None,
) -> SweepResult:
    """Run a campaign and aggregate it, streaming.

    ``jobs <= 1`` runs in-process (the serial reference); ``jobs > 1``
    fans points out to a worker pool; ``jobs == 0`` auto-detects the
    usable CPU count (the scheduling affinity mask where the platform
    exposes one, so a containerized run sized to 2 cores gets 2 workers,
    not the host's 64).  Either way the per-point payloads are identical
    and are folded in grid order — the pool only changes wall time.  A
    point that raises, or whose pool worker dies, is re-run in-process
    on a fresh world up to ``DEFAULT_POINT_RETRIES`` times before a
    :class:`SweepError` names it.

    With ``cache_dir`` set, previously simulated points load from the
    digest-keyed packed store and only the rest are dispatched; fresh
    results are stored back for the next campaign.

    ``backend`` selects the analysis backend for every point: it is
    exported as ``$REPRO_ANALYSIS_BACKEND`` for the duration of the
    campaign (child processes inherit the parent environment under
    every start method) and restored afterwards.  The channel is
    process-global, so concurrent sweeps with *different* explicit
    backends from threads of one process are unsupported — though by
    the bit-identity contract their results could not differ anyway.
    Per-point digests — and therefore cache keys — do not depend on the
    backend; a cached sweep folds the same bytes whichever backend
    produced them.
    """
    with _analysis_backend(backend) as backend:
        result = _run_sweep_inner(
            exp_id, seeds, overrides, jobs=jobs, cache_dir=cache_dir,
            batch=batch,
        )
    result.backend = backend
    return result


@contextmanager
def _analysis_backend(backend: Optional[str]) -> Iterator[Optional[str]]:
    """Export ``backend`` (validated) as ``$REPRO_ANALYSIS_BACKEND`` for
    the block and restore the previous value afterwards; yields the
    resolved name.  ``None`` leaves the environment alone."""
    if backend is None:
        yield None
        return
    backend = resolve_analysis_backend(backend)
    previous = os.environ.get(BACKEND_ENV_VAR)
    os.environ[BACKEND_ENV_VAR] = backend
    try:
        yield backend
    finally:
        if previous is None:
            del os.environ[BACKEND_ENV_VAR]
        else:
            os.environ[BACKEND_ENV_VAR] = previous


def detect_jobs() -> int:
    """Usable worker count: the CPU affinity mask's size where the OS
    has one (cgroup/taskset-limited CI boxes), else ``os.cpu_count()``.
    Raw ``cpu_count`` oversubscribes containerized runners — it reports
    the host's cores no matter how few the container may schedule on."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            usable = len(affinity(0))
            if usable > 0:
                return usable
        except OSError:  # pragma: no cover - exotic platform trouble
            pass
    return os.cpu_count() or 1


def _run_sweep_inner(
    exp_id: str,
    seeds: Iterable[int],
    overrides: Optional[Mapping[str, Sequence[str]]] = None,
    jobs: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    cache: Optional["SweepCache"] = None,
    batch: Optional[int] = None,
) -> SweepResult:
    """:func:`run_sweep` minus the backend export.  ``cache`` overrides
    the store built from ``cache_dir`` (which then only labels the
    header) — how a campaign merge folds a union of several stores."""
    batch = resolve_batch(batch)
    points = expand_grid(exp_id, seeds, overrides)
    start = time.perf_counter()
    if cache is None and cache_dir is not None:
        cache = SweepCache(cache_dir)
    # Plan with a cheap existence probe; payloads load one at a time
    # during the fold, so a warm rerun stays as lean as a cold one.
    hits = [cache is not None and cache.has(point) for point in points]
    misses = [point for point, hit in zip(points, hits) if not hit]
    if jobs == 0:
        jobs = detect_jobs()
    # jobs records how the campaign actually ran (for the provenance
    # header): the pool is never wider than the work, and a fully-cached
    # or jobs<=1 campaign runs in-process.
    jobs = max(1, min(jobs, len(misses))) if misses else 1

    aggregator = SweepAggregator()
    summaries: list[PointSummary] = []

    def fold(result: PointResult) -> None:
        aggregator.fold(result)
        if cache is not None and not result.from_cache:
            cache.store(result)
        summaries.append(PointSummary(
            point=result.point, digest=result.digest,
            wall_s=result.wall_s, from_cache=result.from_cache,
        ))

    if jobs == 1:
        outcomes = _iter_chunk(misses, batch)
    else:
        outcomes = _iter_pool(
            misses, jobs, batch,
            code_fingerprint() if cache is not None else None)
    with closing(outcomes):
        fresh = map(_settle, outcomes)
        for result in _merge_in_grid_order(points, hits, cache, fresh):
            fold(result)
    wall_s = time.perf_counter() - start
    return SweepResult(
        exp_id=exp_id, points=summaries, jobs=jobs, wall_s=wall_s,
        metrics=aggregator.metrics(),
        comparisons=aggregator.comparisons(),
        cache_dir=str(cache_dir) if cache_dir is not None else None,
        cache_hits=sum(1 for s in summaries if s.from_cache),
        batch=batch,
    )


# -- aggregation ----------------------------------------------------------


def numeric_leaves(data: Mapping[str, Any], prefix: str = "") -> dict[str, float]:
    """Flatten nested dicts of numbers into dotted-path leaves.

    Non-numeric leaves (strings, arrays, objects) are skipped — they are
    per-run artifacts, not fleet statistics.
    """
    leaves: dict[str, float] = {}
    for key, value in data.items():
        path = f"{prefix}{key}"
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            leaves[path] = float(value)
        elif isinstance(value, Mapping):
            leaves.update(numeric_leaves(value, prefix=f"{path}."))
    return leaves


def aggregate_metrics(results: Sequence[PointResult]) -> list[MetricStats]:
    """Mean/stddev/CI for every numeric leaf present in any point (the
    batch wrapper over :class:`SweepAggregator`)."""
    aggregator = SweepAggregator()
    for result in results:
        aggregator.fold(result)
    return aggregator.metrics()


def aggregate_comparisons(
    results: Sequence[PointResult],
) -> list[ComparisonStats]:
    """Fleet means of the paper-vs-measured comparisons, in the order the
    experiment reports them."""
    aggregator = SweepAggregator()
    for result in results:
        aggregator.fold(result)
    return aggregator.comparisons()
