"""Fault-tolerant campaign orchestrator: manifests, retries, resume.

A *campaign* is a sweep big enough that something will go wrong before
it finishes: a worker OOMs, a machine straggles, the runner itself is
killed.  :func:`repro.sim.sweep.run_sweep` already makes one process's
sweep deterministic and cached; this module makes the **whole multi-
process campaign** a durable, resumable object:

* :class:`CampaignManifest` — the campaign *is* a file.  One schema-
  versioned JSON document records the experiment, seed list, override
  grid, shard plan, worker/retry/deadline knobs, the cache directory,
  and (once known) the expected per-point digests plus the expected
  sweep digest.  Re-running a manifest is always safe: work that is
  already stored and verified is never re-simulated.

* :class:`CampaignRunner` — dispatches each shard to a worker
  subprocess (``python -m repro campaign worker <manifest> --shard
  i/N``), asynchronously, up to a concurrency cap.  Shards that die are
  retried with capped exponential backoff; shards that *straggle* past
  the per-shard deadline get a speculative backup dispatched **while
  the original keeps running** — whichever lands first wins, the loser
  is killed.  Re-dispatch is harmless by construction: the shard store
  is last-write-wins and a point's payload is deterministic, so a
  duplicate append stores the same bytes under the same key.

* Incremental fold — the runner folds :class:`PointSummary`s as shards
  land, not at the end: whenever a new contiguous prefix of the grid is
  verified on disk it is folded through the same grid-order Welford
  aggregation as a serial run (order is what makes the float aggregates
  byte-identical), and each folded point's digest is appended to a
  crash-safe ledger next to the manifest.

* One merge path — :func:`merge_campaign` (``campaign merge``) folds
  the manifest's store, plus any other machines' cache dirs, in
  canonical grid order.  Multi-machine use: ``campaign plan`` once,
  copy the manifest to each machine, run ``campaign worker <manifest>
  --shard i/N`` on machine ``i``, then ``campaign merge <manifest>
  --cache-dir <other machines' dirs> --strict`` anywhere.

* First-class resume — ``run()`` **is** resume.  On entry the runner
  scans the cache, verifies every stored point (parse + digest check
  against the manifest's expected digests and the ledger), and
  schedules only the missing or corrupt remainder.  A campaign killed
  at any instant — runner, workers, or both — rerun with the same
  manifest produces a ``SweepResult.digest()`` byte-identical to an
  uninterrupted serial ``run_sweep``.

The failure modes themselves are driven by :mod:`repro.sim.faultinject`
(worker crashes at named sites, injected I/O errors, torn tails,
stragglers), which is how ``tests/test_campaign.py`` and the CI chaos
job prove each recovery path instead of trusting it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from repro.errors import CampaignError
from repro.sim import faultinject
from repro.sim.sweep import (
    PointFailure,
    PointResult,
    PointSummary,
    SweepAggregator,
    SweepCache,
    SweepPoint,
    SweepResult,
    _iter_chunk,
    _run_sweep_inner,
    code_fingerprint,
    detect_jobs,
    expand_grid,
    resolve_batch,
)

#: Bump when the manifest layout changes incompatibly.  Loading a newer
#: schema than we understand is an error; older schemas are upgraded
#: in :meth:`CampaignManifest.load` (none exist yet).
MANIFEST_SCHEMA = 1

MANIFEST_KIND = "repro-campaign"

#: A straggling shard whose retry budget is exhausted is still given
#: this many deadlines to finish before the campaign gives up on it.
_HARD_DEADLINE_FACTOR = 5

#: A shard's n-th failed attempt is re-dispatched after
#: BACKOFF_S * 2**(n - 1) seconds, capped at BACKOFF_CAP_S.
BACKOFF_S = 0.25
BACKOFF_CAP_S = 30.0


def _default_workers(shards: int) -> int:
    return max(1, min(shards, detect_jobs()))


@dataclass
class CampaignManifest:
    """The durable description of one campaign (see module docstring).

    ``cache_dir`` is stored as written but resolved **relative to the
    manifest's own directory**, so a campaign directory (manifest +
    cache + ledger + logs) can be moved or rsynced between machines and
    resumed in place.

    ``expected`` maps cache point-key (hex) to the point's digest and
    ``expected_sweep_digest`` pins the whole-campaign digest; both are
    written back by the runner when the campaign first completes, so
    every later resume/merge verifies against them.  Keys embed the
    source-tree fingerprint, so entries from an older source tree are
    inert (they can never match a current point's key) rather than
    wrong.
    """

    experiment: str
    seeds: list[int]
    overrides: dict[str, list[str]] = field(default_factory=dict)
    shards: int = 1
    workers: int = 0  # 0 = auto: min(shards, detected CPUs)
    batch: Optional[int] = None
    deadline_s: Optional[float] = None  # straggler threshold per shard
    max_retries: int = 3  # re-dispatches per shard beyond the first
    cache_dir: str = "cache"
    fingerprint: Optional[str] = None
    expected: dict[str, str] = field(default_factory=dict)
    expected_sweep_digest: Optional[str] = None
    path: Optional[Path] = None  # where this manifest lives (not serialized)

    # -- (de)serialization --------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": MANIFEST_KIND,
            "schema": MANIFEST_SCHEMA,
            "experiment": self.experiment,
            "seeds": list(self.seeds),
            "overrides": {k: list(v) for k, v in self.overrides.items()},
            "shards": self.shards,
            "workers": self.workers,
            "batch": self.batch,
            "deadline_s": self.deadline_s,
            "max_retries": self.max_retries,
            "cache_dir": self.cache_dir,
            "fingerprint": self.fingerprint,
            "expected": dict(self.expected),
            "expected_sweep_digest": self.expected_sweep_digest,
        }

    def save(self, path: Optional[Union[str, Path]] = None) -> Path:
        """Atomically (re)write the manifest: tmp file, fsync, rename —
        a crash mid-save leaves either the old manifest or the new one,
        never a torn hybrid."""
        if path is not None:
            self.path = Path(path)
        if self.path is None:
            raise CampaignError("manifest has no path to save to")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + f".tmp{os.getpid()}")
        text = json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"
        with open(tmp, "w", encoding="utf-8") as fileobj:
            fileobj.write(text)
            fileobj.flush()
            os.fsync(fileobj.fileno())
        os.replace(tmp, self.path)
        return self.path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignManifest":
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise CampaignError(f"cannot read manifest {path}: {exc}")
        except ValueError as exc:
            raise CampaignError(f"manifest {path} is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise CampaignError(f"manifest {path} must be a JSON object")
        if raw.get("kind") != MANIFEST_KIND:
            raise CampaignError(
                f"manifest {path}: kind {raw.get('kind')!r} is not "
                f"{MANIFEST_KIND!r}")
        schema = raw.get("schema")
        if not isinstance(schema, int):
            raise CampaignError(f"manifest {path}: missing integer 'schema'")
        if schema > MANIFEST_SCHEMA:
            raise CampaignError(
                f"manifest {path}: schema {schema} is newer than this "
                f"repro understands ({MANIFEST_SCHEMA})")
        manifest = cls(
            experiment=_field(raw, path, "experiment", str),
            seeds=[int(s) for s in _field(raw, path, "seeds", list)],
            overrides={
                str(k): [str(x) for x in v]
                for k, v in (raw.get("overrides") or {}).items()
            },
            shards=int(raw.get("shards", 1)),
            workers=int(raw.get("workers", 0)),
            batch=(None if raw.get("batch") is None
                   else int(raw["batch"])),
            deadline_s=(None if raw.get("deadline_s") is None
                        else float(raw["deadline_s"])),
            max_retries=int(raw.get("max_retries", 3)),
            cache_dir=str(raw.get("cache_dir", "cache")),
            fingerprint=raw.get("fingerprint"),
            expected={
                str(k): str(v) for k, v in (raw.get("expected") or {}).items()
            },
            expected_sweep_digest=raw.get("expected_sweep_digest"),
            path=path,
        )
        manifest.validate()
        return manifest

    def validate(self) -> None:
        """Reject values a campaign cannot run with — one check for
        :func:`plan_campaign` and :meth:`load`, so a plan never writes
        a manifest that the runner then refuses."""
        problem = None
        if not self.seeds:
            problem = "'seeds' is empty"
        elif self.shards < 1:
            problem = f"shards must be >= 1, got {self.shards}"
        elif self.workers < 0:
            problem = f"workers must be >= 0, got {self.workers}"
        elif self.max_retries < 0:
            problem = f"max_retries must be >= 0, got {self.max_retries}"
        elif self.deadline_s is not None and not self.deadline_s > 0:
            problem = f"deadline_s must be > 0, got {self.deadline_s}"
        if problem is not None:
            raise CampaignError(f"manifest {self.path}: {problem}")

    # -- derived views ------------------------------------------------------

    def grid(self) -> list[SweepPoint]:
        """The canonical grid (validates experiment and overrides)."""
        return expand_grid(self.experiment, self.seeds, self.overrides)

    def resolved_cache_dir(self) -> Path:
        """``cache_dir`` resolved against the manifest's directory."""
        cache = Path(self.cache_dir)
        if cache.is_absolute() or self.path is None:
            return cache
        return self.path.parent / cache

    def ledger_path(self) -> Path:
        if self.path is None:
            raise CampaignError("manifest has no path; ledger undefined")
        return self.path.with_name(self.path.stem + ".ledger.jsonl")

    def effective_workers(self) -> int:
        return self.workers if self.workers > 0 \
            else _default_workers(self.shards)


def parse_shard(spec: str) -> tuple[int, int]:
    """Parse an ``i/N`` shard spec (``0/4`` … ``3/4``) into (index, count).

    Zero-based: shard ``i`` of ``N`` owns the grid points whose canonical
    index ≡ i (mod N).
    """
    index_str, sep, count_str = spec.partition("/")
    try:
        if not sep:
            raise ValueError(spec)
        index, count = int(index_str), int(count_str)
    except ValueError:
        raise CampaignError(
            f"bad shard spec {spec!r}; expected i/N, e.g. 0/4") from None
    if count < 1 or not 0 <= index < count:
        raise CampaignError(
            f"bad shard spec {spec!r}: need 0 <= i < N, got i={index} N={count}")
    return index, count


def shard_points(
    points: Sequence[SweepPoint], index: int, count: int,
) -> list[SweepPoint]:
    """Shard ``index`` of ``count``'s slice of the canonical grid.

    Round-robin over the canonical (seed-major) grid order: point ``k``
    belongs to shard ``k mod count``.  The partition is a pure function
    of the grid — every point lands in exactly one shard, shards of one
    campaign never overlap, and their union is the grid — so N machines
    can each run ``campaign worker --shard i/N`` on copies of one
    manifest with no coordination, and :func:`merge_campaign` folds the
    stores back into the exact unsharded result.  Round-robin (rather
    than contiguous blocks) balances seed-correlated cost gradients
    across shards.
    """
    if count < 1 or not 0 <= index < count:
        raise CampaignError(
            f"bad shard: need 0 <= i < N, got i={index} N={count}")
    return list(points[index::count])


def _field(raw: Mapping[str, Any], path: Path, name: str, kind: type) -> Any:
    value = raw.get(name)
    if not isinstance(value, kind):
        raise CampaignError(
            f"manifest {path}: missing or mistyped field {name!r} "
            f"(expected {kind.__name__})")
    return value


def plan_campaign(
    exp_id: str,
    seeds: Sequence[int],
    overrides: Optional[Mapping[str, Sequence[str]]] = None,
    *,
    out_path: Union[str, Path],
    shards: int = 1,
    workers: int = 0,
    batch: Optional[int] = None,
    deadline_s: Optional[float] = None,
    max_retries: int = 3,
    cache_dir: str = "cache",
) -> CampaignManifest:
    """Validate a campaign spec (grid expansion fails fast on a bad
    experiment or override) and write its manifest."""
    manifest = CampaignManifest(
        experiment=exp_id,
        seeds=[int(s) for s in seeds],
        overrides={k: [str(x) for x in v]
                   for k, v in (overrides or {}).items()},
        shards=shards,
        workers=workers,
        batch=batch,
        deadline_s=deadline_s,
        max_retries=max_retries,
        cache_dir=cache_dir,
        path=Path(out_path),
    )
    manifest.validate()
    grid = manifest.grid()  # validation side effect
    if manifest.shards > len(grid):
        raise CampaignError(
            f"manifest wants {manifest.shards} shards for a "
            f"{len(grid)}-point grid; shards cannot exceed grid points")
    manifest.save(out_path)
    return manifest


# -- crash-safe fold ledger --------------------------------------------------


def read_ledger(path: Path) -> dict[str, str]:
    """Parse the fold ledger into {point-key-hex: digest}.

    Append-only JSONL; a torn final line (runner killed mid-append) is
    skipped, later entries win.  An unreadable ledger is an empty one —
    the ledger only accelerates verification, the payloads in the shard
    store remain the ground truth.
    """
    entries: dict[str, str] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return entries
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
            entries[str(row["key"])] = str(row["digest"])
        except (ValueError, KeyError, TypeError):
            continue  # torn tail or scribble: ignore
    return entries


class _Ledger:
    """Append-only digest journal for the folded prefix."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self._file = None

    def append(self, index: int, key: str, digest: str) -> None:
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "a", encoding="utf-8")
        self._file.write(json.dumps(
            {"i": index, "key": key, "digest": digest},
            separators=(",", ":")) + "\n")
        self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


# -- verification ------------------------------------------------------------


def _verified_result(
    cache: SweepCache,
    point: SweepPoint,
    expected_digest: Optional[str],
) -> Optional[PointResult]:
    """The stored result for ``point`` iff it parses and (when pinned)
    matches the expected digest; None for missing *or corrupt* — the
    caller treats both as "schedule it again"."""
    result = cache.load(point)
    if result is None:
        return None
    if expected_digest is not None and result.digest != expected_digest:
        return None
    return result


# -- worker side -------------------------------------------------------------


def run_worker(
    manifest_path: Union[str, Path],
    shard_index: int,
    shard_count: Optional[int] = None,
) -> int:
    """Execute one shard of a campaign (the ``campaign worker`` CLI).

    Loads the manifest, takes shard ``shard_index``'s deterministic
    slice of the grid, verifies which of its points are already stored
    (same parse-and-digest check the runner uses, so a corrupt record
    is re-simulated, not trusted), and simulates the rest through the
    batched executor, appending each result to the shared shard store
    as it lands.  Exits nonzero if any point fails or any append fails
    — a shard that cannot finish and persist its work must look dead
    to the runner, not done.  On a machine of its own, the worker is
    the whole per-machine step of a multi-machine campaign.

    Fault-injection sites (:mod:`repro.sim.faultinject`): ``pre-run``
    before the first point, ``pre-store`` before every append,
    ``mid-shard`` right after the first append — all with the shard
    index as selector.
    """
    manifest = CampaignManifest.load(manifest_path)
    if shard_count is not None and shard_count != manifest.shards:
        raise CampaignError(
            f"worker invoked with shard count {shard_count} but manifest "
            f"says {manifest.shards}")
    grid = manifest.grid()
    mine = shard_points(grid, shard_index, manifest.shards)
    cache = SweepCache(manifest.resolved_cache_dir())
    faultinject.fire("pre-run", selector=shard_index)
    missing = [
        point for point in mine
        if _verified_result(
            cache, point, manifest.expected.get(cache.point_key(point)),
        ) is None
    ]
    stored = 0
    for result in _iter_chunk(missing, resolve_batch(manifest.batch)):
        if isinstance(result, PointFailure):
            raise CampaignError(
                f"shard {shard_index}: grid point "
                f"[{result.point.describe()}] failed ({result.error})"
                f"\n{result.worker_traceback}")
        faultinject.fire("pre-store", selector=shard_index)
        if not cache.store(result):
            raise CampaignError(
                f"shard {shard_index}: store append failed for "
                f"[{result.point.describe()}]")
        stored += 1
        if stored == 1:
            faultinject.fire("mid-shard", selector=shard_index)
    return 0


# -- runner side -------------------------------------------------------------


@dataclass
class _ShardState:
    """Scheduler bookkeeping for one shard."""

    index: int
    grid_indices: list[int]
    launches: int = 0
    failures: int = 0
    next_eligible: float = 0.0  # monotonic time gate (backoff)
    procs: list = field(default_factory=list)  # [(Popen, started, log_path)]


class CampaignRunner:
    """Drives a manifest to completion (see module docstring).

    ``on_event`` receives one human-readable line per scheduling event
    (launch, exit, retry, straggler backup, fold progress); the CLI
    wires it to stderr.
    """

    #: Scheduler tick; bounds how late an exit/straggler is noticed.
    poll_s = 0.05

    #: How often the runner re-reads the store index looking for points
    #: its workers appended.
    refresh_s = 0.2

    def __init__(
        self,
        manifest: CampaignManifest,
        on_event: Optional[Callable[[str], None]] = None,
    ) -> None:
        if manifest.path is None:
            raise CampaignError(
                "CampaignRunner needs a saved manifest (workers re-read "
                "it from disk); call manifest.save(path) first")
        self.manifest = manifest
        self.workers = manifest.effective_workers()
        self._on_event = on_event

    def _event(self, message: str) -> None:
        if self._on_event is not None:
            self._on_event(message)

    # -- worker process management ------------------------------------

    def _worker_command(self, shard_index: int) -> list[str]:
        return [
            sys.executable, "-m", "repro", "campaign", "worker",
            str(self.manifest.path),
            "--shard", f"{shard_index}/{self.manifest.shards}",
        ]

    def _worker_env(self) -> dict[str, str]:
        # Make `python -m repro` resolvable for the child even when the
        # parent imported repro off a path not on PYTHONPATH (tests).
        import repro

        env = dict(os.environ)
        pkg_root = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = pkg_root if not existing \
            else pkg_root + os.pathsep + existing
        return env

    def _launch(self, state: _ShardState, *, backup: bool = False) -> None:
        logs = self.manifest.resolved_cache_dir() / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        log_path = logs / f"shard{state.index}.attempt{state.launches}.log"
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                self._worker_command(state.index),
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                env=self._worker_env(),
            )
        state.procs.append((proc, time.monotonic(), log_path))
        state.launches += 1
        kind = "backup for straggling shard" if backup else "shard"
        self._event(
            f"{kind} {state.index}: worker pid {proc.pid} launched "
            f"(attempt {state.launches})")

    @staticmethod
    def _kill(proc) -> None:
        try:
            proc.kill()
        except OSError:  # pragma: no cover - already gone
            pass
        try:
            proc.wait(timeout=5)
        except Exception:  # pragma: no cover - unkillable child
            pass

    # -- the run loop --------------------------------------------------

    def run(self) -> SweepResult:
        manifest = self.manifest
        start = time.perf_counter()
        grid = manifest.grid()
        cache = SweepCache(manifest.resolved_cache_dir())
        keys = [cache.point_key(point) for point in grid]
        ledger_digests = read_ledger(manifest.ledger_path())

        def expected_digest(index: int) -> Optional[str]:
            return manifest.expected.get(keys[index]) \
                or ledger_digests.get(keys[index])

        fingerprint = code_fingerprint()
        drifted = (manifest.fingerprint is not None
                   and manifest.fingerprint != fingerprint)
        if drifted:
            self._event(
                "note: source tree changed since this manifest was pinned; "
                "stored digests from the old tree cannot match and will be "
                "re-simulated, and the pinned sweep digest is not enforced")

        # Resume scan: every stored point is verified (parse + digest),
        # not just probed — a torn or bit-flipped record schedules its
        # point again instead of poisoning the fold.
        valid: set[int] = set()
        for index, point in enumerate(grid):
            if _verified_result(cache, point, expected_digest(index)) \
                    is not None:
                valid.add(index)
        initially_valid = frozenset(valid)

        shards = []
        for shard_index in range(manifest.shards):
            indices = list(range(shard_index, len(grid), manifest.shards))
            shards.append(_ShardState(
                index=shard_index, grid_indices=indices))
        pending_shards = [
            s for s in shards
            if any(i not in valid for i in s.grid_indices)
        ]
        self._event(
            f"campaign {manifest.experiment}: {len(grid)} points, "
            f"{len(valid)} already stored and verified, "
            f"{len(pending_shards)}/{manifest.shards} shards to run "
            f"on {self.workers} workers")

        aggregator = SweepAggregator()
        summaries: list[PointSummary] = []
        ledger = _Ledger(manifest.ledger_path())
        fold_next = 0

        def advance_fold() -> None:
            """Fold the verified contiguous grid prefix (grid order is
            the byte-identity contract) and journal each digest."""
            nonlocal fold_next
            while fold_next < len(grid) and fold_next in valid:
                index = fold_next
                result = _verified_result(
                    cache, grid[index], expected_digest(index))
                if result is None:
                    # Vanished between scan and fold (torn by a dying
                    # writer): un-verify and let the scheduler redo it.
                    valid.discard(index)
                    return
                aggregator.fold(result)
                summaries.append(PointSummary(
                    point=result.point, digest=result.digest,
                    wall_s=result.wall_s,
                    from_cache=index in initially_valid,
                ))
                ledger.append(index, keys[index], result.digest)
                fold_next += 1

        launched_any = False
        last_refresh = 0.0
        try:
            advance_fold()
            while fold_next < len(grid):
                now = time.monotonic()
                exited = self._reap(shards, valid)
                if exited or now - last_refresh >= self.refresh_s:
                    last_refresh = now
                    cache.refresh()
                    for index, point in enumerate(grid):
                        if index not in valid and _verified_result(
                                cache, point, expected_digest(index),
                        ) is not None:
                            valid.add(index)
                    advance_fold()
                launched_any |= self._schedule(shards, valid, now)
                if fold_next < len(grid):
                    time.sleep(self.poll_s)
        finally:
            for state in shards:
                for proc, _started, _log in state.procs:
                    self._kill(proc)
                state.procs.clear()
            ledger.close()

        wall_s = time.perf_counter() - start
        result = SweepResult(
            exp_id=manifest.experiment,
            points=summaries,
            jobs=self.workers if launched_any else 1,
            wall_s=wall_s,
            metrics=aggregator.metrics(),
            comparisons=aggregator.comparisons(),
            cache_dir=str(manifest.resolved_cache_dir()),
            cache_hits=len(initially_valid),
            batch=resolve_batch(manifest.batch),
        )
        digest = result.digest()
        if manifest.expected_sweep_digest is not None and not drifted \
                and digest != manifest.expected_sweep_digest:
            raise CampaignError(
                f"campaign digest {digest} does not match the manifest's "
                f"pinned digest {manifest.expected_sweep_digest} — the "
                f"stores verified point-by-point yet the combined digest "
                f"drifted; refusing to overwrite the pin")
        # Pin the completed campaign: expected digests make every later
        # resume/merge verifiable, and the ledger is now redundant.
        manifest.expected = {
            keys[index]: summary.digest
            for index, summary in enumerate(summaries)
        }
        manifest.expected_sweep_digest = digest
        manifest.fingerprint = fingerprint
        manifest.save()
        try:
            manifest.ledger_path().unlink()
        except OSError:  # pragma: no cover - leftover ledger is harmless
            pass
        return result

    # -- scheduler pieces ----------------------------------------------

    def _reap(self, shards: list[_ShardState], valid: set[int]) -> bool:
        """Collect exited workers; count a failure (and arm backoff)
        only when a shard is incomplete and has no surviving worker."""
        exited = False
        for state in shards:
            still = []
            for proc, started, log_path in state.procs:
                code = proc.poll()
                if code is None:
                    still.append((proc, started, log_path))
                    continue
                exited = True
                incomplete = any(
                    i not in valid for i in state.grid_indices)
                if code != 0 or incomplete:
                    self._event(
                        f"shard {state.index}: worker exited with code "
                        f"{code} (log: {log_path})")
            state.procs = still
        return exited

    def _schedule(
        self, shards: list[_ShardState], valid: set[int], now: float,
    ) -> bool:
        """Launch, retry, and speculatively re-dispatch workers.
        Returns True if anything was launched this tick."""
        manifest = self.manifest
        launched = False
        running = sum(len(state.procs) for state in shards)
        max_launches = manifest.max_retries + 1
        for state in shards:
            complete = all(i in valid for i in state.grid_indices)
            if complete:
                # Kill speculative losers: their remaining appends
                # would only duplicate bytes already stored.
                for proc, _started, _log in state.procs:
                    self._event(
                        f"shard {state.index}: complete; killing "
                        f"redundant worker pid {proc.pid}")
                    self._kill(proc)
                    running -= 1
                state.procs = []
                continue
            if not state.procs:
                if state.launches > 0:
                    if state.failures < state.launches:
                        # All workers for this incomplete shard are
                        # gone: that's a failed attempt.
                        state.failures = state.launches
                        delay = min(BACKOFF_CAP_S,
                                    BACKOFF_S * 2 ** (state.failures - 1))
                        state.next_eligible = now + delay
                        if state.launches >= max_launches:
                            self._abort(state)
                        self._event(
                            f"shard {state.index}: incomplete after worker "
                            f"exit; retry {state.launches}/"
                            f"{manifest.max_retries} in {delay:.2f}s")
                if running < self.workers and now >= state.next_eligible:
                    if state.launches >= max_launches:
                        self._abort(state)
                    self._launch(state)
                    running += 1
                    launched = True
            elif manifest.deadline_s is not None:
                newest = max(started for _p, started, _l in state.procs)
                age = now - newest
                if age > manifest.deadline_s \
                        and state.launches < max_launches \
                        and running < self.workers:
                    self._event(
                        f"shard {state.index}: straggling "
                        f"({age:.2f}s > deadline {manifest.deadline_s}s); "
                        f"dispatching speculative backup")
                    self._launch(state, backup=True)
                    running += 1
                    launched = True
                elif age > manifest.deadline_s * _HARD_DEADLINE_FACTOR \
                        and state.launches >= max_launches:
                    for proc, _started, _log in state.procs:
                        self._kill(proc)
                    state.procs = []
                    self._abort(state)
        return launched

    def _abort(self, state: _ShardState) -> None:
        manifest = self.manifest
        raise CampaignError(
            f"shard {state.index} of campaign {manifest.experiment} "
            f"failed {state.launches} dispatch(es) (retry budget "
            f"{manifest.max_retries}); worker logs under "
            f"{manifest.resolved_cache_dir() / 'logs'}")


def run_campaign(
    manifest: Union[CampaignManifest, str, Path],
    on_event: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Run (equivalently: resume) a campaign manifest to completion."""
    if not isinstance(manifest, CampaignManifest):
        manifest = CampaignManifest.load(manifest)
    return CampaignRunner(manifest, on_event=on_event).run()


# -- status ------------------------------------------------------------------


@dataclass(frozen=True)
class ShardStatus:
    index: int
    total: int
    stored: int


@dataclass(frozen=True)
class CampaignStatus:
    """What a scan of the manifest's stores found (no simulation)."""

    experiment: str
    total: int
    stored: int
    corrupt: int
    shards: list[ShardStatus]
    pinned: bool  # manifest carries expected digests
    fingerprint_drift: bool

    @property
    def missing(self) -> int:
        return self.total - self.stored

    @property
    def complete(self) -> bool:
        return self.stored == self.total

    def render(self) -> str:
        lines = [
            f"== campaign: {self.experiment} ==",
            f"-- points: {self.stored}/{self.total} stored and verified"
            + (f", {self.corrupt} corrupt" if self.corrupt else "")
            + (f", {self.missing} to run" if self.missing else " — complete"),
        ]
        if self.fingerprint_drift:
            lines.append(
                "-- note: source tree changed since the manifest was "
                "pinned; stored points will re-simulate")
        elif self.pinned:
            lines.append("-- digests pinned: resumes verify against the "
                         "manifest")
        for shard in self.shards:
            bar = "done" if shard.stored == shard.total else \
                f"{shard.stored}/{shard.total}"
            lines.append(f"-- shard {shard.index}: {bar}")
        return "\n".join(lines)


def campaign_status(
    manifest: Union[CampaignManifest, str, Path],
) -> CampaignStatus:
    if not isinstance(manifest, CampaignManifest):
        manifest = CampaignManifest.load(manifest)
    grid = manifest.grid()
    cache = SweepCache(manifest.resolved_cache_dir())
    ledger_digests = read_ledger(manifest.ledger_path())
    stored = corrupt = 0
    per_shard = [0] * manifest.shards
    for index, point in enumerate(grid):
        key = cache.point_key(point)
        expected = manifest.expected.get(key) or ledger_digests.get(key)
        result = _verified_result(cache, point, expected)
        if result is not None:
            stored += 1
            per_shard[index % manifest.shards] += 1
        elif cache.has(point):
            corrupt += 1
    shard_rows = [
        ShardStatus(
            index=i,
            total=len(range(i, len(grid), manifest.shards)),
            stored=per_shard[i],
        )
        for i in range(manifest.shards)
    ]
    fingerprint = code_fingerprint()
    return CampaignStatus(
        experiment=manifest.experiment,
        total=len(grid),
        stored=stored,
        corrupt=corrupt,
        shards=shard_rows,
        pinned=bool(manifest.expected),
        fingerprint_drift=(manifest.fingerprint is not None
                           and manifest.fingerprint != fingerprint),
    )


# -- merge -------------------------------------------------------------------


class _UnionCache:
    """Read-through union of several machines' stores: loads probe the
    dirs in the order given (first hit wins), stores go to the first —
    so a non-strict merge leaves the primary store covering the grid."""

    def __init__(self, caches: Sequence[SweepCache]) -> None:
        self.caches = list(caches)

    def has(self, point: SweepPoint) -> bool:
        return any(cache.has(point) for cache in self.caches)

    def load(self, point: SweepPoint) -> Optional[PointResult]:
        for cache in self.caches:
            result = cache.load(point)
            if result is not None:
                return result
        return None

    def store(self, result: PointResult) -> bool:
        return self.caches[0].store(result)


def merge_campaign(
    manifest: Union[CampaignManifest, str, Path],
    extra_cache_dirs: Sequence[Union[str, Path]] = (),
    strict: bool = False,
) -> SweepResult:
    """Fold a campaign's stores into the unsharded result (the
    ``campaign merge`` CLI).

    Every grid point's payload — wherever it lives among the manifest's
    cache dir (always the primary) and ``extra_cache_dirs`` — folds
    through the same Welford aggregation **in canonical grid order**.
    The fold order and the per-point bytes are exactly those of an
    unsharded run, so the aggregates, per-point digests and sweep digest
    are byte-identical to running the whole campaign on one machine, and
    to merging the same stores in any directory order.

    Points no store covers are simulated here with the manifest's
    workers and batch, and written back to the primary store.
    With ``strict`` missing coverage raises instead, naming the gap, and
    every folded digest — and the combined sweep digest — must match the
    digests the manifest pinned at completion: a strict merge over
    silently altered bytes fails naming the first drifted point.
    """
    if not isinstance(manifest, CampaignManifest):
        manifest = CampaignManifest.load(manifest)
    dirs = [manifest.resolved_cache_dir(), *extra_cache_dirs]
    union = _UnionCache([SweepCache(directory) for directory in dirs])
    if strict:
        # Coverage is a record that loads and parses: one that is framed
        # but garbled would otherwise be re-simulated by the fold.
        grid = manifest.grid()
        missing = [point for point in grid if union.load(point) is None]
        if missing:
            shown = ", ".join(point.describe() for point in missing[:5])
            more = f" (+{len(missing) - 5} more)" if len(missing) > 5 else ""
            raise CampaignError(
                f"strict merge: {len(missing)} of {len(grid)} grid points "
                f"missing from the shard stores: {shown}{more}")
    result = _run_sweep_inner(
        manifest.experiment, manifest.seeds, manifest.overrides,
        jobs=manifest.effective_workers(), batch=manifest.batch,
        cache_dir=" + ".join(str(directory) for directory in dirs),
        cache=union,
    )
    if strict and manifest.expected:
        for summary in result.points:
            key = union.caches[0].point_key(summary.point)
            pinned = manifest.expected.get(key)
            if pinned is not None and pinned != summary.digest:
                raise CampaignError(
                    f"strict merge: point [{summary.point.describe()}] "
                    f"digest {summary.digest} does not match the "
                    f"manifest's pinned {pinned}")
    drifted = (manifest.fingerprint is not None
               and manifest.fingerprint != code_fingerprint())
    if strict and manifest.expected_sweep_digest is not None and not drifted:
        digest = result.digest()
        if digest != manifest.expected_sweep_digest:
            raise CampaignError(
                f"strict merge: sweep digest {digest} does not match the "
                f"manifest's pinned {manifest.expected_sweep_digest}")
    return result
