"""The fault-tolerant campaign orchestrator, proven under injected chaos.

Every test here asserts the same headline contract from a different
failure direction: a campaign driven from a manifest — through worker
crashes, injected I/O errors, torn shard tails, duplicate deliveries,
straggler re-dispatch, even SIGKILL of the runner itself — ends with a
``SweepResult.digest()`` byte-identical to an uninterrupted serial
``run_sweep`` of the same grid, and a resume never re-simulates a
stored, verified point.

The faults come from :mod:`repro.sim.faultinject` (env-driven, fuse for
exactly-once, selector for targeting), so each scenario is
deterministic, not merely probable.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.accounting import BACKEND_ENV_VAR
from repro.errors import CampaignError, SweepError
from repro.sim import faultinject
from repro.sim import sweep as sweep_module
from repro.sim.campaign import (
    CampaignManifest,
    campaign_status,
    merge_campaign,
    plan_campaign,
    read_ledger,
    run_campaign,
    run_worker,
)
from repro.sim.sweep import SweepCache, run_sweep

EXP = "table3"
OVERRIDES = {"duration_ns": ["8000000000"], "device_variation": ["0.02"]}
SEEDS = list(range(4))
GRID_POINTS = 4


@pytest.fixture(scope="module")
def golden_digest():
    """The uninterrupted serial run every chaos scenario must match."""
    return run_sweep(EXP, SEEDS, OVERRIDES, jobs=1).digest()


def plan(tmp_path, **kwargs) -> CampaignManifest:
    defaults = dict(shards=2, workers=2)
    defaults.update(kwargs)
    return plan_campaign(EXP, SEEDS, OVERRIDES,
                         out_path=tmp_path / "camp.json", **defaults)


def arm(monkeypatch, tmp_path, fault, select=None):
    """Install a fire-once fault plan for this test (and its workers)."""
    monkeypatch.setenv(faultinject.ENV_VAR, fault)
    monkeypatch.setenv(faultinject.FUSE_ENV_VAR, str(tmp_path / "fuse"))
    if select is not None:
        monkeypatch.setenv(faultinject.SELECT_ENV_VAR, str(select))


# -- manifest ----------------------------------------------------------------


def test_manifest_round_trip(tmp_path):
    manifest = plan(tmp_path, deadline_s=9.5, max_retries=5)
    loaded = CampaignManifest.load(manifest.path)
    assert loaded.experiment == EXP
    assert loaded.seeds == SEEDS
    assert loaded.overrides == OVERRIDES
    assert (loaded.shards, loaded.workers) == (2, 2)
    assert loaded.deadline_s == 9.5
    assert loaded.max_retries == 5
    assert loaded.expected == {} and loaded.expected_sweep_digest is None
    # cache_dir resolves relative to the manifest's own directory, so a
    # campaign directory can be moved and resumed in place.
    assert loaded.resolved_cache_dir() == tmp_path / "cache"
    assert len(loaded.grid()) == GRID_POINTS


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.update(kind="other"), "kind"),
    (lambda d: d.update(schema=99), "newer"),
    (lambda d: d.update(seeds=[]), "seeds"),
    (lambda d: d.update(shards=0), "shards"),
    (lambda d: d.pop("experiment"), "experiment"),
])
def test_manifest_validation_rejects(tmp_path, mutate, message):
    manifest = plan(tmp_path)
    doc = json.loads(manifest.path.read_text())
    mutate(doc)
    manifest.path.write_text(json.dumps(doc))
    with pytest.raises(CampaignError, match=message):
        CampaignManifest.load(manifest.path)


def test_manifest_not_json_rejected(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{torn")
    with pytest.raises(CampaignError, match="JSON"):
        CampaignManifest.load(path)


def test_plan_validates_grid_up_front(tmp_path):
    with pytest.raises(SweepError, match="no parameter"):
        plan_campaign(EXP, SEEDS, {"nope": ["1"]},
                      out_path=tmp_path / "bad.json")
    with pytest.raises(CampaignError, match="shards"):
        plan_campaign(EXP, SEEDS, OVERRIDES, shards=99,
                      out_path=tmp_path / "bad.json")


def test_ledger_tolerates_torn_tail(tmp_path):
    path = tmp_path / "c.ledger.jsonl"
    path.write_text(
        json.dumps({"i": 0, "key": "aa", "digest": "d0"}) + "\n"
        + "not json\n"
        + json.dumps({"i": 1, "key": "bb", "digest": "d1"}) + "\n"
        + '{"i": 2, "key": "cc", "dig')  # torn mid-append
    assert read_ledger(path) == {"aa": "d0", "bb": "d1"}
    assert read_ledger(tmp_path / "absent.jsonl") == {}


# -- the clean path ----------------------------------------------------------


def test_clean_campaign_matches_serial(tmp_path, golden_digest):
    manifest = plan(tmp_path)
    result = run_campaign(manifest)
    assert result.digest() == golden_digest
    assert result.cache_hits == 0
    assert result.simulated == GRID_POINTS
    # Completion pinned the digests into the manifest...
    pinned = CampaignManifest.load(manifest.path)
    assert pinned.expected_sweep_digest == golden_digest
    assert len(pinned.expected) == GRID_POINTS
    # ...and the fold ledger was retired.
    assert not manifest.ledger_path().exists()

    # Resume of a complete campaign simulates nothing.
    again = run_campaign(manifest.path)
    assert again.digest() == golden_digest
    assert again.cache_hits == GRID_POINTS and again.simulated == 0
    assert again.jobs == 1  # no workers were launched

    status = campaign_status(manifest.path)
    assert status.complete and status.pinned and not status.corrupt
    assert "complete" in status.render()


def test_strict_manifest_merge_verifies_pins(tmp_path, golden_digest):
    manifest = plan(tmp_path)
    run_campaign(manifest)
    merged = merge_campaign(manifest.path, strict=True)
    assert merged.digest() == golden_digest
    # Tamper one pinned digest: the strict merge must name the drift.
    doc = json.loads(manifest.path.read_text())
    key = sorted(doc["expected"])[0]
    doc["expected"][key] = "0" * 64
    manifest.path.write_text(json.dumps(doc))
    with pytest.raises(CampaignError, match="does not match"):
        merge_campaign(manifest.path, strict=True)


def test_worker_applies_manifest_backend(tmp_path, monkeypatch):
    """``campaign plan --backend streaming`` reaches the worker: with
    the env var unset, no point runs the columnar fold, and the
    worker leaves the environment as it found it."""
    from repro.tos import node

    def refuse(*args, **kwargs):
        raise AssertionError("columnar backend ran")

    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    monkeypatch.setattr(node, "columnar_energy_map", refuse)
    manifest = plan(tmp_path, shards=1, workers=1, backend="streaming")
    assert run_worker(manifest.path, 0, 1) == 0
    assert BACKEND_ENV_VAR not in os.environ


# -- injected worker faults --------------------------------------------------


@pytest.mark.parametrize("site", ["pre-run", "mid-shard", "pre-store"])
def test_worker_crash_at_any_site_recovers(tmp_path, monkeypatch, site,
                                           golden_digest):
    """SIGKILL one worker at each instrumented point (exactly once, via
    the fuse); the runner retries the shard and the digest is the
    serial one."""
    manifest = plan(tmp_path)
    arm(monkeypatch, tmp_path, f"crash@{site}")
    events = []
    result = run_campaign(manifest, on_event=events.append)
    assert result.digest() == golden_digest
    assert any("retry" in line for line in events), events
    # The fuse was claimed by the crashed worker, exactly once.
    assert (tmp_path / "fuse").exists()


def test_injected_store_error_fails_worker_then_recovers(
        tmp_path, monkeypatch, golden_digest):
    """An injected OSError at the pre-store site aborts that worker
    with a traceback (nonzero exit); the retry dispatch succeeds."""
    manifest = plan(tmp_path)
    arm(monkeypatch, tmp_path, "raise@pre-store")
    events = []
    result = run_campaign(manifest, on_event=events.append)
    assert result.digest() == golden_digest
    assert any("exited with code" in line for line in events), events


def test_worker_clean_exit_without_coverage_is_retried(
        tmp_path, monkeypatch, golden_digest):
    """A worker that exits 0-adjacent (plain nonzero exit, no crash)
    still leaves its shard incomplete — the scheduler must not trust
    exit codes, only verified coverage."""
    manifest = plan(tmp_path)
    arm(monkeypatch, tmp_path, "exit@pre-run:7")
    result = run_campaign(manifest)
    assert result.digest() == golden_digest


def test_exhausted_retries_abort_with_shard_named(tmp_path, monkeypatch):
    """With no fuse the fault fires every dispatch; after the retry
    budget the campaign aborts naming the shard and the logs."""
    manifest = plan(tmp_path, max_retries=1, backoff_s=0.05,
                    backoff_cap_s=0.1)
    monkeypatch.setenv(faultinject.ENV_VAR, "exit@pre-run:7")
    with pytest.raises(CampaignError, match=r"shard \d .*logs"):
        run_campaign(manifest)


# -- torn tails and duplicates ----------------------------------------------


def test_torn_tail_then_resume(tmp_path, golden_digest):
    """Tear the shard store's tail (a writer crashed mid-append): the
    resume re-verifies, re-simulates only the lost point(s), and the
    digest is unchanged."""
    manifest = plan(tmp_path)
    run_campaign(manifest)
    cache_dir = manifest.resolved_cache_dir()
    shard_file = cache_dir / f"{EXP}.shard"
    faultinject.tear_tail(shard_file, drop=9)
    (cache_dir / f"{EXP}.idx").unlink()  # force the recovery scan
    resumed = run_campaign(manifest.path)
    assert resumed.digest() == golden_digest
    assert resumed.simulated >= 1
    assert resumed.cache_hits == GRID_POINTS - resumed.simulated


def test_duplicate_shard_delivery_is_idempotent(tmp_path, golden_digest):
    """Run the same shard worker twice (the duplicate-delivery race a
    speculative backup can produce): the second delivery stores nothing
    new the verifier cares about, and the campaign folds clean."""
    manifest = plan(tmp_path)
    assert run_worker(manifest.path, 0, 2) == 0
    assert run_worker(manifest.path, 0, 2) == 0  # duplicate delivery
    # Force a genuinely duplicated append too (last-write-wins frames).
    cache = SweepCache(manifest.resolved_cache_dir())
    for point in manifest.grid()[0::2]:
        result = cache.load(point)
        assert result is not None
        result.from_cache = False
        assert cache.store(result)
    result = run_campaign(manifest.path)
    assert result.digest() == golden_digest
    assert result.cache_hits == 2  # shard 0's points came from the store


def test_straggler_gets_speculative_backup(tmp_path, monkeypatch,
                                           golden_digest):
    """A worker sleeping far past the deadline is raced by a backup
    dispatch (the original is *not* killed until its shard completes);
    the backup wins and the loser is reaped."""
    manifest = plan(tmp_path, deadline_s=1.5)
    arm(monkeypatch, tmp_path, "sleep@pre-run:120", select=0)
    events = []
    start = time.monotonic()
    result = run_campaign(manifest, on_event=events.append)
    assert time.monotonic() - start < 60  # nobody waited for the sleeper
    assert result.digest() == golden_digest
    assert any("straggling" in line for line in events), events
    assert any("redundant worker" in line for line in events), events


# -- the acceptance scenario: SIGKILL the runner and a worker ---------------


def _quiesced_status(manifest_path, attempts=120):
    """Campaign status once orphaned workers have stopped appending."""
    previous = -1
    for _ in range(attempts):
        stored = campaign_status(manifest_path).stored
        if stored == previous:
            return campaign_status(manifest_path)
        previous = stored
        time.sleep(0.5)
    raise AssertionError("orphan workers never quiesced")


def test_runner_and_worker_sigkilled_then_resumed(tmp_path, golden_digest):
    """The ISSUE's acceptance criterion, end to end: the campaign runner
    *and* one of its workers are SIGKILLed mid-shard (one deterministic
    stroke via crash-runner); the resume completes from the manifest
    without re-simulating stored valid points, byte-identical."""
    manifest = plan(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env[faultinject.ENV_VAR] = "crash-runner@mid-shard"
    env[faultinject.FUSE_ENV_VAR] = str(tmp_path / "fuse")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "campaign", "run",
         str(manifest.path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == -9, (proc.returncode, proc.stderr)

    status = _quiesced_status(manifest.path)
    assert 0 < status.stored < status.total  # partial progress survived

    resumed = run_campaign(manifest.path)  # clean env: faults off
    assert resumed.digest() == golden_digest
    assert resumed.cache_hits >= status.stored >= 1  # no re-simulation
    assert resumed.simulated == GRID_POINTS - resumed.cache_hits

    # And the now-pinned manifest verifies end to end.
    assert merge_campaign(manifest.path, strict=True).digest() \
        == golden_digest


# -- the in-pool retry satellite (run_sweep itself) --------------------------


@pytest.mark.parametrize("batch", [1, 8])
def test_run_sweep_retries_worker_exception(tmp_path, monkeypatch,
                                            golden_digest, batch):
    """A worker-side exception on one point no longer aborts the sweep:
    the parent retries the point in-process on a fresh world."""
    arm(monkeypatch, tmp_path, "raise@point", select=2)
    result = run_sweep(EXP, SEEDS, OVERRIDES, jobs=2, batch=batch)
    assert result.digest() == golden_digest


@pytest.mark.parametrize("batch", [1, 8])
def test_run_sweep_survives_worker_death(tmp_path, monkeypatch,
                                         golden_digest, batch):
    """SIGKILL of a pool worker mid-point breaks the pool: every chunk
    not yet returned comes back as failures, and the lost points re-run
    in-process."""
    arm(monkeypatch, tmp_path, "crash@point", select=1)
    result = run_sweep(EXP, SEEDS, OVERRIDES, jobs=2, batch=batch)
    assert result.digest() == golden_digest


def test_run_sweep_persistent_failure_names_the_point(monkeypatch):
    """With no fuse the point fails every retry; the error must name
    the point's describe() and the attempt count."""
    monkeypatch.setenv(faultinject.ENV_VAR, "raise@point")
    monkeypatch.setenv(faultinject.SELECT_ENV_VAR, "2")
    monkeypatch.setattr(sweep_module, "DEFAULT_POINT_RETRIES", 1)
    with pytest.raises(SweepError, match=r"seed=2.*failed 2 times"):
        run_sweep(EXP, SEEDS, OVERRIDES, jobs=1)


def test_run_sweep_persistent_failure_in_the_pool_names_the_point(
        monkeypatch):
    """The pool path's twin: the worker's failure and the parent's
    in-process retry both fail, and the error names the point and
    carries the worker-side traceback."""
    monkeypatch.setenv(faultinject.ENV_VAR, "raise@point")
    monkeypatch.setenv(faultinject.SELECT_ENV_VAR, "2")
    monkeypatch.setattr(sweep_module, "DEFAULT_POINT_RETRIES", 1)
    with pytest.raises(SweepError, match=r"(?s)seed=2.*failed 2 times"
                       r".*worker traceback:.*injected fault at point"):
        run_sweep(EXP, SEEDS, OVERRIDES, jobs=2)


# -- fault-plan parsing ------------------------------------------------------


def test_fault_plan_parses_and_rejects():
    plan_ = faultinject.parse_plan("crash@mid-shard, sleep@pre-run:2.5")
    assert [(s.action, s.site, s.arg) for s in plan_] == [
        ("crash", "mid-shard", None), ("sleep", "pre-run", "2.5")]
    with pytest.raises(CampaignError, match="expected action"):
        faultinject.parse_plan("crash")
    with pytest.raises(CampaignError, match="action"):
        faultinject.parse_plan("vanish@pre-run")


def test_fuse_fires_exactly_once(tmp_path, monkeypatch):
    monkeypatch.setenv(faultinject.ENV_VAR, "raise@unit-test-site")
    monkeypatch.setenv(faultinject.FUSE_ENV_VAR, str(tmp_path / "f"))
    with pytest.raises(OSError, match="injected"):
        faultinject.fire("unit-test-site")
    faultinject.fire("unit-test-site")  # fuse claimed: never again
