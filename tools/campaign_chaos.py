"""CI chaos smoke: SIGKILL a campaign runner + worker, resume, verify.

The scripted version of the orchestrator's acceptance criterion:

1. compute the golden digest with an uninterrupted serial ``run_sweep``;
2. plan a small sharded campaign manifest;
3. run ``repro campaign run`` as a subprocess with the fault plan
   ``crash-runner@mid-shard`` armed behind a fire-once fuse — the first
   worker to store a point SIGKILLs the runner *and* itself;
4. wait for orphaned workers to quiesce, check the store holds partial
   progress;
5. ``repro campaign resume`` with a clean environment — it must fold the
   stored points from cache (no re-simulation) and finish the rest;
6. assert the resumed digest is byte-identical to the golden serial one,
   then re-verify via ``repro campaign status`` and a strict
   ``repro campaign merge``.

Run from the repo root: ``PYTHONPATH=src python tools/campaign_chaos.py``.
"""

import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sim.campaign import campaign_status, plan_campaign  # noqa: E402
from repro.sim.sweep import run_sweep  # noqa: E402

EXP = "table3"
SEEDS = list(range(4))
OVERRIDES = {"duration_ns": ["8000000000"], "device_variation": ["0.02"]}


def run_cli(args, env, timeout=420):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env, capture_output=True, text=True, timeout=timeout)


def clean_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("REPRO_FAULT", "REPRO_FAULT_FUSE", "REPRO_FAULT_SELECT"):
        env.pop(var, None)
    return env


def main() -> int:
    print("== campaign chaos smoke ==")
    golden = run_sweep(EXP, SEEDS, OVERRIDES, jobs=1).digest()
    print(f"golden serial digest: {golden}")

    workdir = Path(tempfile.mkdtemp(prefix="chaos-campaign-"))
    manifest = plan_campaign(
        EXP, SEEDS, OVERRIDES, out_path=workdir / "campaign.json",
        shards=2, workers=2)
    print(f"manifest: {manifest.path} ({len(manifest.grid())} points, "
          f"{manifest.shards} shards)")

    # Armed run: the first worker to store a point takes down the
    # runner and itself (exactly once — the fuse guarantees the resume
    # runs clean).
    env = clean_env()
    env["REPRO_FAULT"] = "crash-runner@mid-shard"
    env["REPRO_FAULT_FUSE"] = str(workdir / "fuse")
    proc = run_cli(["campaign", "run", str(manifest.path)], env)
    print(f"armed run exit code: {proc.returncode} (expected -9)")
    if proc.returncode != -9:
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        print("FAIL: runner was not SIGKILLed", file=sys.stderr)
        return 1

    # Orphaned workers may still be appending; wait for the store to
    # quiesce before reading the partial coverage.
    stored = -1
    for _ in range(240):
        status = campaign_status(manifest.path)
        if status.stored == stored:
            break
        stored = status.stored
        time.sleep(0.5)
    print(f"after SIGKILL: {stored}/{status.total} points stored")
    if not 0 < stored < status.total:
        print("FAIL: expected partial progress (the crash either fired "
              "before any store or after all of them)", file=sys.stderr)
        return 1

    # Resume with the faults disarmed: stored points must fold from the
    # store, only the remainder simulates.
    proc = run_cli(["campaign", "resume", str(manifest.path)], clean_env())
    if proc.returncode != 0:
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        print("FAIL: resume did not complete", file=sys.stderr)
        return 1
    digest = re.search(r"sweep digest: (\w+)", proc.stdout)
    cache = re.search(r"cache: (\d+) reused, (\d+) simulated", proc.stdout)
    if digest is None or cache is None:
        print(proc.stdout)
        print("FAIL: resume output missing digest/cache lines",
              file=sys.stderr)
        return 1
    reused, simulated = int(cache.group(1)), int(cache.group(2))
    print(f"resume: {reused} reused, {simulated} simulated, "
          f"digest {digest.group(1)}")
    if digest.group(1) != golden:
        print(f"FAIL: resumed digest != golden ({golden})", file=sys.stderr)
        return 1
    if reused < stored or reused < 1:
        print("FAIL: resume re-simulated already-stored points",
              file=sys.stderr)
        return 1
    if reused + simulated != status.total:
        print("FAIL: coverage arithmetic is off", file=sys.stderr)
        return 1

    # Belt and braces: status agrees, and a strict manifest merge
    # re-verifies every pinned digest plus the combined one.
    proc = run_cli(["campaign", "status", str(manifest.path)], clean_env())
    print(proc.stdout.strip())
    if proc.returncode != 0 or "complete" not in proc.stdout:
        print("FAIL: status does not report completion", file=sys.stderr)
        return 1
    proc = run_cli(["campaign", "merge", str(manifest.path), "--strict"],
                   clean_env())
    merged = re.search(r"sweep digest: (\w+)", proc.stdout)
    if proc.returncode != 0 or merged is None or merged.group(1) != golden:
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        print("FAIL: strict manifest merge did not reproduce the golden "
              "digest", file=sys.stderr)
        return 1
    print("chaos smoke OK: killed runner+worker, resumed byte-identical "
          "with no re-simulation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
