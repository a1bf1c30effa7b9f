"""The repository benchmark: one workload, one seed, one JSON line.

    python3 ledgerbench/run.py --workload sweep-blink --seed 0 \\
        --seconds 30 --trace 0

Run from the repository root.  Workloads (see ``README.md`` here):
``sweep-blink``, ``sweep-network``, ``serve-ingest``.

``--trace 0`` measures the end-to-end metrics declared in
``BENCHMARK.json``; set-up runs several times, each in a fresh
interpreter, and its median is ``setup_s``.  Time metrics are scaled
to reference host speed (``hostspeed.py``); the wall figures are
printed as ``info`` lines.  ``--trace 1`` runs a fixed
amount of work twice, untraced and then with the layer wrappers of
``tracer.py`` installed, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status
is non-zero when any output was wrong or the program under test is
missing.  Scratch files live in ``.bench_work/`` under the repository
root and are removed at exit; a traced run leaves its spans in
``.bench_traces/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from hostspeed import scaled_ms

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ".bench_work"
TRACES = ".bench_traces"

WORKLOADS = ("sweep-blink", "sweep-network", "serve-ingest")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Seed whose sweep digests are pinned in ``pinned.json`` (as are those
#: of seed 7919, held out for checking later performance claims).
DEFAULT_SEED = 0

#: A worker that has not finished by then is killed.
WORKER_TIMEOUT_S = 150


def run_worker(args, setup_only: bool) -> tuple[float, float, dict]:
    """Start one worker; returns (set-up wall seconds, set-up in s at
    reference host speed, its result, or {} for a set-up-only
    worker)."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work", WORK]
    if setup_only:
        command.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    setup_s = scaled_s = None
    result = {}
    try:
        for line in proc.stdout:
            if line.startswith("READY"):
                setup_s = time.perf_counter() - start
            elif line.startswith("LOOP "):
                # The worker's own loop, not this process's: this one
                # sat idle through set-up and would run the loop slow.
                loop = float(line.split()[1])
                scaled_s = scaled_ms(setup_s, loop, loop) / 1e3
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                print(line, end="", flush=True)
    finally:
        proc.stdout.close()
        code = proc.wait()
        watchdog.cancel()
    if code != 0 or scaled_s is None or not (setup_only or result):
        raise RuntimeError(f"{args.workload} worker failed (exit {code})")
    return setup_s, scaled_s, result


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program under test: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    work = ROOT / WORK
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(run_worker(args, setup_only=True)[:2])
        *setup, result = run_worker(args, setup_only=False)
        setups.append(tuple(setup))
        for trace in sorted(work.glob("trace-*.json")):
            kept = ROOT / TRACES / f"{args.workload}-{args.seed}-{trace.name}"
            kept.parent.mkdir(exist_ok=True)
            trace.replace(kept)
            print(f"spans written to {kept.relative_to(ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    measured = result["metrics"]
    if not args.trace:
        measured["setup_wall_s"] = statistics.median(s for s, _ in setups)
        measured["setup_s"] = statistics.median(s for _, s in setups)

    for key, value in sorted(result["config"].items()):
        print(f"config {key} = {value}")
    for key in sorted(set(measured) - {m["name"] for m in declared}):
        print(f"info {key} = {measured[key]:.6g}")
    metrics = {}
    names = result["names"]
    for metric in declared:
        value = measured[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        meaning = f"  ({names[metric['name']]})" if metric["name"] in names \
            else ""
        print(f"{metric['name']:32} {value:14.6g} {metric['unit']}{meaning}")
    for error in result["errors"]:
        print(f"error: {error}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"error_rate = {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
