"""One workload run in a fresh interpreter (started by ``run.py``).

Prints ``READY`` once set-up is done (the parent times set-up up to
that line) and ``LOOP <s>``, the reference loop time right after it;
then, unless ``--setup-only``, runs the measurement and prints
``RESULT <json>``.  Other lines are information for the reader.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import serveload  # noqa: E402
import sweeps  # noqa: E402
from hostspeed import loop_s  # noqa: E402
from tracer import LAYERS  # noqa: E402

WORKLOADS = {
    "sweep-blink": sweeps.SweepWorkload,
    "sweep-network": sweeps.SweepWorkload,
    "serve-ingest": serveload.ServeWorkload,
}


def layer_metrics(traced: dict) -> dict:
    """Every declared per-layer metric: the workload's own figures,
    the layer self times and the unattributed rest of the traced wall
    time; layers the workload never enters read 0."""
    summary = traced["summary"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = dict.fromkeys((m["name"] for m in spec["per_layer"]), 0.0)
    metrics.update(traced["metrics"])
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = summary["layer_self_s"][layer]
    metrics["unattributed_s"] = summary["unattributed_s"]
    metrics["trace.wall_s"] = summary["wall_s"]
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    clock = time.perf_counter
    workload = WORKLOADS[args.workload](args.workload, args.seed,
                                        Path(args.work))
    try:
        workload.setup()
        print("READY", flush=True)
        # The quickest of three: a process that waited on its server
        # through set-up runs the first loop slow.
        print(f"LOOP {min(loop_s(clock) for _ in range(3))!r}", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            metrics = layer_metrics(workload.traced(clock))
        else:
            metrics = workload.run_for(args.seconds, clock)
            if "peak_rss_mb" not in metrics:
                # The sweep runs in this process.
                metrics["peak_rss_mb"] = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    print("RESULT " + json.dumps({
        "metrics": metrics,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "errors": workload.errors,
        "config": workload.config,
        "names": {} if args.trace else workload.NAMES,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
