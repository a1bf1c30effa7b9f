"""Regenerate tests/golden_digests.json and tests/golden_map_digests.json
from the current tree.

Only legitimate when the reproduction's *behaviour* intentionally changed
(new experiment output, changed cost model) or when porting the suite to
a platform whose libm disagrees with the reference in the last ulp.  A
perf-only change must never need this script — that is the whole point
of the golden files.

The first file pins each experiment's rendered output; the second pins
the exact bits of every energy map its nodes build, in build order
(``maps_digest`` in ``tests/oracle.py``).

Usage: PYTHONPATH=src python tools/regen_golden_digests.py
"""

import hashlib
import json
import sys
from pathlib import Path

from repro.experiments.common import EXPERIMENT_IDS, run_experiment

TESTS_DIR = Path(__file__).resolve().parent.parent / "tests"
GOLDEN_PATH = TESTS_DIR / "golden_digests.json"
GOLDEN_MAPS_PATH = TESTS_DIR / "golden_map_digests.json"

sys.path.insert(0, str(TESTS_DIR))
import oracle  # noqa: E402  (the tests-side map recorder)


def main() -> None:
    digests = {}
    map_digests = {}
    for exp_id in EXPERIMENT_IDS:
        with oracle.recorded_maps() as maps:
            rendered = run_experiment(exp_id, seed=0).render()
        digests[exp_id] = hashlib.sha256(
            rendered.encode("utf-8")).hexdigest()
        map_digests[exp_id] = oracle.maps_digest(maps)
        print(f"{exp_id:28s} {digests[exp_id][:16]} "
              f"{len(maps):3d} maps {map_digests[exp_id][:16]}")
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1) + "\n", "utf-8")
    GOLDEN_MAPS_PATH.write_text(
        json.dumps(map_digests, indent=1) + "\n", "utf-8")
    print(f"wrote {GOLDEN_PATH} and {GOLDEN_MAPS_PATH}")


if __name__ == "__main__":
    main()
