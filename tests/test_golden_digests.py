"""Golden digests: every experiment's rendered output, pinned by hash.

The perf work in this repo (calendar-queue scheduler, deferred log
packing, power-state lookup tables, streaming micro-optimizations) is
only admissible if it is *byte-identical* to the reference behaviour:
same event orderings, same log bytes, same float arithmetic, same
rendered tables.  This test pins the sha256 of ``render()`` for all 20
experiments at seed 0, captured on the pre-optimization tree (the plain
binary-heap scheduler and eager per-record packing) — so an old-heap vs
calendar-queue divergence anywhere in the stack shows up as a digest
mismatch naming the experiment.

The digests depend on IEEE-754 double arithmetic and CPython's ``random``
module, both of which are deterministic, plus libm (``log``/``sqrt`` in
``random.gauss``), which is deterministic per platform but may differ in
the last ulp across C libraries.  If this test fails on every experiment
on an exotic platform while ``tests/test_determinism.py`` passes, the
platform's libm disagrees with the reference values; regenerate with
``PYTHONPATH=src python tools/regen_golden_digests.py``.

One experiment is self-referential: ``table5`` counts source lines of
the instrumentation modules themselves, so its digest tracks the source
tree, not runtime behaviour.  A PR that edits a counted module must
regenerate table5's entry (and only that entry) — every *other* digest
changing is a real behavioural divergence.
"""

import hashlib
import json
from pathlib import Path

import oracle
import pytest

from repro.core.accounting import ANALYSIS_BACKENDS
from repro.experiments.common import EXPERIMENT_IDS, run_experiment

GOLDEN_PATH = Path(__file__).parent / "golden_digests.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text("utf-8"))
GOLDEN_MAPS_PATH = Path(__file__).parent / "golden_map_digests.json"
GOLDEN_MAPS = json.loads(GOLDEN_MAPS_PATH.read_text("utf-8"))


def test_golden_file_covers_every_experiment():
    assert sorted(GOLDEN) == sorted(EXPERIMENT_IDS)
    assert sorted(GOLDEN_MAPS) == sorted(EXPERIMENT_IDS)


@pytest.mark.parametrize("backend", ANALYSIS_BACKENDS)
@pytest.mark.parametrize("exp_id", EXPERIMENT_IDS)
def test_experiment_digest_matches_golden(exp_id, backend, monkeypatch):
    """Every experiment, on the product path and on the streaming
    reference, must reproduce the pre-optimization digest — one golden
    value per experiment, shared by both, is the whole determinism
    contract: columnar ≡ streaming, float bits and dict order, on every
    experiment.  The ``streaming`` leg routes every node's analysis
    through the tests-side oracle, which also checks each map it makes
    against the product map cell by cell.

    Rendering rounds every figure, so both legs also pin the exact bits
    of every map the experiment's nodes build (``float.hex`` of each
    cell, in build order): a last-bit drift fails here even when the
    rendered tables cannot show it."""
    if backend == "streaming":
        oracle.install(monkeypatch)
    with oracle.recorded_maps() as maps:
        rendered = run_experiment(exp_id, seed=0).render()
    digest = hashlib.sha256(rendered.encode("utf-8")).hexdigest()
    assert digest == GOLDEN[exp_id], (
        f"{exp_id} [{backend}]: rendered output diverged from the "
        f"pre-optimization reference "
        f"(got {digest[:16]}, want {GOLDEN[exp_id][:16]})"
    )
    digest = oracle.maps_digest(maps)
    assert digest == GOLDEN_MAPS[exp_id], (
        f"{exp_id} [{backend}]: the bits of its {len(maps)} energy maps "
        f"diverged (got {digest[:16]}, want {GOLDEN_MAPS[exp_id][:16]})"
    )
