"""The fleet/sweep subsystem: grid expansion, execution, aggregation, CLI."""

import inspect
import math

import pytest

from repro.cli import main
from repro.errors import SweepError
from repro.sim.sweep import (
    MetricStats,
    PointResult,
    SweepPoint,
    aggregate_comparisons,
    aggregate_metrics,
    expand_grid,
    numeric_leaves,
    run_sweep,
)
from repro.units import seconds

SHORT = str(seconds(8))


# -- grid expansion -------------------------------------------------------


def test_expand_grid_seed_major_deterministic_order():
    points = expand_grid(
        "table3", [0, 1],
        {"duration_ns": [SHORT], "device_variation": ["0.0", "0.01"]},
    )
    assert [p.seed for p in points] == [0, 0, 1, 1]
    # Override combos iterate in sorted key order, values in listed order.
    assert points[0].overrides == (
        ("device_variation", "0.0"), ("duration_ns", SHORT))
    assert points[1].overrides == (
        ("device_variation", "0.01"), ("duration_ns", SHORT))
    assert points == expand_grid(
        "table3", [0, 1],
        {"duration_ns": [SHORT], "device_variation": ["0.0", "0.01"]},
    )


def test_expand_grid_rejects_unknown_parameter():
    with pytest.raises(SweepError) as excinfo:
        expand_grid("table3", [0], {"warp": ["9"]})
    assert "warp" in str(excinfo.value)


def test_expand_grid_rejects_bad_value_before_any_run():
    from repro.errors import ExperimentParameterError

    with pytest.raises(ExperimentParameterError):
        expand_grid("table3", [0], {"duration_ns": ["soon"]})


def test_expand_grid_rejects_empty_seeds_and_values():
    with pytest.raises(SweepError):
        expand_grid("table3", [])
    with pytest.raises(SweepError):
        expand_grid("table3", [0], {"duration_ns": []})


# -- aggregation ----------------------------------------------------------


def _synthetic_point(seed, value, nested):
    return PointResult(
        point=SweepPoint("table3", seed),
        data={"scalar": value, "group": {"cell": nested}, "label": "text"},
        comparisons=[("metric (mJ)", 10.0, value)],
        digest="0" * 64,
        wall_s=0.0,
    )


def test_numeric_leaves_flatten_and_skip_non_numeric():
    leaves = numeric_leaves(
        {"a": 1, "b": {"c": 2.5, "d": "skip"}, "e": True, "f": [1, 2]})
    assert leaves == {"a": 1.0, "b.c": 2.5}


def test_aggregate_metrics_mean_stddev_ci():
    points = [_synthetic_point(s, v, v * 2)
              for s, v in enumerate((4.0, 6.0, 8.0))]
    stats = {m.name: m for m in aggregate_metrics(points)}
    scalar = stats["scalar"]
    assert scalar.n == 3
    assert scalar.mean == pytest.approx(6.0)
    assert scalar.stddev == pytest.approx(2.0)  # sample stddev of 4,6,8
    assert scalar.ci95 == pytest.approx(1.96 * 2.0 / math.sqrt(3))
    assert (scalar.min, scalar.max) == (4.0, 8.0)
    assert stats["group.cell"].mean == pytest.approx(12.0)
    assert "label" not in stats


def test_aggregate_single_point_has_zero_spread():
    stats = aggregate_metrics([_synthetic_point(0, 5.0, 1.0)])
    by_name = {m.name: m for m in stats}
    assert by_name["scalar"].stddev == 0.0
    assert by_name["scalar"].ci95 == 0.0


def test_aggregate_comparisons_keeps_experiment_order():
    points = [_synthetic_point(s, v, 0.0) for s, v in enumerate((9.0, 11.0))]
    comps = aggregate_comparisons(points)
    assert len(comps) == 1
    assert comps[0].name == "metric (mJ)"
    assert comps[0].paper == 10.0
    assert comps[0].mean == pytest.approx(10.0)
    assert comps[0].stddev == pytest.approx(math.sqrt(2.0))


# -- execution ------------------------------------------------------------


def test_serial_sweep_aggregates_energy_per_component_activity():
    result = run_sweep(
        "table3", range(2),
        {"duration_ns": [SHORT], "device_variation": ["0.02"]},
        jobs=1,
    )
    assert len(result.points) == 2
    pair = result.metric("energy_by_pair_mj.LED0/1:Red")
    assert pair.n == 2
    assert pair.mean > 0
    assert pair.stddev > 0  # device variation makes seeds differ
    regression = result.metric("regression_ma.LED0")
    assert regression.mean == pytest.approx(2.51, rel=0.2)


def test_parallel_sweep_collects_in_grid_order():
    result = run_sweep("table3", range(3), {"duration_ns": [SHORT]}, jobs=3)
    assert [p.seed for p in result.points] == [0, 1, 2]
    assert result.jobs == 3


def test_sweep_render_reports_stats_and_digests():
    result = run_sweep("table3", range(2), {"duration_ns": [SHORT]}, jobs=1)
    text = result.render()
    assert "== sweep: table3 over 2 points ==" in text
    assert "aggregate metrics" in text
    assert "stddev" in text
    assert "per-point digests" in text
    assert "seed=0" in text and "seed=1" in text
    assert result.digest() in text


def test_sweep_result_lookup_raises_on_unknown_metric():
    result = run_sweep("table3", [0], {"duration_ns": [SHORT]}, jobs=1)
    with pytest.raises(KeyError):
        result.metric("no_such_metric")


# -- CLI ------------------------------------------------------------------


def test_cli_sweep_smoke(capsys):
    code = main([
        "sweep", "table3", "--seeds", "2", "--jobs", "2",
        "--set", f"duration_ns={SHORT}",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "aggregate metrics" in out
    assert "energy_by_pair_mj.LED0/1:Red" in out


def test_cli_sweep_grid_over_values(capsys):
    code = main([
        "sweep", "table3", "--seeds", "1",
        "--set", f"duration_ns={SHORT},{seconds(4)}",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "over 2 points" in out


def test_cli_sweep_unknown_experiment(capsys):
    assert main(["sweep", "fig99"]) == 2


def test_cli_sweep_unknown_parameter(capsys):
    code = main(["sweep", "table3", "--seeds", "1", "--set", "warp=9"])
    err = capsys.readouterr().err
    assert code == 2
    assert "warp" in err


def test_cli_sweep_malformed_set(capsys):
    assert main(["sweep", "table3", "--seeds", "1", "--set", "nonsense"]) == 2


def test_cli_experiment_accepts_overrides(capsys):
    code = main([
        "experiment", "table3", "--seed", "2",
        "--set", f"duration_ns={SHORT}",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "params: seed=2" in out
    assert f"duration_ns={seconds(8)}" in out


def test_cli_experiment_unknown_override(capsys):
    code = main(["experiment", "table3", "--set", "warp=9"])
    assert code == 2
    assert "warp" in capsys.readouterr().err


# -- parallel executor plumbing -------------------------------------------


def test_seed_worker_fingerprint_prevents_rehash(monkeypatch):
    """The pool initializer installs the parent's fingerprint, so a
    worker-side code_fingerprint() is a cache hit, not a tree hash."""
    import repro.sim.sweep as sweep_mod

    monkeypatch.setattr(sweep_mod, "_code_fingerprint_cache", None)
    sweep_mod._seed_worker_fingerprint("f" * 64)
    assert sweep_mod.code_fingerprint() == "f" * 64


def test_parallel_sweep_chunked_path_matches_serial_on_64_points():
    """The chunked pool executor must stay byte-identical to the serial
    reference on a grid large enough to exercise chunking (chunksize >
    1) and chunks finishing out of order."""
    overrides = {"duration_ns": [SHORT], "device_variation": ["0.02"]}
    serial = run_sweep("table3", range(8), overrides, jobs=1)
    parallel = run_sweep("table3", range(8), overrides, jobs=2)
    assert serial.digest() == parallel.digest()
    assert serial.metrics == parallel.metrics


def test_run_sweep_honours_batch(monkeypatch):
    """``batch=`` reaches the executor: K=1 builds no batch simulator and
    reports 1; K=2 batches and reports 2."""
    from repro.sim import batch as batch_module

    built = []
    original = batch_module.BatchSimulator.__init__

    def counting(self, sims):
        built.append(len(sims))
        original(self, sims)

    monkeypatch.setattr(batch_module.BatchSimulator, "__init__", counting)
    grid = {"duration_ns": [str(seconds(4))]}
    serial = run_sweep("table3", range(2), grid, batch=1)
    assert serial.batch == 1
    assert "-- mode: serial, batch 1;" in serial.render()
    assert built == []
    batched = run_sweep("table3", range(2), grid, batch=2)
    assert batched.batch == 2
    assert "-- mode: serial, batch 2;" in batched.render()
    assert built == [2]
    assert batched.digest() == serial.digest()


# -- knob conformance -----------------------------------------------------


def _spy(monkeypatch, owner, name, record):
    """Wrap ``owner.name`` so every call appends ``record(*args)`` to
    the returned list before running the original."""
    seen = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        seen.append(record(*args, **kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return seen


def _drained(seen):
    taken = list(seen)
    seen.clear()
    return taken


def _observe_pools(monkeypatch):
    from concurrent.futures import process

    seen = _spy(monkeypatch, process.ProcessPoolExecutor, "__init__",
                lambda self, max_workers=None, **_: max_workers)
    return lambda runs: _drained(seen)


def _observe_cache_hits(monkeypatch):
    return lambda runs: [run.cache_hits for run in runs]


def _observe_point_backend(monkeypatch):
    import repro.sim.sweep as sweep_mod
    from repro.core.accounting import resolve_analysis_backend

    seen = _spy(monkeypatch, sweep_mod, "run_point",
                lambda point: resolve_analysis_backend(None))
    return lambda runs: set(_drained(seen))


def _observe_batch_worlds(monkeypatch):
    from repro.sim import batch as batch_module

    seen = _spy(monkeypatch, batch_module.BatchSimulator, "__init__",
                lambda self, sims: len(sims))
    return lambda runs: _drained(seen)


def _other_backend(tmp_path):
    from repro.core.accounting import resolve_analysis_backend

    ambient = resolve_analysis_backend(None)
    return "streaming" if ambient == "columnar" else "columnar"


#: One row per ``run_sweep`` keyword: the name, a baseline value, the
#: value under test, the header line fragment that value must render,
#: and an observer of the behaviour it must change.
KNOBS = [
    ("jobs", 1, lambda tmp_path: 2,
     lambda value: f"-- mode: parallel x{value},", _observe_pools),
    ("cache_dir", None, lambda tmp_path: str(tmp_path / "cache"),
     lambda value: f"simulated ({value})", _observe_cache_hits),
    ("backend", None, _other_backend,
     lambda value: f"-- analysis backend: {value}", _observe_point_backend),
    ("batch", 1, lambda tmp_path: 2,
     lambda value: f", batch {value};", _observe_batch_worlds),
]


@pytest.mark.parametrize("name,baseline,make_value,header,observe", KNOBS,
                         ids=[row[0] for row in KNOBS])
def test_run_sweep_knob_conformance(name, baseline, make_value, header,
                                    observe, monkeypatch, tmp_path):
    """Every knob shows in the report header and changes what runs:
    each configuration is swept twice (so a cache can hit) and the
    observer must see a difference against the baseline value."""
    value = make_value(tmp_path)
    observed = observe(monkeypatch)
    grid = {"duration_ns": [str(seconds(4))]}

    def sweep_twice(setting):
        runs = [run_sweep("table3", range(2), grid, **{name: setting})
                for _ in range(2)]
        return runs, observed(runs)

    base_runs, base_seen = sweep_twice(baseline)
    runs, seen = sweep_twice(value)
    assert header(value) in runs[0].render()
    assert header(value) not in base_runs[0].render()
    assert seen != base_seen, (name, seen)
    assert runs[1].digest() == base_runs[1].digest()


def test_run_sweep_signature_is_the_knob_table():
    """A new ``run_sweep`` keyword needs a row in KNOBS."""
    params = list(inspect.signature(run_sweep).parameters)
    assert params == ["exp_id", "seeds", "overrides",
                      *[row[0] for row in KNOBS]]
