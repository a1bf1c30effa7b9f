"""The fleet/sweep subsystem: grid expansion, execution, aggregation, CLI."""

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


def test_in_grid_index_order_restores_any_arrival_order():
    from repro.sim.sweep import _in_grid_index_order

    arrivals = [(3, "d"), (0, "a"), (2, "c"), (1, "b"), (4, "e")]
    assert list(_in_grid_index_order(iter(arrivals), 5)) == \
        ["a", "b", "c", "d", "e"]


def test_in_grid_index_order_detects_missing_results():
    from repro.sim.sweep import _in_grid_index_order

    with pytest.raises(SweepError):
        list(_in_grid_index_order(iter([(0, "a"), (2, "c")]), 3))


def test_seed_worker_fingerprint_prevents_rehash(monkeypatch):
    """The pool initializer installs the parent's fingerprint, so a
    worker-side code_fingerprint() is a cache hit, not a tree hash."""
    import repro.sim.sweep as sweep_mod

    monkeypatch.setattr(sweep_mod, "_code_fingerprint_cache", None)
    sweep_mod._seed_worker_fingerprint("f" * 64)
    assert sweep_mod.code_fingerprint() == "f" * 64


def test_parallel_sweep_chunked_path_matches_serial_on_64_points():
    """The chunked imap_unordered executor must stay byte-identical to
    the serial reference on a grid large enough to exercise chunking
    (chunksize > 1) and out-of-order arrival."""
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
