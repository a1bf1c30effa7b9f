"""The fleet/sweep subsystem: grid expansion, execution, aggregation, CLI."""

import inspect
import math
import random
import types
from typing import Mapping

import numpy as np
import pytest

from repro.cli import main
from repro.errors import SweepError
from repro.sim.sweep import (
    MetricStats,
    PointResult,
    SweepAggregator,
    SweepPoint,
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


def _fold(points):
    aggregator = SweepAggregator()
    for point in points:
        aggregator.fold(point)
    return aggregator


def test_aggregate_metrics_mean_stddev_ci():
    points = [_synthetic_point(s, v, v * 2)
              for s, v in enumerate((4.0, 6.0, 8.0))]
    stats = {m.name: m for m in _fold(points).metrics()}
    scalar = stats["scalar"]
    assert scalar.n == 3
    assert scalar.mean == pytest.approx(6.0)
    assert scalar.stddev == pytest.approx(2.0)  # sample stddev of 4,6,8
    assert scalar.ci95 == pytest.approx(1.96 * 2.0 / math.sqrt(3))
    assert (scalar.min, scalar.max) == (4.0, 8.0)
    assert stats["group.cell"].mean == pytest.approx(12.0)
    assert "label" not in stats


def test_aggregate_single_point_has_zero_spread():
    stats = _fold([_synthetic_point(0, 5.0, 1.0)]).metrics()
    by_name = {m.name: m for m in stats}
    assert by_name["scalar"].stddev == 0.0
    assert by_name["scalar"].ci95 == 0.0


def test_aggregate_comparisons_keeps_experiment_order():
    points = [_synthetic_point(s, v, 0.0) for s, v in enumerate((9.0, 11.0))]
    comps = _fold(points).comparisons()
    assert len(comps) == 1
    assert comps[0].name == "metric (mJ)"
    assert comps[0].paper == 10.0
    assert comps[0].mean == pytest.approx(10.0)
    assert comps[0].stddev == pytest.approx(math.sqrt(2.0))


# The differential oracle: the recursive flatten and the per-value
# Welford method the aggregator used before both were inlined.  The
# aggregator must reproduce them bit for bit.


def _oracle_leaves(data, prefix=""):
    leaves = {}
    for key, value in data.items():
        path = f"{prefix}{key}"
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            leaves[path] = float(value)
        elif isinstance(value, Mapping):
            leaves.update(_oracle_leaves(value, prefix=f"{path}."))
    return leaves


class _OracleStat:
    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value):
        self.n += 1
        delta = value - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (value - self.mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def stddev(self):
        if self.n <= 1:
            return 0.0
        return math.sqrt(self._m2 / (self.n - 1))

    @property
    def ci95(self):
        if self.n <= 1:
            return 0.0
        return 1.96 * self.stddev / math.sqrt(self.n)


def _random_number(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.randint(-10**6, 10**6)
    if kind == 1:
        return rng.randint(2**53, 2**62)  # loses bits as a float
    if kind == 2:
        return np.float64(rng.gauss(0.0, 1e3))
    if kind == 3:
        return -0.0
    return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-9, 9)


def _random_payload(rng, depth=0):
    data = {}
    for index in rng.sample(range(12), rng.randint(3, 12)):
        key = f"k{index}"
        roll = rng.random()
        if roll < 0.45 or depth >= 3:
            data[key] = _random_number(rng)
        elif roll < 0.55:
            data[key] = rng.random() < 0.5  # bool: skipped
        elif roll < 0.62:
            data[key] = rng.choice(["text", [1.0, 2.0], None])  # skipped
        elif roll < 0.70:
            data[key] = types.MappingProxyType(_random_payload(rng, depth + 1))
        else:
            data[key] = _random_payload(rng, depth + 1)
    # A key that is a number in some points and a dict in others.
    data["mixed"] = (_random_number(rng) if rng.random() < 0.5
                     else {"inner": _random_number(rng)})
    # A dotted key colliding with a nested path, in either order.
    if rng.random() < 0.5:
        collide = [("a.b", _random_number(rng)),
                   ("a", {"b": _random_number(rng), "c": 1.5})]
        rng.shuffle(collide)
        data.update(collide)
    return data


def test_aggregator_matches_recursive_oracle_bit_for_bit():
    rng = random.Random(20081208)
    names = [f"c{index}" for index in range(6)]
    points = []
    for seed in range(200):
        comparisons = [(name, float(index + 1), _random_number(rng))
                       for index, name in enumerate(names)
                       if rng.random() < 0.7]
        rng.shuffle(comparisons)
        points.append(PointResult(
            point=SweepPoint("table3", seed), data=_random_payload(rng),
            comparisons=comparisons, digest="0" * 64, wall_s=0.0))

    metrics: dict[str, _OracleStat] = {}
    comparisons: dict[str, tuple[float, _OracleStat]] = {}
    for point in points:
        leaves = _oracle_leaves(point.data)
        # Same leaves, same order, same values (last duplicate wins).
        flat = numeric_leaves(point.data)
        assert list(flat) == list(leaves)
        assert [v.hex() for v in flat.values()] == \
            [v.hex() for v in leaves.values()]
        for name, value in leaves.items():
            metrics.setdefault(name, _OracleStat()).add(value)
        for name, paper, value in point.comparisons:
            comparisons.setdefault(name, (paper, _OracleStat()))[1].add(value)

    aggregator = _fold(points)
    got = aggregator.metrics()
    assert [stats.name for stats in got] == sorted(metrics)
    assert "a.b" in metrics and "mixed.inner" in metrics
    for stats in got:
        want = metrics[stats.name]
        assert stats.n == want.n
        assert [stats.mean.hex(), stats.stddev.hex(), stats.ci95.hex(),
                stats.min.hex(), stats.max.hex()] == \
            [want.mean.hex(), want.stddev.hex(), want.ci95.hex(),
             want.min.hex(), want.max.hex()], stats.name
    got_comparisons = aggregator.comparisons()
    assert [comp.name for comp in got_comparisons] == list(comparisons)
    for comp in got_comparisons:
        paper, want = comparisons[comp.name]
        assert comp.paper == paper
        assert [comp.mean.hex(), comp.stddev.hex()] == \
            [want.mean.hex(), want.stddev.hex()], comp.name


# -- execution ------------------------------------------------------------


def test_serial_sweep_aggregates_energy_per_component_activity():
    result = run_sweep(
        "table3", range(2),
        {"duration_ns": [SHORT], "device_variation": ["0.02"]},
        jobs=1,
    )
    assert len(result.points) == 2
    metrics = {stats.name: stats for stats in result.metrics}
    pair = metrics["energy_by_pair_mj.LED0/1:Red"]
    assert pair.n == 2
    assert pair.mean > 0
    assert pair.stddev > 0  # device variation makes seeds differ
    regression = metrics["regression_ma.LED0"]
    assert regression.mean == pytest.approx(2.51, rel=0.2)


def test_parallel_sweep_collects_in_grid_order():
    result = run_sweep("table3", range(3), {"duration_ns": [SHORT]}, jobs=3)
    assert [p.point.seed for p in result.points] == [0, 1, 2]
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


def _observe_batch_worlds(monkeypatch):
    from repro.sim import batch as batch_module

    seen = _spy(monkeypatch, batch_module.BatchSimulator, "__init__",
                lambda self, sims: len(sims))
    return lambda runs: _drained(seen)


#: One row per ``run_sweep`` keyword: the name, a baseline value, the
#: value under test, the header line fragment that value must render,
#: and an observer of the behaviour it must change.
KNOBS = [
    ("jobs", 1, lambda tmp_path: 2,
     lambda value: f"-- mode: parallel x{value},", _observe_pools),
    ("cache_dir", None, lambda tmp_path: str(tmp_path / "cache"),
     lambda value: f"simulated ({value})", _observe_cache_hits),
    ("batch", 1, lambda tmp_path: 2,
     lambda value: f", batch {value};", _observe_batch_worlds),
]


#: Every environment variable the product reads, each a ``REPRO_*``
#: literal under ``src/repro``.
ENV_KNOBS = {
    "REPRO_SWEEP_CACHE",  # sweep --cache-dir default
    "REPRO_SWEEP_BATCH",  # run_sweep(batch=) default
    "REPRO_WARM_START",  # reuse worlds across points
    "REPRO_FAULT",  # fault injection: which site, which fault
    "REPRO_FAULT_FUSE",  # fire an injected fault exactly once
    "REPRO_FAULT_SELECT",  # fire only for one selector
}


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


def test_env_knobs_are_the_declared_table():
    """A new environment knob needs a row in ENV_KNOBS, and a removed
    one must leave no literal behind."""
    import re
    from pathlib import Path

    import repro

    found = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        found.update(re.findall(r"REPRO_[A-Z_]+",
                                path.read_text(encoding="utf-8")))
    assert found == ENV_KNOBS
