"""The digest-keyed sweep cache and the streaming aggregation path."""

import pytest

from repro.cli import main
from repro.errors import SweepError
from repro.sim import sweep as sweep_mod
from repro.sim.sweep import (
    PointResult,
    SweepCache,
    SweepPoint,
    code_fingerprint,
    expand_grid,
    run_sweep,
)
from repro.units import seconds

SHORT = str(seconds(8))
OVERRIDES = {"duration_ns": [SHORT], "device_variation": ["0.02"]}


def test_second_identical_sweep_reuses_every_point(tmp_path):
    first = run_sweep("table3", range(2), OVERRIDES, jobs=1,
                      cache_dir=tmp_path)
    assert (first.cache_hits, first.simulated) == (0, 2)
    second = run_sweep("table3", range(2), OVERRIDES, jobs=2,
                       cache_dir=tmp_path)
    assert (second.cache_hits, second.simulated) == (2, 0)
    # Aggregates folded from cache are byte-identical to fresh ones.
    assert second.digest() == first.digest()
    assert second.metrics == first.metrics
    assert second.comparisons == first.comparisons
    assert all(point.from_cache for point in second.points)


def test_grid_extension_simulates_only_new_points(tmp_path):
    run_sweep("table3", range(2), OVERRIDES, jobs=1, cache_dir=tmp_path)
    extended = run_sweep("table3", range(4), OVERRIDES, jobs=1,
                         cache_dir=tmp_path)
    assert (extended.cache_hits, extended.simulated) == (2, 2)
    flags = [point.from_cache for point in extended.points]
    assert flags == [True, True, False, False]


def test_cached_and_uncached_aggregates_agree(tmp_path):
    cached = run_sweep("table3", range(2), OVERRIDES, jobs=1,
                       cache_dir=tmp_path)
    rerun = run_sweep("table3", range(2), OVERRIDES, jobs=1,
                      cache_dir=tmp_path)
    plain = run_sweep("table3", range(2), OVERRIDES, jobs=1)
    assert plain.digest() == cached.digest() == rerun.digest()
    assert plain.metrics == cached.metrics == rerun.metrics


def test_corrupt_cache_entry_misses_and_reruns(tmp_path):
    """A torn shard tail (the crash-mid-append case) drops exactly the
    incomplete record: the point misses, is re-simulated, and the rerun
    appends a fresh record that future runs hit."""
    run_sweep("table3", [0], OVERRIDES, jobs=1, cache_dir=tmp_path)
    (shard,) = list(tmp_path.rglob("*.shard"))
    blob = shard.read_bytes()
    shard.write_bytes(blob[:-10])  # tear the record mid-payload
    result = run_sweep("table3", [0], OVERRIDES, jobs=1, cache_dir=tmp_path)
    assert (result.cache_hits, result.simulated) == (0, 1)
    # The rerun appended a complete record (last write wins).
    rerun = run_sweep("table3", [0], OVERRIDES, jobs=1, cache_dir=tmp_path)
    assert (rerun.cache_hits, rerun.simulated) == (1, 0)
    assert rerun.points[0].digest == result.points[0].digest


def test_garbled_shard_magic_is_a_full_miss(tmp_path):
    run_sweep("table3", [0], OVERRIDES, jobs=1, cache_dir=tmp_path)
    (shard,) = list(tmp_path.rglob("*.shard"))
    shard.write_bytes(b"not a shard store" + shard.read_bytes())
    result = run_sweep("table3", [0], OVERRIDES, jobs=1, cache_dir=tmp_path)
    assert (result.cache_hits, result.simulated) == (0, 1)


def test_cache_dir_holds_one_file_per_experiment(tmp_path):
    """The shard is the whole store: no side index, one file per
    experiment however many points and reruns it holds."""
    run_sweep("table3", range(2), OVERRIDES, jobs=1, cache_dir=tmp_path)
    run_sweep("table3", range(3), OVERRIDES, jobs=1, cache_dir=tmp_path)
    assert [path.name for path in tmp_path.iterdir()] == ["table3.shard"]


def test_point_key_binds_to_source_fingerprint(monkeypatch):
    cache = SweepCache("unused")
    point = SweepPoint("table3", 7, (("duration_ns", SHORT),))
    monkeypatch.setattr(sweep_mod, "_code_fingerprint_cache", "aaa")
    key_a = cache.point_key(point)
    monkeypatch.setattr(sweep_mod, "_code_fingerprint_cache", "bbb")
    key_b = cache.point_key(point)
    assert key_a != key_b
    # Stable within one source tree, sensitive to every grid coordinate.
    monkeypatch.setattr(sweep_mod, "_code_fingerprint_cache", "aaa")
    assert cache.point_key(point) == key_a
    assert cache.point_key(SweepPoint("table3", 8, point.overrides)) != key_a


def test_each_point_key_is_derived_once_per_campaign(tmp_path, monkeypatch):
    derive = sweep_mod._derive_point_key
    calls: list[SweepPoint] = []

    def counting(fingerprint, point):
        calls.append(point)
        return derive(fingerprint, point)

    monkeypatch.setattr(sweep_mod, "_derive_point_key", counting)
    points = expand_grid("table3", range(3), OVERRIDES)
    # Cold: has() probes, store() writes — one derivation per point.
    cold = run_sweep("table3", range(3), OVERRIDES, jobs=1,
                     cache_dir=tmp_path)
    assert calls == points
    # Fully cached: has() and load() share each point's key.
    calls.clear()
    warm = run_sweep("table3", range(3), OVERRIDES, jobs=1,
                     cache_dir=tmp_path)
    assert (warm.cache_hits, warm.simulated) == (3, 0)
    assert calls == points
    assert warm.digest() == cold.digest()


def test_code_fingerprint_is_cached_and_hexdigest():
    first = code_fingerprint()
    assert first == code_fingerprint()
    assert len(first) == 64
    int(first, 16)  # hex


def test_jobs_zero_autodetects_workers(tmp_path):
    result = run_sweep("table3", range(2), OVERRIDES, jobs=0)
    assert result.jobs >= 1
    assert len(result.points) == 2


def test_render_reports_cache_provenance(tmp_path):
    run_sweep("table3", [0], OVERRIDES, jobs=1, cache_dir=tmp_path)
    text = run_sweep("table3", range(2), OVERRIDES, jobs=1,
                     cache_dir=tmp_path).render()
    assert "-- cache: 1 reused, 1 simulated" in text
    assert "cache" in text and "run" in text  # per-point source column
    plain = run_sweep("table3", [0], OVERRIDES, jobs=1).render()
    assert "-- cache:" not in plain


# -- CLI ------------------------------------------------------------------


def test_cli_sweep_cache_dir_flag(tmp_path, capsys):
    args = ["sweep", "table3", "--seeds", "1",
            "--set", f"duration_ns={SHORT}",
            "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "-- cache: 1 reused, 0 simulated" in out


def test_cli_sweep_cache_env_and_no_cache(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path))
    args = ["sweep", "table3", "--seeds", "1",
            "--set", f"duration_ns={SHORT}"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert f"-- cache: 0 reused, 1 simulated ({tmp_path})" in out
    assert main([*args, "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "-- cache:" not in out


def test_cli_sweep_jobs_zero(capsys):
    code = main(["sweep", "table3", "--seeds", "1", "--jobs", "0",
                 "--set", f"duration_ns={SHORT}"])
    assert code == 0
    assert "== sweep: table3" in capsys.readouterr().out


def test_cli_sweep_negative_jobs_rejected(capsys):
    assert main(["sweep", "table3", "--seeds", "1", "--jobs", "-2"]) == 2


# -- choice-validated parameters -------------------------------------------


def test_topology_choices_validated_before_fork():
    from repro.errors import ExperimentParameterError

    with pytest.raises(ExperimentParameterError) as excinfo:
        expand_grid("ext_collection", [0], {"topology": ["ring"]})
    message = str(excinfo.value)
    assert "line" in message and "star" in message


def test_topology_choice_accepted():
    points = expand_grid("ext_collection", [0],
                         {"topology": ["line", "star"], "nodes": ["2"]})
    assert len(points) == 2


def test_node_count_minimum_validated_before_fork():
    from repro.errors import ExperimentParameterError

    for exp_id in ("fig12", "ext_collection"):
        with pytest.raises(ExperimentParameterError) as excinfo:
            expand_grid(exp_id, [0], {"nodes": ["1", "2"]})
        assert "at least 2" in str(excinfo.value)


def test_unwritable_cache_dir_does_not_kill_the_sweep(tmp_path):
    """A cache root that is a plain file can neither load nor store —
    the campaign must still complete, just without reuse."""
    bogus = tmp_path / "not-a-dir"
    bogus.write_text("occupied")
    result = run_sweep("table3", [0], OVERRIDES, jobs=1, cache_dir=bogus)
    assert (result.cache_hits, result.simulated) == (0, 1)
    rerun = run_sweep("table3", [0], OVERRIDES, jobs=1, cache_dir=bogus)
    assert (rerun.cache_hits, rerun.simulated) == (0, 1)
    assert rerun.digest() == result.digest()


def test_cache_roundtrip_canary_runs_once_per_process(tmp_path,
                                                     monkeypatch):
    """The first store of a process proves its JSON round trip: a lossy
    payload (a tuple comes back a list) is refused until a lossless one
    passes; after that only the canary has checked."""
    monkeypatch.setattr(SweepCache, "_roundtrip_verified", False)
    point_a, point_b = expand_grid("table3", [0, 1])
    cache = SweepCache(tmp_path)
    lossy = PointResult(point=point_b, data={"pair": (1, 2)},
                        comparisons=[], digest="b", wall_s=0.0)
    assert not cache.store(lossy)
    assert not SweepCache._roundtrip_verified
    assert cache.store(PointResult(point=point_a, data={"pair": [1, 2]},
                                   comparisons=[], digest="a", wall_s=0.0))
    assert SweepCache._roundtrip_verified
    assert cache.store(lossy)
    assert cache.has(point_b)
