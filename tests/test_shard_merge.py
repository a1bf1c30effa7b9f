"""Shard partitioning and the shard/merge determinism contract.

The multi-machine campaign story: plan one manifest, copy it to N
machines, run ``campaign worker <manifest> --shard i/N`` on machine
``i``, then ``campaign merge <manifest> --cache-dir <other dirs>``
folds the stores.  Gated here:

* the partition is exact — every grid point lands in exactly one shard,
  shards never overlap, their union is the grid;
* the merged result is **byte-identical** to the unsharded run — same
  aggregates, same per-point digests, same sweep digest;
* merging from either machine's copy of the manifest gives the same
  bytes;
* strict mode refuses a merge with missing coverage instead of quietly
  simulating the gap — and a record that is framed but does not parse
  is missing coverage too.
"""

import shutil

import pytest

from repro.cli import main
from repro.errors import CampaignError, SweepError
from repro.sim import sweep as sweep_mod
from repro.sim.campaign import (
    merge_campaign,
    parse_shard,
    plan_campaign,
    run_worker,
    shard_points,
)
from repro.sim.shardstore import RECORD_HEADER, SHARD_MAGIC
from repro.sim.sweep import expand_grid, run_sweep
from repro.units import seconds

SHORT = str(seconds(8))
OVERRIDES = {"duration_ns": [SHORT], "device_variation": ["0.02"]}


# -- partition -------------------------------------------------------------


def test_every_point_lands_in_exactly_one_shard():
    grid = expand_grid("table3", range(7), OVERRIDES)
    for count in (1, 2, 3, 7, 5):
        shards = [shard_points(grid, i, count) for i in range(count)]
        seen = [point for shard in shards for point in shard]
        assert sorted(seen, key=grid.index) == grid  # union, no dupes
        assert sum(len(s) for s in shards) == len(grid)


def test_shard_partition_is_deterministic_round_robin():
    grid = expand_grid("table3", range(6), OVERRIDES)
    assert shard_points(grid, 0, 3) == grid[0::3]
    assert shard_points(grid, 2, 3) == grid[2::3]
    # A shard of one is the whole grid.
    assert shard_points(grid, 0, 1) == grid


def test_parse_shard_specs():
    assert parse_shard("0/4") == (0, 4)
    assert parse_shard("3/4") == (3, 4)
    for bad in ("4/4", "-1/4", "1", "a/b", "1/0", "/"):
        with pytest.raises(SweepError):
            parse_shard(bad)


# -- merge ------------------------------------------------------------------


def machines(tmp_path, seeds, shards, run=None):
    """Plan one manifest, copy it into one dir per machine, and run
    ``run_worker`` for machine i's shard in dir i (every shard unless
    ``run`` names which).  Returns the per-machine manifest paths."""
    plan_campaign("table3", seeds, OVERRIDES, shards=shards,
                  out_path=tmp_path / "camp.json")
    paths = []
    for index in range(shards):
        directory = tmp_path / f"m{index}"
        directory.mkdir()
        path = directory / "camp.json"
        shutil.copy(tmp_path / "camp.json", path)
        paths.append(path)
    for index in (range(shards) if run is None else run):
        assert run_worker(paths[index], index, shards) == 0
    return paths


def test_sharded_then_merged_is_byte_identical_to_unsharded(tmp_path):
    """The acceptance criterion: shard the grid over two machines'
    stores, merge, and compare everything against the single-machine
    run."""
    unsharded = run_sweep("table3", range(4), OVERRIDES, jobs=1)
    m0, m1 = machines(tmp_path, range(4), 2)
    merged = merge_campaign(m0, extra_cache_dirs=[m1.parent / "cache"],
                            strict=True)
    assert merged.digest() == unsharded.digest()
    assert merged.metrics == unsharded.metrics
    assert merged.comparisons == unsharded.comparisons
    assert [p.digest for p in merged.points] == \
        [p.digest for p in unsharded.points]
    assert merged.cache_hits == 4 and merged.simulated == 0


def test_merge_is_order_independent(tmp_path):
    m0, m1 = machines(tmp_path, range(3), 2)
    forward = merge_campaign(m0, extra_cache_dirs=[m1.parent / "cache"],
                             strict=True)
    backward = merge_campaign(m1, extra_cache_dirs=[m0.parent / "cache"],
                              strict=True)
    assert forward.digest() == backward.digest()
    assert forward.metrics == backward.metrics
    assert forward.render().splitlines()[0] == \
        backward.render().splitlines()[0]


def test_strict_merge_refuses_missing_coverage(tmp_path):
    m0, _m1 = machines(tmp_path, range(4), 2, run=[0])
    # Shard 1/2 never ran: strict merge must name the gap.
    with pytest.raises(SweepError) as excinfo:
        merge_campaign(m0, strict=True)
    assert "missing" in str(excinfo.value)


def test_strict_merge_refuses_a_garbled_record(tmp_path, monkeypatch):
    """A record whose frame is intact but whose zlib payload is not is
    a gap, not coverage: strict merge names the point and simulates
    nothing."""
    (m0,) = machines(tmp_path, range(2), 1)
    shard = m0.parent / "cache" / "table3.shard"
    blob = bytearray(shard.read_bytes())
    payload_at = len(SHARD_MAGIC) + RECORD_HEADER.size
    _key, _flags, length = RECORD_HEADER.unpack_from(blob, len(SHARD_MAGIC))
    blob[payload_at + length // 2] ^= 0xFF
    shard.write_bytes(bytes(blob))
    simulated = []
    real_iter_chunk = sweep_mod._iter_chunk

    def spy(points, k):
        simulated.extend(points)
        return real_iter_chunk(points, k)

    monkeypatch.setattr(sweep_mod, "_iter_chunk", spy)
    first = expand_grid("table3", range(2), OVERRIDES)[0]
    with pytest.raises(CampaignError, match=r"1 of 2 grid points") as excinfo:
        merge_campaign(m0, strict=True)
    assert first.describe() in str(excinfo.value)
    assert simulated == []


def test_lenient_merge_simulates_the_gap_and_backfills(tmp_path):
    m0, _m1 = machines(tmp_path, range(2), 2, run=[0])
    merged = merge_campaign(m0)
    assert (merged.cache_hits, merged.simulated) == (1, 1)
    assert merged.digest() == run_sweep("table3", range(2), OVERRIDES).digest()
    # The simulated point was written back: a re-merge is all hits.
    again = merge_campaign(m0, strict=True)
    assert (again.cache_hits, again.simulated) == (2, 0)


# -- CLI --------------------------------------------------------------------


def test_cli_shard_and_merge_roundtrip(tmp_path, capsys):
    spec = ["table3", "--seeds", "2", "--set", f"duration_ns={SHORT}"]
    assert main(["sweep", *spec, "--no-cache"]) == 0
    want = capsys.readouterr().out
    assert main(["campaign", "plan", str(tmp_path / "camp.json"), *spec,
                 "--shards", "2"]) == 0
    for index in range(2):
        directory = tmp_path / f"m{index}"
        directory.mkdir()
        shutil.copy(tmp_path / "camp.json", directory / "camp.json")
        assert main(["campaign", "worker", str(directory / "camp.json"),
                     "--shard", f"{index}/2"]) == 0
    capsys.readouterr()
    assert main(["campaign", "merge", str(tmp_path / "m0" / "camp.json"),
                 "--strict", "--cache-dir", str(tmp_path / "m1" / "cache")]) \
        == 0
    merged = capsys.readouterr().out
    assert "-- cache: 2 reused, 0 simulated" in merged

    def digest_line(text):
        return next(line for line in text.splitlines()
                    if "sweep digest" in line)

    assert digest_line(merged) == digest_line(want)


def test_cli_bad_shard_spec_fails_cleanly(tmp_path, capsys):
    plan_campaign("table3", [0], OVERRIDES, out_path=tmp_path / "camp.json")
    assert main(["campaign", "worker", str(tmp_path / "camp.json"),
                 "--shard", "9"]) == 2
    assert "shard" in capsys.readouterr().err
