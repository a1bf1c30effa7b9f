"""Golden determinism: the reproducibility contract of the whole stack.

Same seed => byte-identical packed Blink log and identical rendered
experiment output; and the sweep runner produces the *same bytes* per
seed whether points run serially in one process or fan out to a worker
pool.  Every scaling feature (pooling, sharding, caching) must keep
these green.
"""

import hashlib

from repro.experiments import run_experiment
from repro.experiments.common import run_blink
from repro.sim.sweep import run_point, run_sweep, expand_grid
from repro.units import seconds

SHORT = str(seconds(8))  # short-run override keeps the suite fast

NOISY = {
    "duration_ns": [SHORT],
    "device_variation": ["0.03"],
    "icount_jitter_pulses": ["2.0"],
}


def _blink_log_bytes(seed):
    node, app, sim = run_blink(seed, duration_ns=seconds(8))
    return node.logger.raw_bytes()


def test_same_seed_gives_byte_identical_blink_log():
    assert _blink_log_bytes(7) == _blink_log_bytes(7)


def test_noisy_runs_are_still_self_deterministic():
    def noisy(seed):
        result = run_experiment("table3", seed=seed, overrides={
            "duration_ns": SHORT,
            "device_variation": "0.03",
            "icount_jitter_pulses": "2.0",
        })
        return result.render()

    assert noisy(3) == noisy(3)


def test_different_seeds_diverge_once_noise_is_on():
    runs = {
        seed: run_experiment("table3", seed=seed, overrides={
            "duration_ns": SHORT,
            "device_variation": "0.03",
        }).render()
        for seed in (0, 1)
    }
    assert runs[0] != runs[1]


def test_same_seed_gives_identical_rendered_table3():
    first = run_experiment("table3", seed=5,
                           overrides={"duration_ns": SHORT}).render()
    second = run_experiment("table3", seed=5,
                            overrides={"duration_ns": SHORT}).render()
    assert first == second


def test_point_digest_matches_direct_render():
    point = expand_grid("table3", [4], {"duration_ns": [SHORT]})[0]
    direct = run_experiment("table3", seed=4,
                            overrides={"duration_ns": SHORT}).render()
    expected = hashlib.sha256(direct.encode("utf-8")).hexdigest()
    assert run_point(point).digest == expected


def test_sweep_serial_and_parallel_are_byte_identical_per_seed():
    seeds = range(4)
    serial = run_sweep("table3", seeds, NOISY, jobs=1)
    parallel = run_sweep("table3", seeds, NOISY, jobs=2)
    assert [p.point.seed for p in serial.points] \
        == [p.point.seed for p in parallel.points]
    assert [p.digest for p in serial.points] == \
        [p.digest for p in parallel.points]
    assert serial.digest() == parallel.digest()
    # The aggregates are reductions of identical payloads.
    assert serial.metrics == parallel.metrics
    assert serial.comparisons == parallel.comparisons


def test_sweep_rerun_digest_is_stable():
    first = run_sweep("table3", range(2), NOISY, jobs=1)
    second = run_sweep("table3", range(2), NOISY, jobs=1)
    assert first.digest() == second.digest()
