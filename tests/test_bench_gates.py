"""The perf gates of ``benchmarks/bench_engine.py``, driven with
synthetic numbers, and a smoke run of its benches."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "benchmarks"))
import bench_engine  # noqa: E402

GATED = list(bench_engine.GATES)


def _baseline() -> dict:
    return {**{row: 100.0 for row in GATED}, "sweep_digest": "d"}


def _numbers(**rows) -> dict:
    """A measurement equal to :func:`_baseline`, batch gate at its
    floor, with ``rows`` overridden."""
    return {**_baseline(), "batch_speedup": bench_engine.BATCH_FLOOR,
            **rows}


def _failures(numbers: dict, baseline: dict) -> list[str]:
    return [line for line in
            bench_engine.check_against_baseline(numbers, baseline)
            if line.startswith("FAIL")]


def test_rows_equal_to_the_baseline_pass():
    lines = bench_engine.check_against_baseline(_numbers(), _baseline())
    assert len(lines) == len(GATED) + 1
    assert all(line.startswith("ok") for line in lines)


@pytest.mark.parametrize("row", GATED)
def test_row_at_70_percent_of_its_baseline_fails(row):
    (failure,) = _failures(_numbers(**{row: 70.0}), _baseline())
    assert f" {row} " in failure


@pytest.mark.parametrize("row", GATED)
def test_row_missing_from_the_baseline_fails(row):
    baseline = _baseline()
    del baseline[row]
    (failure,) = _failures(_numbers(), baseline)
    assert f" {row} is missing" in failure


def test_sweep_digest_change_fails():
    (failure,) = _failures(_numbers(sweep_digest="e"), _baseline())
    assert "sweep_digest" in failure


def test_batch_speedup_under_its_floor_fails():
    """The batch gate is absolute: no baseline row moves it."""
    (failure,) = _failures(_numbers(batch_speedup=1.14), _baseline())
    assert failure.startswith("FAIL batch_speedup ")
    assert bench_engine.batch_gate(1.14).startswith("FAIL")
    assert bench_engine.batch_gate(1.15).startswith("ok")


def test_parallel_gate_floor():
    assert bench_engine.parallel_gate(1.4).startswith("FAIL")
    assert bench_engine.parallel_gate(1.5).startswith("ok")


def test_committed_baseline_has_every_gated_row():
    baseline = json.loads(bench_engine.BASELINE_PATH.read_text("utf-8"))
    assert set(GATED) | {"sweep_digest"} <= set(baseline)


def test_engine_bench_smoke(monkeypatch):
    """The benches run and their numbers are sane (positive rates,
    reference-identical maps)."""
    monkeypatch.setattr(bench_engine, "SAMPLES", 1)
    assert bench_engine.bench_engine_events(total=2_000) > 0
    numbers = {
        **bench_engine.bench_analysis(rounds=2),
        **bench_engine.bench_network_analysis(rounds=2),
        **bench_engine.bench_windowed(rounds=2),
        **bench_engine.bench_windowed_stream(rounds=1),
        **bench_engine.bench_serve_recovery(rounds=1),
    }
    for row in ("analysis_entries_per_sec_columnar",
                "analysis_entries_per_sec_streaming",
                "analysis_peak_bytes_columnar",
                "analysis_peak_bytes_streaming",
                "network_analysis_entries_per_sec",
                "windowed_entries_per_sec",
                "windowed_stream_entries_per_sec",
                "serve_recovery_ms", "serve_checkpoint_bytes"):
        assert numbers[row] > 0, row
    assert bench_engine.src_loc() > 0
