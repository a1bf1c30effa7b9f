"""ASCII rendering: tables, lanes, plots."""

import pytest

from repro.core.report import (
    LaneSegment,
    format_table,
    render_kv,
    render_lanes,
    render_xy,
)
from repro.units import ms


def test_format_table_alignment():
    text = format_table(("name", "value"), [("a", 1), ("long-name", 22)],
                        title="t")
    lines = text.splitlines()
    assert lines[0] == "t"
    assert "name" in lines[1] and "value" in lines[1]
    # Numbers right-aligned in the same column.
    assert lines[3].rstrip().endswith("1")
    assert lines[4].rstrip().endswith("22")


def test_render_lanes_places_segments():
    lanes = {
        "CPU": [LaneSegment(ms(0), ms(50), "Red")],
        "LED": [LaneSegment(ms(50), ms(100), "Blue")],
    }
    text = render_lanes(lanes, 0, ms(100), width=20)
    lines = text.splitlines()
    cpu_line = next(l for l in lines if l.lstrip().startswith("CPU |"))
    led_line = next(l for l in lines if l.lstrip().startswith("LED |"))
    # Red occupies the first half of the CPU lane, Blue the second of LED.
    cells_cpu = cpu_line.split("|")[1]
    cells_led = led_line.split("|")[1]
    assert cells_cpu[:10].count("R") == 10
    assert cells_cpu[10:].count(".") == 10
    assert cells_led[:10].count(".") == 10
    assert "legend" in text


def test_render_lanes_empty_window_rejected():
    with pytest.raises(ValueError):
        render_lanes({}, 100, 100)


def test_render_lanes_clips_to_window():
    lanes = {"X": [LaneSegment(-ms(10), ms(200), "A")]}
    text = render_lanes(lanes, 0, ms(100), width=10)
    row = next(l for l in text.splitlines()
               if l.lstrip().startswith("X |"))
    # The first label gets the first glyph ('R'); the span fills the lane.
    assert row.split("|")[1] == "R" * 10


def test_render_xy_contains_series_marks():
    text = render_xy(
        {"one": ([0, 1, 2], [0, 1, 2]), "two": ([0, 1, 2], [2, 1, 0])},
        width=30, height=10)
    assert "o" in text and "x" in text
    assert "legend: o=one  x=two" in text


def test_render_xy_empty():
    assert "(no data)" in render_xy({}, title="empty")


def test_render_xy_flat_series():
    text = render_xy({"flat": ([0, 1], [5, 5])}, width=20, height=5)
    assert "o" in text


def test_render_kv():
    text = render_kv("title", [("key", "value"), ("k2", 3)])
    assert text.splitlines()[0] == "title"
    assert "key" in text and "value" in text
