"""ASCII rendering for tables, lane timelines, and line plots.

The paper's figures are lane charts (hardware components on the Y axis,
time on the X axis, colored by activity) and XY plots.  We render both as
text so every experiment's output is self-contained in the bench logs:

* :func:`format_table` — aligned fixed-width tables (Tables 1–5);
* :func:`render_lanes` — Figure 11/12/15/16-style activity lanes, one row
  per hardware component, with a legend mapping glyphs to activities;
* :func:`render_xy` — Figure 10/13/14-style series plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.units import to_ms

#: Glyphs assigned to activities in lane charts, in assignment order.
LANE_GLYPHS = "RGBVTQXPASDFHJKLMNZ#@%&*+=~"


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned table: the first column left-aligned, the rest
    right-aligned.  Cells are str()'d; floats pre-format upstream so
    each table controls its own precision."""
    text_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(cells):
            if i:
                parts.append(cell.rjust(widths[i]))
            else:
                parts.append(cell.ljust(widths[i]))
        return "  ".join(parts).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(headers))
    lines.append("  ".join("-" * width for width in widths))
    for row in text_rows:
        lines.append(fmt_row(row))
    return "\n".join(lines)


@dataclass
class LaneSegment:
    """One painted span in a lane chart."""

    t0_ns: int
    t1_ns: int
    label: str


def render_lanes(
    lanes: dict[str, list[LaneSegment]],
    t0_ns: int,
    t1_ns: int,
    width: int = 100,
    title: str = "",
) -> str:
    """Render per-component activity lanes over a time window.

    Each activity gets a glyph; unpainted time renders as '.'.  When a
    cell spans several activities the earliest one wins (cells are narrow
    at the default width, so this only blurs sub-cell detail).
    """
    if t1_ns <= t0_ns:
        raise ValueError("empty window")
    glyph_of: dict[str, str] = {}

    def glyph(label: str) -> str:
        if label not in glyph_of:
            glyph_of[label] = LANE_GLYPHS[len(glyph_of) % len(LANE_GLYPHS)]
        return glyph_of[label]

    span = t1_ns - t0_ns
    name_width = max((len(name) for name in lanes), default=4)
    lines = []
    if title:
        lines.append(title)
    for name, segments in lanes.items():
        cells = ["."] * width
        for segment in segments:
            lo = max(segment.t0_ns, t0_ns)
            hi = min(segment.t1_ns, t1_ns)
            if hi <= lo:
                continue
            c0 = int((lo - t0_ns) * width / span)
            c1 = max(c0 + 1, int((hi - t0_ns) * width / span))
            mark = glyph(segment.label)
            for cell in range(c0, min(c1, width)):
                if cells[cell] == ".":
                    cells[cell] = mark
        lines.append(f"{name.rjust(name_width)} |{''.join(cells)}|")
    axis = (
        f"{' ' * name_width} "
        f"{to_ms(t0_ns):.1f} ms{' ' * max(width - 18, 1)}{to_ms(t1_ns):.1f} ms"
    )
    lines.append(axis)
    if glyph_of:
        legend = "  ".join(
            f"{mark}={label}" for label, mark in glyph_of.items()
        )
        lines.append(f"legend: {legend}  .=idle")
    return "\n".join(lines)


def render_xy(
    series: dict[str, tuple[Sequence[float], Sequence[float]]],
    width: int = 90,
    height: int = 20,
    x_label: str = "x",
    y_label: str = "y",
    title: str = "",
) -> str:
    """Render one or more (x, y) series as an ASCII scatter/line plot."""
    all_x = [x for xs, _ in series.values() for x in xs]
    all_y = [y for _, ys in series.values() for y in ys]
    if not all_x:
        return f"{title}\n(no data)"
    x_min, x_max = min(all_x), max(all_x)
    y_min, y_max = min(all_y), max(all_y)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    grid = [[" "] * width for _ in range(height)]
    marks = "ox+*#@"
    for index, (name, (xs, ys)) in enumerate(series.items()):
        mark = marks[index % len(marks)]
        for x, y in zip(xs, ys):
            col = int((x - x_min) / (x_max - x_min) * (width - 1))
            row = int((y - y_min) / (y_max - y_min) * (height - 1))
            grid[height - 1 - row][col] = mark
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_label}: {y_min:.3g} .. {y_max:.3g}")
    for row in grid:
        lines.append("|" + "".join(row) + "|")
    lines.append("+" + "-" * width + "+")
    lines.append(f"{x_label}: {x_min:.3g} .. {x_max:.3g}")
    legend = "  ".join(
        f"{marks[i % len(marks)]}={name}" for i, name in enumerate(series)
    )
    lines.append(f"legend: {legend}")
    return "\n".join(lines)


def render_kv(title: str, pairs: Sequence[tuple[str, object]]) -> str:
    """A simple key/value block for scalar results."""
    key_width = max((len(key) for key, _ in pairs), default=0)
    lines = [title] if title else []
    for key, value in pairs:
        lines.append(f"  {key.ljust(key_width)} : {value}")
    return "\n".join(lines)
