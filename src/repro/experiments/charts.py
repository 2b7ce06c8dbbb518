"""Dependency-free terminal charts for experiment series.

Horizontal bar charts and multi-series line charts built from plain
characters, so a figure's shape is visible without matplotlib.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


def bar_chart(
    items: Sequence[Tuple[str, float]],
    width: int = 48,
    unit: str = "",
) -> str:
    """Horizontal bars, one per (label, value) pair, scaled to ``width``.

    >>> print(bar_chart([("a", 10), ("b", 20)], width=10))
    a █████      10
    b ██████████ 20
    """
    if not items:
        return "(no data)"
    peak = max(value for _, value in items)
    if peak <= 0:
        peak = 1.0
    label_w = max(len(label) for label, _ in items)
    lines = []
    for label, value in items:
        filled = max(1, round(width * value / peak)) if value > 0 else 0
        bar = "█" * filled
        lines.append(
            f"{label:<{label_w}} {bar:<{width}} {value:g}{unit}"
        )
    return "\n".join(lines)


def line_chart(
    series: Dict[str, Sequence[Tuple[float, float]]],
    width: int = 60,
    height: int = 16,
) -> str:
    """Multi-series scatter/line chart on a character canvas.

    ``series`` maps a name to (x, y) points.  Each series is drawn with its
    own glyph; a legend and axis ranges are appended.
    """
    glyphs = "*o+x#@%&"
    points = [pt for pts in series.values() for pt in pts]
    if not points:
        return "(no data)"
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    canvas: List[List[str]] = [[" "] * width for _ in range(height)]
    for idx, (name, pts) in enumerate(series.items()):
        glyph = glyphs[idx % len(glyphs)]
        for x, y in pts:
            col = round((x - x_lo) / x_span * (width - 1))
            row = height - 1 - round((y - y_lo) / y_span * (height - 1))
            canvas[row][col] = glyph

    lines = ["│" + "".join(row) for row in canvas]
    lines.append("└" + "─" * width)
    lines.append(f" x: {x_lo:g} … {x_hi:g}    y: {y_lo:g} … {y_hi:g}")
    legend = "   ".join(
        f"{glyphs[i % len(glyphs)]} {name}" for i, name in enumerate(series)
    )
    lines.append(f" {legend}")
    return "\n".join(lines)


def speedup_chart(
    baseline: Dict[int, float],
    contender: Dict[int, float],
    label: str = "speedup",
    width: int = 40,
) -> str:
    """Bars of ``baseline[x] / contender[x]`` per shared x value."""
    shared = sorted(set(baseline) & set(contender))
    items = [
        (str(x), round(baseline[x] / contender[x], 2)) for x in shared
    ]
    return f"{label}:\n{bar_chart(items, width=width, unit='x')}"
