"""Plain-text tables and ASCII charts for the experiment harness."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Monospace table with right-aligned numeric columns."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([_fmt(v) for v in row])
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    for idx, row in enumerate(cells):
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
        if idx == 0:
            lines.append(sep)
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return "%.0f" % value
        return "%.3g" % value
    return str(value)


def ascii_chart(series: Dict[str, List[Tuple[float, float]]],
                width: int = 64, height: int = 18,
                title: str = "", xlabel: str = "") -> str:
    """Scatter chart of several named series on a shared grid.

    Good enough to eyeball the shape of the paper's figures in a
    terminal; each series is drawn with its own marker, and the y axis
    always reaches 0.
    """
    markers = "ox+*#@%&"
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(0.0, min(ys)), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1
    grid = [[" "] * width for _ in range(height)]
    for (name, pts), marker in zip(series.items(), markers):
        for x, y in pts:
            col = int((x - x_lo) / (x_hi - x_lo) * (width - 1))
            row = int((y - y_lo) / (y_hi - y_lo) * (height - 1))
            grid[height - 1 - row][col] = marker
    lines = []
    if title:
        lines.append(title)
    lines.append("%12.4g |%s" % (y_hi, ""))
    for row in grid:
        lines.append("             |" + "".join(row))
    lines.append("%12.4g +%s" % (y_lo, "-" * width))
    lines.append("             %-10.4g%s%10.4g"
                 % (x_lo, " " * (width - 18), x_hi))
    if xlabel:
        lines.append("             %s" % xlabel)
    legend = "  ".join("%s=%s" % (m, n)
                       for (n, __), m in zip(series.items(), markers))
    lines.append("  " + legend)
    return "\n".join(lines)
