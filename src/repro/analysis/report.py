"""Plain-text table and scatter-plot rendering.

The benchmark harness runs in a terminal-only environment, so the figures are
rendered as ASCII scatter plots and the tables as aligned text.  These helpers
are deliberately dependency-free (no matplotlib).
"""

from __future__ import annotations

import string
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["format_table", "ascii_scatter"]

#: Markers a series falls back to, in order, when its first character is taken.
_MARKERS = string.digits + string.ascii_letters + string.punctuation


def format_table(headers: Sequence[str], rows: Sequence[Sequence], *, title: str = "") -> str:
    """Render rows as an aligned plain-text table."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(f"row {row!r} does not match headers {list(headers)!r}")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(width) for header, width in zip(headers, widths)))
    lines.append("  ".join("-" * width for width in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def ascii_scatter(
    series: Dict[str, Tuple[np.ndarray, np.ndarray]],
    *,
    width: int = 78,
    height: int = 22,
    x_label: str = "x",
    y_label: str = "y",
    title: str = "",
) -> str:
    """Render named (x, y) series as an ASCII scatter plot.

    Each series is drawn with a distinct single-character marker: its name's
    first character when still free, otherwise the first unused digit,
    letter or punctuation mark.
    """
    if not series:
        raise ValueError("at least one series is required")
    all_x = np.concatenate([np.asarray(x, dtype=float) for x, _ in series.values() if len(x)])
    all_y = np.concatenate([np.asarray(y, dtype=float) for _, y in series.values() if len(y)])
    if all_x.size == 0:
        raise ValueError("series contain no points")
    x_min, x_max = float(all_x.min()), float(all_x.max())
    y_min, y_max = float(all_y.min()), float(all_y.max())
    x_span = x_max - x_min if x_max > x_min else 1.0
    y_span = y_max - y_min if y_max > y_min else 1.0

    grid = [[" "] * width for _ in range(height)]
    markers: List[str] = []
    used = set()
    for name in series:
        marker = str(name)[0]
        if marker in used:
            marker = next((char for char in _MARKERS if char not in used), None)
            if marker is None:
                raise ValueError(f"at most {len(_MARKERS)} series can get distinct markers")
        used.add(marker)
        markers.append(marker)

    for (name, (xs, ys)), marker in zip(series.items(), markers):
        for x, y in zip(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)):
            col = int(round((x - x_min) / x_span * (width - 1)))
            row = int(round((y - y_min) / y_span * (height - 1)))
            grid[height - 1 - row][col] = marker

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_label} (top={y_max:.1f}, bottom={y_min:.1f})")
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.append(f" {x_label}: {x_min:.1f} .. {x_max:.1f}")
    legend = ", ".join(f"{marker}={name}" for (name, _), marker in zip(series.items(), markers))
    lines.append(f" legend: {legend}")
    return "\n".join(lines)
