"""Terminal-renderable charts for experiment output.

The paper's figures are line plots and CDFs; this environment has no
plotting stack, so the experiment ``main()``s render compact ASCII charts
instead — enough to eyeball that Dynatune's series tracks the RTT line or
that a CDF sits left of another.

Only two chart shapes are needed:

* :func:`line_chart` — one or more (x, y) series on a shared grid, NaN-
  tolerant (gaps simply don't paint);
* :func:`cdf_chart` — convenience wrapper rendering empirical CDFs.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["line_chart", "cdf_chart"]

_MARKERS = "*o+x#@%&"

#: Plot area width in characters (axes add a margin); every chart uses it.
WIDTH = 72


def _scale(v: float, lo: float, hi: float, cells: int) -> int:
    if hi <= lo:
        return 0
    frac = (v - lo) / (hi - lo)
    return min(cells - 1, max(0, int(frac * (cells - 1) + 0.5)))


def line_chart(
    series: dict[str, tuple[Sequence[float], Sequence[float]]],
    *,
    height: int = 16,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render named (xs, ys) series onto one character grid.

    Args:
        series: name → (xs, ys); series are assigned markers in order.
        height: plot area height in characters (``WIDTH`` wide).

    Returns:
        The chart as a newline-joined string.

    Raises:
        ValueError: if no series contains a finite point.
    """
    if not series:
        raise ValueError("need at least one series")
    xs_all: list[float] = []
    ys_all: list[float] = []
    for xs, ys in series.values():
        for x, y in zip(xs, ys):
            if math.isfinite(x) and math.isfinite(y):
                xs_all.append(float(x))
                ys_all.append(float(y))
    if not xs_all:
        raise ValueError("no finite data points to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0

    grid = [[" "] * WIDTH for _ in range(height)]
    for idx, (name, (xs, ys)) in enumerate(series.items()):
        marker = _MARKERS[idx % len(_MARKERS)]
        for x, y in zip(xs, ys):
            if not (math.isfinite(x) and math.isfinite(y)):
                continue
            col = _scale(float(x), x_lo, x_hi, WIDTH)
            row = height - 1 - _scale(float(y), y_lo, y_hi, height)
            grid[row][col] = marker

    lines: list[str] = []
    if title:
        lines.append(title)
    label_w = 10
    for i, row in enumerate(grid):
        if i == 0:
            label = f"{y_hi:>{label_w}.0f} |"
        elif i == height - 1:
            label = f"{y_lo:>{label_w}.0f} |"
        elif i == height // 2 and y_label:
            label = f"{y_label[:label_w]:>{label_w}} |"
        else:
            label = " " * label_w + " |"
        lines.append(label + "".join(row))
    lines.append(" " * label_w + " +" + "-" * WIDTH)
    x_axis = f"{x_lo:.0f}"
    pad = WIDTH - len(x_axis) - len(f"{x_hi:.0f}")
    lines.append(
        " " * (label_w + 2) + x_axis + " " * max(1, pad) + f"{x_hi:.0f}"
        + (f"  ({x_label})" if x_label else "")
    )
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {name}" for i, name in enumerate(series)
    )
    lines.append(" " * (label_w + 2) + legend)
    return "\n".join(lines)


def cdf_chart(
    cdfs: dict[str, tuple[np.ndarray, np.ndarray]], *, title: str = ""
) -> str:
    """Render empirical CDFs (output of :func:`repro.analysis.cdf.
    empirical_cdf`, in ms) as a line chart with probability on the y axis."""
    series = {name: (xs, ps) for name, (xs, ps) in cdfs.items()}
    return line_chart(series, title=title, x_label="ms", y_label="P(X<=x)")
