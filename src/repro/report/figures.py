"""SVG builders for the paper's figure families.

Each builder consumes the corresponding experiment result and returns a
complete SVG document string (also saveable through
:meth:`repro.report.svg.SvgCanvas.save` semantics by writing the string).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bord import GRID_FACTORS, Bord, BordPoint
from repro.core.roofline import RooflinePoint
from repro.core.roofsurface import BoundingFactor
from repro.errors import ConfigurationError
from repro.report.svg import AxisScale, SvgCanvas

_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 20.0
_MARGIN_TOP = 36.0
_MARGIN_BOTTOM = 48.0

_REGION_COLORS = {
    BoundingFactor.MEMORY: "#bde0bd",
    BoundingFactor.VECTOR: "#f7d8a8",
    BoundingFactor.MATRIX: "#b8cdee",
}


def _plot_area(canvas: SvgCanvas) -> Tuple[float, float, float, float]:
    return (
        _MARGIN_LEFT,
        canvas.width - _MARGIN_RIGHT,
        canvas.height - _MARGIN_BOTTOM,
        _MARGIN_TOP,
    )


def roofline_svg(
    curve: Sequence[Tuple[float, float]],
    points: Sequence[RooflinePoint],
    title: str,
) -> str:
    """Figure 3-style roofline: log-log curve plus observed/optimal dots."""
    if not curve or not points:
        raise ConfigurationError("a roofline figure needs a curve and points")
    canvas = SvgCanvas(640, 420)
    x_lo, x_hi, y_lo, y_hi = _plot_area(canvas)
    ais = [ai for ai, _ in curve] + [p.arithmetic_intensity for p in points]
    flops = (
        [f for _, f in curve]
        + [p.observed_flops for p in points]
        + [p.optimal_flops for p in points]
    )
    x_scale = AxisScale(min(ais) * 0.9, max(ais) * 1.1, x_lo, x_hi, log=True)
    y_scale = AxisScale(
        min(flops) * 0.8, max(flops) * 1.3, y_lo, y_hi, log=True
    )
    canvas.text(canvas.width / 2, 20, title, size=13, anchor="middle")
    # Axes.
    canvas.line(x_lo, y_lo, x_hi, y_lo)
    canvas.line(x_lo, y_lo, x_lo, y_hi)
    for tick in x_scale.ticks():
        canvas.text(
            x_scale(tick), y_lo + 16, f"{tick:g}", size=9, anchor="middle"
        )
    for tick in y_scale.ticks():
        canvas.text(
            x_lo - 6, y_scale(tick) + 3, f"{tick / 1e12:g}T", size=9,
            anchor="end",
        )
    canvas.text(
        (x_lo + x_hi) / 2, canvas.height - 12,
        "arithmetic intensity (FLOP/byte)", size=10, anchor="middle",
    )
    canvas.polyline(
        [(x_scale(ai), y_scale(f)) for ai, f in curve], stroke="#555",
        width=2.0,
    )
    for point in points:
        x = x_scale(point.arithmetic_intensity)
        canvas.circle(x, y_scale(point.optimal_flops), fill="#888")
        canvas.circle(x, y_scale(point.observed_flops), fill="#c22")
        canvas.text(
            x + 4, y_scale(point.observed_flops) - 5, point.label, size=8
        )
    canvas.text(x_hi - 4, y_hi + 12, "grey: optimal, red: observed",
                size=9, anchor="end")
    return canvas.render()


def bord_svg(
    bord: Bord,
    points: Sequence[BordPoint],
    aixm_max: float,
    aixv_max: float,
    title: str,
    samples: int = 64,
) -> str:
    """Figure 5/6/16-style BORD: shaded regions plus kernel markers."""
    if aixm_max <= 0 or aixv_max <= 0:
        raise ConfigurationError("BORD extents must be positive")
    canvas = SvgCanvas(640, 440)
    x_lo, x_hi, y_lo, y_hi = _plot_area(canvas)
    x_scale = AxisScale(0.0, aixm_max, x_lo, x_hi)
    y_scale = AxisScale(0.0, aixv_max, y_lo, y_hi)
    cell_w = (x_hi - x_lo) / samples
    cell_h = (y_lo - y_hi) / samples
    centers = np.arange(samples) + 0.5
    xs = (centers / samples * aixm_max).tolist()
    ys = (centers / samples * aixv_max).tolist()
    codes = bord.classify_grid(xs, ys).tolist()
    colors = [_REGION_COLORS[factor] for factor in GRID_FACTORS]
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            canvas.rect(
                x_scale(x) - cell_w / 2,
                y_scale(y) - cell_h / 2,
                cell_w + 0.5,
                cell_h + 0.5,
                fill=colors[codes[j][i]],
            )
    canvas.text(canvas.width / 2, 20, title, size=13, anchor="middle")
    canvas.line(x_lo, y_lo, x_hi, y_lo)
    canvas.line(x_lo, y_lo, x_lo, y_hi)
    canvas.text((x_lo + x_hi) / 2, canvas.height - 12,
                "AI_XM (matrix ops / byte)", size=10, anchor="middle")
    canvas.text(14, (y_lo + y_hi) / 2, "AI_XV", size=10, anchor="middle")
    for point in points:
        if point.aixm > aixm_max or point.aixv > aixv_max:
            continue
        px, py = x_scale(point.aixm), y_scale(point.aixv)
        canvas.circle(px, py, r=3.0, fill="#222")
        canvas.text(px + 4, py - 4, point.label, size=8)
    legend_y = y_hi + 10
    for offset, (factor, color) in enumerate(_REGION_COLORS.items()):
        x = x_lo + 8 + offset * 90
        canvas.rect(x, legend_y - 9, 10, 10, fill=color)
        canvas.text(x + 14, legend_y, f"{factor.value}-bound", size=9)
    return canvas.render()


def speedup_bars_svg(
    labels: Sequence[str],
    series: Dict[str, List[float]],
    title: str,
    colors: Optional[Dict[str, str]] = None,
) -> str:
    """Figure 12/13/15/17-style grouped bars: one group per scheme."""
    if not labels or not series:
        raise ConfigurationError("bar figures need labels and series")
    for name, values in series.items():
        if len(values) != len(labels):
            raise ConfigurationError(
                f"series {name!r} has {len(values)} values for "
                f"{len(labels)} labels"
            )
    default_palette = ["#7c9ed9", "#d98a7c", "#8cc08c", "#c7a8e0", "#999"]
    names = list(series)
    palette = colors or {
        name: default_palette[i % len(default_palette)]
        for i, name in enumerate(names)
    }
    canvas = SvgCanvas(720, 400)
    x_lo, x_hi, y_lo, y_hi = _plot_area(canvas)
    peak = max(max(values) for values in series.values())
    y_scale = AxisScale(0.0, peak * 1.15, y_lo, y_hi)
    canvas.text(canvas.width / 2, 20, title, size=13, anchor="middle")
    canvas.line(x_lo, y_lo, x_hi, y_lo)
    canvas.line(x_lo, y_lo, x_lo, y_hi)
    for tick in y_scale.ticks():
        canvas.text(x_lo - 6, y_scale(tick) + 3, f"{tick:.1f}",
                    size=9, anchor="end")
        canvas.line(x_lo, y_scale(tick), x_hi, y_scale(tick),
                    stroke="#eee")
    group_width = (x_hi - x_lo) / len(labels)
    bar_width = group_width * 0.8 / len(names)
    for g, label in enumerate(labels):
        group_x = x_lo + g * group_width + group_width * 0.1
        for s, name in enumerate(names):
            value = series[name][g]
            top = y_scale(value)
            canvas.rect(
                group_x + s * bar_width, top, bar_width * 0.92,
                y_lo - top, fill=palette[name],
            )
        canvas.text(
            group_x + group_width * 0.4, y_lo + 14, label, size=8,
            anchor="middle",
        )
    for s, name in enumerate(names):
        x = x_lo + 8 + s * 130
        canvas.rect(x, y_hi - 2, 10, 10, fill=palette[name])
        canvas.text(x + 14, y_hi + 7, name, size=9)
    return canvas.render()
