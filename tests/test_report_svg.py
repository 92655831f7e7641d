"""Tests for the SVG canvas and figure builders."""

import xml.etree.ElementTree as ET

import pytest

from repro.core.bord import Bord
from repro.core.machine import SPR_HBM
from repro.errors import ConfigurationError
from repro.report.figures import (
    _REGION_COLORS,
    bord_svg,
    roofline_svg,
    speedup_bars_svg,
)
from repro.report.svg import AxisScale, SvgCanvas
from tests.test_core_bord import _DIAGONAL_TIES, _MTX_TIES


def _parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


class TestAxisScale:
    def test_linear_mapping(self):
        scale = AxisScale(0.0, 10.0, 100.0, 200.0)
        assert scale(0.0) == 100.0
        assert scale(10.0) == 200.0
        assert scale(5.0) == 150.0

    def test_log_mapping(self):
        scale = AxisScale(1.0, 100.0, 0.0, 100.0, log=True)
        assert scale(10.0) == pytest.approx(50.0)

    def test_inverted_pixel_axis(self):
        # SVG y grows downward: pixel_min > pixel_max is legal.
        scale = AxisScale(0.0, 1.0, 300.0, 50.0)
        assert scale(1.0) == 50.0

    def test_log_ticks_are_decades(self):
        scale = AxisScale(0.5, 500.0, 0, 1, log=True)
        assert scale.ticks() == [1.0, 10.0, 100.0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AxisScale(1.0, 1.0, 0, 1)
        with pytest.raises(ConfigurationError):
            AxisScale(-1.0, 1.0, 0, 1, log=True)


class TestCanvas:
    def test_well_formed_document(self):
        canvas = SvgCanvas()
        canvas.rect(0, 0, 10, 10, fill="#fff")
        canvas.line(0, 0, 5, 5)
        canvas.circle(3, 3)
        canvas.text(1, 1, "label <&>")
        canvas.polyline([(0, 0), (1, 1), (2, 0)])
        root = _parse(canvas.render())
        tags = [child.tag.split("}")[-1] for child in root]
        for expected in ("rect", "line", "circle", "text", "polyline"):
            assert expected in tags

    def test_text_escaped(self):
        canvas = SvgCanvas()
        canvas.text(0, 0, "a<b & c>d")
        assert "&lt;" in canvas.render()

    def test_save(self, tmp_path):
        canvas = SvgCanvas()
        canvas.circle(10, 10)
        path = tmp_path / "fig.svg"
        canvas.save(path)
        _parse(path.read_text())

    def test_tiny_canvas_rejected(self):
        with pytest.raises(ConfigurationError):
            SvgCanvas(10, 10)

    def test_short_polyline_rejected(self):
        with pytest.raises(ConfigurationError):
            SvgCanvas().polyline([(0, 0)])


class TestFigureBuilders:
    def test_roofline_figure(self):
        from repro.experiments import figure3
        result = figure3.run_one(__import__(
            "repro.sim.system", fromlist=["hbm_system"]
        ).hbm_system(), "HBM")
        svg = roofline_svg(result.curve, result.points, "Figure 3 (HBM)")
        root = _parse(svg)
        circles = [c for c in root if c.tag.endswith("circle")]
        assert len(circles) == 2 * len(result.points)

    def test_bord_figure(self):
        bord = Bord(SPR_HBM)
        points = [bord.place("Q8", 0.002, 0.002)]
        svg = bord_svg(bord, points, 0.012, 0.012, "BORD", samples=16)
        root = _parse(svg)
        rects = [r for r in root if r.tag.endswith("rect")]
        assert len(rects) > 16 * 16  # region cells + legend + background

    @pytest.mark.parametrize("machine,window,samples", [
        (SPR_HBM, (0.012, 0.012), 16),
        (SPR_HBM, (0.03, 0.004), 37),
        (_DIAGONAL_TIES, (16.0, 16.0), 8),
        (_MTX_TIES, (16.0, 16.0), 8),
    ])
    def test_bord_cells_match_scalar_classify(self, machine, window, samples):
        bord = Bord(machine)
        aixm_max, aixv_max = window
        svg = bord_svg(bord, [], aixm_max, aixv_max, "BORD", samples=samples)
        rects = [r for r in _parse(svg) if r.tag.endswith("rect")]
        # rects[0] is the background; the region cells follow, x-major.
        cells = rects[1:1 + samples * samples]
        for i in range(samples):
            x = (i + 0.5) / samples * aixm_max
            for j in range(samples):
                y = (j + 0.5) / samples * aixv_max
                fill = cells[i * samples + j].get("fill")
                assert fill == _REGION_COLORS[bord.classify(x, y)]

    def test_speedup_bars(self):
        svg = speedup_bars_svg(
            ["Q8", "Q4"],
            {"software": [1.5, 1.7], "DECA": [2.0, 3.8]},
            "Figure 13",
        )
        root = _parse(svg)
        rects = [r for r in root if r.tag.endswith("rect")]
        assert len(rects) >= 4

    def test_series_length_validated(self):
        with pytest.raises(ConfigurationError):
            speedup_bars_svg(["a", "b"], {"x": [1.0]}, "bad")

    def test_empty_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            roofline_svg([], [], "t")
        with pytest.raises(ConfigurationError):
            speedup_bars_svg([], {}, "t")
