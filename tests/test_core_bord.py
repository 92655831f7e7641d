"""Tests for the Bounding Region Diagram."""

import pytest

from repro.core.bord import GRID_FACTORS, Bord
from repro.core.machine import SPR_DDR, SPR_HBM, MachineSpec
from repro.core.roofsurface import BoundingFactor
from repro.errors import ConfigurationError


class TestLines:
    def test_boundary_line_parameters(self):
        lines = Bord(SPR_HBM).lines
        assert lines.mem_vec_slope == pytest.approx(850e9 / 280e9)
        assert lines.mem_mtx_x == pytest.approx(8.75e9 / 850e9)
        assert lines.vec_mtx_y == pytest.approx(8.75e9 / 280e9)

    def test_classification_matches_lines(self):
        bord = Bord(SPR_HBM)
        lines = bord.lines
        # A point just below the MEM/VEC line (y < slope*x) is VEC-bound.
        x = lines.mem_mtx_x / 2
        assert bord.classify(x, lines.mem_vec_slope * x * 0.9) is (
            BoundingFactor.VECTOR
        )
        assert bord.classify(x, lines.mem_vec_slope * x * 1.1) is (
            BoundingFactor.MEMORY
        )


class TestRegions:
    def test_fractions_sum_to_one(self):
        fractions = Bord(SPR_HBM).region_fractions(0.012, 0.012, samples=50)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_ddr_grows_mem_region(self):
        window = (0.012, 0.012)
        hbm = Bord(SPR_HBM).region_fractions(*window, samples=60)
        ddr = Bord(SPR_DDR).region_fractions(*window, samples=60)
        assert ddr[BoundingFactor.MEMORY] > hbm[BoundingFactor.MEMORY]

    def test_ddr_mtx_region_vanishes_in_window(self):
        # Figure 5b: the MTX region is no longer visible for DDR.
        ddr = Bord(SPR_DDR).region_fractions(0.012, 0.012, samples=60)
        assert ddr[BoundingFactor.MATRIX] < 0.02

    def test_vos_scaling_shrinks_vec_region(self):
        base = Bord(SPR_HBM).region_fractions(0.012, 0.012, samples=60)
        scaled = Bord(SPR_HBM.with_vector_scale(4)).region_fractions(
            0.012, 0.012, samples=60
        )
        assert (
            scaled[BoundingFactor.VECTOR] < base[BoundingFactor.VECTOR]
        )

    def test_invalid_window(self):
        with pytest.raises(ConfigurationError):
            Bord(SPR_HBM).region_fractions(0.0, 0.01)


class TestAscii:
    def test_contains_all_regions_for_hbm(self):
        bord = Bord(SPR_HBM)
        art = bord.render_ascii([], 0.012, 0.012)
        assert "m" in art and "v" in art and "x" in art

    def test_points_plotted(self):
        bord = Bord(SPR_HBM)
        point = bord.place("Q8", 0.002, 0.002)
        art = bord.render_ascii([point], 0.012, 0.012)
        assert "*" in art

    def test_too_small_canvas(self):
        with pytest.raises(ConfigurationError):
            Bord(SPR_HBM).render_ascii([], 0.01, 0.01, width=4, height=2)

    def test_place_all(self):
        bord = Bord(SPR_HBM)
        points = bord.place_all([("a", 0.001, 0.001), ("b", 0.01, 0.01)])
        assert [p.label for p in points] == ["a", "b"]


#: Machines whose region boundaries pass exactly through the odd sample
#: centres of a ``samples=8, max=16`` window, on exact float products.
#: MBW = VOS = 1 and MOS = 64 put the MEM|VEC line on the diagonal x = y;
#: MBW = 1 and VOS = MOS = 3 put MEM|MTX on x = 3 and VEC|MTX on y = 1.
_DIAGONAL_TIES = MachineSpec(
    name="diagonal-ties", cores=1, frequency_hz=1.0, avx_units_per_core=1,
    memory_bandwidth=1.0, tmul_cycles=1.0 / 64.0,
)
_MTX_TIES = MachineSpec(
    name="mtx-ties", cores=1, frequency_hz=3.0, avx_units_per_core=1,
    memory_bandwidth=1.0, tmul_cycles=1.0,
)


def _scalar_region_counts(bord, aixm_max, aixv_max, samples):
    """The original per-sample loop over the scalar ``classify`` oracle."""
    counts = {factor: 0 for factor in BoundingFactor}
    step_x = aixm_max / samples
    step_y = aixv_max / samples
    for i in range(samples):
        x = (i + 0.5) * step_x
        for j in range(samples):
            y = (j + 0.5) * step_y
            counts[bord.classify(x, y)] += 1
    return counts


class TestVectorizedRegions:
    """``classify_grid`` against the scalar ``classify``, cell for cell."""

    @pytest.mark.parametrize("machine,window,samples", [
        (SPR_HBM, (0.012, 0.012), 60),
        (SPR_DDR, (0.012, 0.012), 60),
        (SPR_HBM.with_vector_scale(4), (0.012, 0.012), 60),
        (SPR_HBM, (0.03, 0.004), 37),
        (_DIAGONAL_TIES, (16.0, 16.0), 8),
        (_MTX_TIES, (16.0, 16.0), 8),
    ])
    def test_grid_matches_scalar_classify(self, machine, window, samples):
        bord = Bord(machine)
        aixm_max, aixv_max = window
        xs = [(i + 0.5) * (aixm_max / samples) for i in range(samples)]
        ys = [(j + 0.5) * (aixv_max / samples) for j in range(samples)]
        codes = bord.classify_grid(xs, ys)
        assert codes.shape == (samples, samples)
        for j, y in enumerate(ys):
            for i, x in enumerate(xs):
                assert GRID_FACTORS[codes[j, i]] is bord.classify(x, y)
        total = samples * samples
        expected = _scalar_region_counts(bord, aixm_max, aixv_max, samples)
        assert bord.region_fractions(aixm_max, aixv_max, samples) == {
            factor: expected[factor] / total for factor in BoundingFactor
        }

    def test_tie_machines_sample_every_boundary(self):
        # Each tie sits on a sample centre and resolves MEM, MTX, VEC.
        diagonal = Bord(_DIAGONAL_TIES)
        assert diagonal.classify(5.0, 5.0) is BoundingFactor.MEMORY
        assert diagonal.classify(7.0, 5.0) is BoundingFactor.VECTOR
        mtx = Bord(_MTX_TIES)
        assert mtx.classify(3.0, 5.0) is BoundingFactor.MEMORY
        assert mtx.classify(5.0, 5.0) is BoundingFactor.MATRIX
        assert mtx.classify(5.0, 1.0) is BoundingFactor.MATRIX
        assert mtx.classify(1.0, 1.0) is BoundingFactor.MEMORY

    def test_ascii_matches_scalar_classify(self):
        bord = Bord(SPR_HBM)
        width, height = 64, 20
        art = bord.render_ascii([], 0.012, 0.012, width, height)
        letters = {
            BoundingFactor.MEMORY: "m",
            BoundingFactor.VECTOR: "v",
            BoundingFactor.MATRIX: "x",
        }
        expected = [
            "".join(
                letters[bord.classify(
                    (i + 0.5) / width * 0.012,
                    (height - j - 0.5) / height * 0.012,
                )]
                for i in range(width)
            )
            for j in range(height)
        ]
        assert art.splitlines()[1:] == expected

    def test_grid_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            Bord(SPR_HBM).classify_grid([0.0, 0.1], [0.1])
