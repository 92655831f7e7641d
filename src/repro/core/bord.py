"""The Bounding Region Diagram — the 2-D projection of the Roof-Surface.

A BORD (Section 4.2, Figure 5) projects the roof-surface onto the
(AI_XM, AI_XV) plane. Three straight lines separate the plane into the
MEM-, VEC- and MTX-bound regions::

    y = (MBW / VOS) * x      MEM | VEC boundary
    x =  MOS / MBW           MEM | MTX boundary
    y =  MOS / VOS           VEC | MTX boundary

The BORD carries no FLOPS information but instantly identifies which
resource bounds each plotted kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.machine import MachineSpec
from repro.core.roofsurface import BoundingFactor, RoofSurface
from repro.errors import ConfigurationError


#: The regions :meth:`Bord.classify_grid` codes 0, 1, 2 stand for, in the
#: scalar :meth:`~repro.core.roofsurface.RoofSurface.bounding_factor` tie
#: order (MEM, then MTX, then VEC).
GRID_FACTORS = (
    BoundingFactor.MEMORY, BoundingFactor.MATRIX, BoundingFactor.VECTOR,
)


@dataclass(frozen=True)
class BordLines:
    """The three boundary-line parameters of a BORD."""

    mem_vec_slope: float  # y = slope * x separates MEM (above) from VEC
    mem_mtx_x: float  # vertical line x = MOS / MBW
    vec_mtx_y: float  # horizontal line y = MOS / VOS


@dataclass(frozen=True)
class BordPoint:
    """A kernel placed on a BORD."""

    label: str
    aixm: float
    aixv: float
    bound: BoundingFactor


class Bord:
    """Bounding Region Diagram for one machine."""

    def __init__(self, machine: MachineSpec) -> None:
        self.machine = machine
        # The regions do not depend on N; batch_rows=1 is arbitrary here.
        self._surface = RoofSurface(machine, batch_rows=1)

    @property
    def lines(self) -> BordLines:
        """The boundary lines of Figure 5."""
        m = self.machine
        return BordLines(
            mem_vec_slope=m.memory_bandwidth / m.vector_ops_per_second,
            mem_mtx_x=m.matrix_ops_per_second / m.memory_bandwidth,
            vec_mtx_y=m.matrix_ops_per_second / m.vector_ops_per_second,
        )

    def classify(self, aixm: float, aixv: float) -> BoundingFactor:
        """Region of a kernel signature."""
        return self._surface.bounding_factor(aixm, aixv)

    def classify_grid(
        self, aixm: Sequence[float], aixv: Sequence[float]
    ) -> np.ndarray:
        """Regions of every ``(aixm[i], aixv[j])`` pair as codes ``[j, i]``.

        The vectorized :meth:`classify`: the MEM rate per column, the VEC
        rate per row and the scalar MTX rate are the same IEEE products
        the scalar path forms, and the masks apply its MEM, MTX, VEC tie
        order, so ``GRID_FACTORS[codes[j, i]]`` is ``classify(aixm[i],
        aixv[j])`` for every cell.
        """
        xs = np.asarray(aixm, dtype=float)
        ys = np.asarray(aixv, dtype=float)
        if np.any(xs <= 0) or np.any(ys <= 0):
            raise ConfigurationError("AI_XM and AI_XV must be positive")
        m = self.machine
        mem = m.memory_bandwidth * xs[None, :]
        vec = m.vector_ops_per_second * ys[:, None]
        mtx = m.matrix_ops_per_second
        is_mem = (mem <= mtx) & (mem <= vec)
        return np.where(is_mem, 0, np.where(mtx <= vec, 1, 2))

    def place(self, label: str, aixm: float, aixv: float) -> BordPoint:
        """Place a labelled kernel on the diagram."""
        return BordPoint(label, aixm, aixv, self.classify(aixm, aixv))

    def place_all(
        self, signatures: Sequence[Tuple[str, float, float]]
    ) -> List[BordPoint]:
        """Place several (label, aixm, aixv) kernels at once."""
        return [self.place(label, x, y) for label, x, y in signatures]

    def region_fractions(
        self, aixm_max: float, aixv_max: float, samples: int = 200
    ) -> Dict[BoundingFactor, float]:
        """Fraction of the plot window covered by each bounding region.

        This quantifies statements like "the MEM-bound region increases"
        (Figure 5b) and "the VEC-bound area decreases" (Figure 6).
        """
        if aixm_max <= 0 or aixv_max <= 0:
            raise ConfigurationError("window extents must be positive")
        centers = np.arange(samples) + 0.5
        codes = self.classify_grid(
            centers * (aixm_max / samples), centers * (aixv_max / samples)
        )
        counts = dict(zip(
            GRID_FACTORS,
            np.bincount(codes.ravel(), minlength=3).tolist(),
        ))
        total = samples * samples
        return {factor: counts[factor] / total for factor in BoundingFactor}

    def render_ascii(
        self,
        points: Sequence[BordPoint],
        aixm_max: float,
        aixv_max: float,
        width: int = 64,
        height: int = 20,
    ) -> str:
        """Text rendering of the BORD: region letters plus '*' kernels.

        'm' marks MEM-bound cells, 'v' VEC-bound, 'x' MTX-bound; plotted
        kernels overwrite their cell with '*'. The y axis grows upward.
        """
        if width < 8 or height < 4:
            raise ConfigurationError("ascii canvas too small to be readable")
        letters = {
            BoundingFactor.MEMORY: "m",
            BoundingFactor.VECTOR: "v",
            BoundingFactor.MATRIX: "x",
        }
        xs = (np.arange(width) + 0.5) / width * aixm_max
        ys = (height - np.arange(height) - 0.5) / height * aixv_max
        codes = self.classify_grid(xs, ys)
        rows: List[List[str]] = [
            [letters[GRID_FACTORS[code]] for code in row]
            for row in codes.tolist()
        ]
        for point in points:
            col = int(point.aixm / aixm_max * width)
            row = height - 1 - int(point.aixv / aixv_max * height)
            if 0 <= row < height and 0 <= col < width:
                rows[row][col] = "*"
        header = (
            f"BORD {self.machine.name}: x=AI_XM (max {aixm_max:g}), "
            f"y=AI_XV (max {aixv_max:g})"
        )
        return "\n".join([header] + ["".join(row) for row in rows])
