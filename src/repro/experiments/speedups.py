"""Shared compressed-GeMM speedup harness for Figures 12, 13 and 15.

The per-scheme sweep is declared once as a
:class:`repro.experiments.sweepspec.SweepSpec` (:func:`speedup_spec`)
with a single ``scheme`` axis; ``sweep_speedups`` is its buffered entry
point, and the figure modules re-parameterize the same spec with their
own system, name, and reducer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.roofline import Roofline
from repro.core.schemes import CompressionScheme, PAPER_SCHEMES, UNCOMPRESSED
from repro.deca.config import DecaConfig
from repro.deca.integration import DecaIntegration, deca_kernel_timing
from repro.kernels.avx import AvxVariant
from repro.experiments.sweepspec import (
    CellResult,
    SweepSpec,
    batchable,
    register_scenario,
)
from repro.kernels.libxsmm import (
    software_kernel_timing,
    uncompressed_kernel_timing,
)
from repro.sim.pipeline import SimResult, simulate_tile_stream
from repro.sim.system import SimSystem, hbm_system


@dataclass(frozen=True)
class SchemeSpeedup:
    """Speedups of one scheme over the uncompressed BF16 baseline."""

    scheme: CompressionScheme
    software: float
    deca: float
    optimal: float

    @property
    def deca_over_software(self) -> float:
        """How much faster DECA is than the software kernel."""
        return self.deca / self.software


def baseline_result(system: SimSystem, tiles: int = 600) -> SimResult:
    """Simulate the uncompressed BF16 baseline."""
    return simulate_tile_stream(
        system, uncompressed_kernel_timing(system), tiles=tiles
    )


def scheme_speedup(
    system: SimSystem,
    scheme: CompressionScheme,
    baseline: SimResult,
    batch_rows: int = 1,
    deca_config: Optional[DecaConfig] = None,
    integration: Optional[DecaIntegration] = None,
    avx_variant: AvxVariant = AvxVariant.BASELINE,
    tiles: int = 600,
) -> SchemeSpeedup:
    """Software / DECA / roofline-optimal speedups for one scheme.

    "Optimal" follows the paper: the traditional roofline bound at the
    scheme's arithmetic intensity, i.e. all decompression overheads hidden
    (Section 9.1).
    """
    software = simulate_tile_stream(
        system, software_kernel_timing(system, scheme, variant=avx_variant),
        tiles=tiles,
    )
    deca = simulate_tile_stream(
        system,
        deca_kernel_timing(
            system, scheme, config=deca_config, integration=integration
        ),
        tiles=tiles,
    )
    roofline = Roofline(system.machine, batch_rows)
    optimal_flops = roofline.attainable_flops(scheme.traditional_ai(batch_rows))
    baseline_flops_optimal = roofline.attainable_flops(
        UNCOMPRESSED.traditional_ai(batch_rows)
    )
    base_interval = baseline.steady_interval_cycles
    return SchemeSpeedup(
        scheme=scheme,
        software=base_interval / software.steady_interval_cycles,
        deca=base_interval / deca.steady_interval_cycles,
        optimal=optimal_flops / baseline_flops_optimal,
    )


def _scheme_speedup_task(task) -> SchemeSpeedup:
    """Module-level cell body so the parallel executor can pickle it."""
    (system, scheme, baseline, batch_rows, deca_config, integration,
     tiles) = task
    return scheme_speedup(
        system,
        scheme,
        baseline,
        batch_rows=batch_rows,
        deca_config=deca_config,
        integration=integration,
        tiles=tiles,
    )


def _speedup_cell_sims(task):
    """The cached simulations one speedup cell will request, for batching.

    Each cell simulates the software kernel and the DECA kernel for its
    scheme (the baseline is simulated once at spec build time and rides
    along inside the cell payload, so it never re-enters the cache from
    here). The timing construction mirrors :func:`scheme_speedup`
    exactly so the batched stack lands under the keys the task looks up.
    """
    (system, scheme, _baseline, _batch_rows, deca_config, integration,
     tiles) = task
    return (
        (system, software_kernel_timing(system, scheme), tiles),
        (
            system,
            deca_kernel_timing(
                system, scheme, config=deca_config, integration=integration
            ),
            tiles,
        ),
    )


def speedup_rows(cell: CellResult) -> Tuple[Dict[str, Any], ...]:
    """Emission rows for one speedup cell: flat per-scheme ratios."""
    speedup = cell.value
    return ({
        "scheme": speedup.scheme.name,
        "software": speedup.software,
        "deca": speedup.deca,
        "optimal": speedup.optimal,
        "deca_over_software": speedup.deca_over_software,
    },)


def speedup_spec(
    system: SimSystem,
    schemes: Sequence[CompressionScheme] = PAPER_SCHEMES,
    batch_rows: int = 1,
    deca_config: Optional[DecaConfig] = None,
    integration: Optional[DecaIntegration] = None,
    tiles: int = 600,
    name: str = "speedups",
    title: str = "per-scheme speedups vs uncompressed BF16",
    reduce: Optional[Callable[[List[SchemeSpeedup]], Any]] = None,
    format_result: Optional[Callable[[Any], str]] = None,
) -> SweepSpec:
    """The per-scheme speedup sweep as a declarative spec.

    The shared baseline is simulated once, at spec build time, and
    embedded in every cell payload (workers also inherit its cache
    entry through the fork, so it is never re-simulated). The figure
    modules re-parameterize ``name``/``reduce``/``format_result`` to
    wrap the same cells in their own result types.
    """
    baseline = baseline_result(system, tiles=tiles)

    def make_cell(coords: Dict[str, Any]):
        return (
            system, coords["scheme"], baseline, batch_rows, deca_config,
            integration, tiles,
        )

    return SweepSpec(
        name=name,
        title=title,
        axes={"scheme": tuple(schemes)},
        task=_scheme_speedup_task,
        make_cell=make_cell,
        reduce=reduce,
        rows=speedup_rows,
        format_result=format_result,
        batchable=batchable(_speedup_cell_sims),
    )


def sweep_speedups(
    system: SimSystem,
    schemes: Sequence[CompressionScheme] = PAPER_SCHEMES,
    batch_rows: int = 1,
    deca_config: Optional[DecaConfig] = None,
    integration: Optional[DecaIntegration] = None,
    tiles: int = 600,
    jobs: Optional[int] = 1,
    batch: Optional[bool] = None,
) -> List[SchemeSpeedup]:
    """Speedups for a list of schemes (Figures 12/13's x axis).

    The buffered front door over :func:`speedup_spec`: the per-scheme
    cells stream across ``jobs`` workers (cache deltas merged as each
    lands); ``jobs=1`` is the bit-identical serial path. ``batch``
    overrides the cross-cell batching default.
    """
    return speedup_spec(
        system, schemes=schemes, batch_rows=batch_rows,
        deca_config=deca_config, integration=integration, tiles=tiles,
    ).run(jobs=jobs, batch=batch)


def _speedup_table(speedups: List[SchemeSpeedup]) -> str:
    """Plain table for the standalone ``speedups`` scenario."""
    from repro.experiments.report import Table

    table = Table(
        "Speedups vs uncompressed BF16 (HBM, N=1)",
        ["scheme", "software", "DECA", "optimal", "DECA/SW"],
    )
    for row in speedups:
        table.add_row(
            row.scheme.name,
            round(row.software, 2),
            round(row.deca, 2),
            round(row.optimal, 2),
            round(row.deca_over_software, 2),
        )
    return table.render()


register_scenario(
    "speedups",
    "per-scheme software/DECA/optimal speedups on the HBM machine",
    lambda: speedup_spec(hbm_system(), format_result=_speedup_table),
)
