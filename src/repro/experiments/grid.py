"""Grid sweeps over schemes, systems, and engines, with CSV export.

Library tooling for downstream studies: run the simulator across a
cartesian grid of configurations and collect flat records suitable for
spreadsheets or further analysis — the batch counterpart of the
one-figure experiment harnesses.

The grid is declared as a :class:`repro.experiments.sweepspec.SweepSpec`
(:func:`grid_spec`) with three named axes — ``system``, ``scheme``,
``engine`` — and is registered as the ``grid`` scenario. ``run_grid``
is the buffered entry point over that spec; ``grid_spec(...).stream()``
yields the same records incrementally as workers finish. ``jobs=1``
(the default) is the bit-identical serial path.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.schemes import CompressionScheme, PAPER_SCHEMES
from repro.deca.config import DecaConfig
from repro.deca.integration import deca_kernel_timing
from repro.errors import ConfigurationError
from repro.kernels.libxsmm import software_kernel_timing
from repro.experiments.sweepspec import (
    SweepSpec,
    batchable,
    register_scenario,
)
from repro.sim.pipeline import simulate_tile_stream
from repro.sim.system import SimSystem, ddr_system, hbm_system


@dataclass(frozen=True)
class GridRecord:
    """One simulated configuration's flat result row."""

    system: str
    scheme: str
    engine: str
    interval_cycles: float
    tiles_per_second: float
    tflops_n1: float
    mem_util: float
    tmul_util: float
    dec_util: float


_FIELDS = (
    "system", "scheme", "engine", "interval_cycles", "tiles_per_second",
    "tflops_n1", "mem_util", "tmul_util", "dec_util",
)

#: One grid cell: everything a worker needs to simulate it.
_GridCell = Tuple[
    SimSystem, CompressionScheme, str, Optional[DecaConfig], bool, int
]


def _simulate_cell(cell: _GridCell) -> GridRecord:
    """Simulate one (system, scheme, engine) cell into a flat record."""
    system, scheme, engine, deca_config, use_cache, tiles = cell
    if engine == "software":
        timing = software_kernel_timing(system, scheme)
    else:
        timing = deca_kernel_timing(system, scheme, config=deca_config)
    result = simulate_tile_stream(
        system, timing, tiles=tiles, use_cache=use_cache
    )
    util = result.utilization
    return GridRecord(
        system=system.machine.name,
        scheme=scheme.name,
        engine=engine,
        interval_cycles=result.steady_interval_cycles,
        tiles_per_second=result.tiles_per_second,
        tflops_n1=result.flops(1) / 1e12,
        mem_util=util.memory,
        tmul_util=util.matrix,
        dec_util=util.decompress,
    )


def _grid_cell_sims(cell: _GridCell):
    """The cached simulations one grid cell will request, for batching.

    Mirrors :func:`_simulate_cell`'s timing construction exactly — the
    batched stack must land in the cache under the very key the task
    will look up. Uncached cells return no simulations (there is no
    cache entry to seed) and compute inside their task as before.
    """
    system, scheme, engine, deca_config, use_cache, tiles = cell
    if not use_cache:
        return ()
    if engine == "software":
        timing = software_kernel_timing(system, scheme)
    else:
        timing = deca_kernel_timing(system, scheme, config=deca_config)
    return ((system, timing, tiles),)


def _grid_rows(cell) -> "Tuple[Dict[str, object], ...]":
    """Emission rows for one grid cell: the flat record itself."""
    record = cell.value
    return ({f: getattr(record, f) for f in _FIELDS},)


def grid_spec(
    systems: Optional[Sequence[SimSystem]] = None,
    schemes: Sequence[CompressionScheme] = PAPER_SCHEMES,
    engines: Sequence[str] = ("software", "deca"),
    deca_config: Optional[DecaConfig] = None,
    use_cache: bool = True,
    tiles: int = 600,
) -> SweepSpec:
    """The (system, scheme, engine) grid as a declarative sweep spec."""
    for engine in engines:
        if engine not in ("software", "deca"):
            raise ConfigurationError(
                f"unknown engine {engine!r}; use 'software' or 'deca'"
            )
    if systems is None:
        systems = (hbm_system(), ddr_system())

    def make_cell(coords: Dict[str, object]) -> _GridCell:
        return (
            coords["system"], coords["scheme"], coords["engine"],
            deca_config, use_cache, tiles,
        )

    return SweepSpec(
        name="grid",
        title="(system, scheme, engine) simulation grid",
        axes={
            "system": tuple(systems),
            "scheme": tuple(schemes),
            "engine": tuple(engines),
        },
        task=_simulate_cell,
        make_cell=make_cell,
        rows=_grid_rows,
        format_result=to_csv,
        batchable=batchable(_grid_cell_sims),
    )


def run_grid(
    systems: Optional[Sequence[SimSystem]] = None,
    schemes: Sequence[CompressionScheme] = PAPER_SCHEMES,
    engines: Sequence[str] = ("software", "deca"),
    deca_config: Optional[DecaConfig] = None,
    use_cache: bool = True,
    tiles: int = 600,
    jobs: Optional[int] = 1,
    batch: bool = True,
) -> List[GridRecord]:
    """Simulate every (system, scheme, engine) combination.

    The buffered front door over :func:`grid_spec`. Each cell goes
    through the memoized tile-stream front door
    (:mod:`repro.sim.cache`): grids that overlap earlier sweeps — or
    repeat configurations across ``systems``/``schemes`` axes — cost one
    lookup per revisited cell. Pass ``use_cache=False`` to force fresh
    simulations.

    ``jobs`` selects the worker count: 1 (default) runs serial in
    process, ``N > 1`` streams the cells across ``N`` forked workers
    and merges their cache deltas as each cell lands (``None``/0 means
    one worker per CPU). ``batch=False`` runs every cell through its
    own scan instead of the cross-cell stack. Records are bit-identical
    to the serial run either way.
    """
    return grid_spec(
        systems=systems, schemes=schemes, engines=engines,
        deca_config=deca_config, use_cache=use_cache, tiles=tiles,
    ).run(jobs=jobs, batch=batch)


def to_csv(records: Sequence[GridRecord]) -> str:
    """Serialize grid records as CSV text (header included)."""
    if not records:
        raise ConfigurationError("no records to serialize")
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_FIELDS, lineterminator="\n")
    writer.writeheader()
    for record in records:
        writer.writerow(
            {field: getattr(record, field) for field in _FIELDS}
        )
    return buffer.getvalue()


def save_csv(records: Sequence[GridRecord], path) -> None:
    """Write grid records to a CSV file."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(to_csv(records))


register_scenario(
    "grid",
    "full (system, scheme, engine) simulation grid as flat CSV records",
    grid_spec,
)
