"""The declarative sweep engine: ``SweepSpec`` + the scenario registry.

Before this module existed, every experiment harness hand-rolled the
same three steps: enumerate a cartesian product of configurations,
dispatch the cells (serially or through the process pool), and fold the
ordered results into a table object. A :class:`SweepSpec` names those
steps declaratively —

* **axes** — named, ordered value lists whose cartesian product (in
  axis declaration order, optionally pruned) is the cell grid;
* **task** — a picklable module-level callable run once per cell (in
  the parent for ``jobs=1``, in forked pool workers otherwise);
* **reduce** — a function from the ordered result list to the sweep's
  final output (a figure result, a record list, …);

— plus optional hooks for building per-cell payloads (``make_cell``),
flattening results into emission rows (``rows``), and rendering the
reduced output (``format_result``).

Running a spec streams: :meth:`SweepSpec.stream` yields one
:class:`CellResult` per cell *in index order, as results land* (workers
join incrementally through :func:`repro.experiments.parallel.stream_map`
— there is no barrier), so consumers can emit JSONL/CSV rows, update
progress, or stop early while later cells are still computing.
:meth:`SweepSpec.run` is the buffered wrapper every pre-existing entry
point keeps using: drain the stream, reduce, return — bit-identical to
the old hand-rolled loops.

The scenario registry
---------------------

Modules register their default-parameterized specs as *scenarios*
(:func:`register_scenario`): a name, a one-line summary, and a
zero-argument spec builder. ``repro experiments --list`` enumerates the
registry, and any registered name can be run (and streamed) by the CLI
without a dedicated module — a new workload is one spec definition.
Builders run lazily: listing scenarios never simulates anything.

Incremental emission
--------------------

:func:`open_emitter` returns a line-buffered JSONL or CSV writer
(chosen by file suffix); each :meth:`CellResult` flattens through the
spec's ``rows`` hook into plain dicts, and every row is flushed as it
is written — a consumer tailing the file sees results while the sweep
is still running.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    IO,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError
from repro.experiments.parallel import stream_map

#: A progress callback: called as ``progress(completed, total)`` after
#: each cell finishes (completion order, not index order).
ProgressCallback = Callable[[int, int], None]


def _json_scalar(value: Any) -> Any:
    """Coerce one row value into something JSON/CSV can carry."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    name = getattr(value, "name", None)
    if isinstance(name, str):
        return name
    return str(value)


@dataclass(frozen=True)
class CellResult:
    """One streamed cell: its index, axis coordinates, and result."""

    index: int
    coords: Mapping[str, Any]
    value: Any

    def coord_labels(self) -> Dict[str, Any]:
        """The coordinates as row-friendly scalars (names over reprs)."""
        return {name: _json_scalar(value) for name, value in self.coords.items()}


# ---------------------------------------------------------------------
# Cross-cell batching
# ---------------------------------------------------------------------

def batching_enabled(batch: Optional[bool] = True) -> bool:
    """Whether a ``batch=`` argument selects the batched executor.

    ``None`` reads as the default, ``True``. perfbench's tracer asks
    this to count the cells a sweep stacks.
    """
    return batch is None or bool(batch)


@dataclass(frozen=True)
class BatchRule:
    """How a spec's cells map onto batchable tile-stream simulations.

    ``sims(payload)`` returns the ``(system, timing, tiles)`` triples
    the cell's task will request through the cached simulation front
    door. The batched executor collects the triples across cells,
    stacks shape-compatible ones through
    :func:`repro.sim.pipeline.simulate_tile_stream_batch` (which fans
    the results into the cache under each cell's own key), and then
    runs the tasks unchanged — every task's own lookup is a warm hit,
    so results are bit-identical to the unbatched sweep. A cell whose
    simulations cannot be pre-seeded (e.g. one that bypasses the
    cache) returns ``()`` and simply computes inside its task.
    """

    sims: Callable[[Any], Tuple[Tuple[Any, Any, int], ...]]


def batchable(
    sims: Callable[[Any], Tuple[Tuple[Any, Any, int], ...]]
) -> BatchRule:
    """Annotate a spec with its cell → simulations mapping."""
    return BatchRule(sims=sims)


def _run_batched_group(payload):
    """Worker task for one cell chunk: seed the stack, then run the cells.

    Runs inside a forked worker or a TCP host: the chunk's simulations
    are stacked into the worker's cache first, then the per-cell tasks
    run against that warm cache. The worker's cache delta ships back to
    the parent exactly like any other cell's.
    """
    task, sims, chunk = payload
    if sims:
        from repro.sim.pipeline import simulate_tile_stream_batch

        simulate_tile_stream_batch(sims)
    return [task(cell) for cell in chunk]


def _default_rows(cell: CellResult) -> Iterable[Dict[str, Any]]:
    """One flat dict per cell: axis labels + the result's scalar fields."""
    row = cell.coord_labels()
    value = cell.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            if f.name not in row:
                row[f.name] = _json_scalar(getattr(value, f.name))
    else:
        row["value"] = _json_scalar(value)
    return (row,)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: named axes, a per-cell task, a reducer.

    ``axes`` maps axis names to value sequences; the cell grid is their
    cartesian product in declaration order (rightmost axis fastest —
    exactly the nested-loop order the hand-rolled sweeps used), with
    ``keep`` (if given) filtering coordinates out of the grid before
    any work is dispatched.

    ``task`` runs once per cell and must be a module-level picklable
    callable; its argument is the cell payload — the coordinate dict
    itself, unless ``make_cell`` maps coordinates to a custom payload
    (``make_cell`` runs in the parent and may close over unpicklable
    context only if the *payload* stays picklable).

    ``reduce`` folds the ordered result list into the sweep's output
    (default: the list itself). ``rows`` flattens one
    :class:`CellResult` into emission rows (default: axis labels +
    dataclass fields). ``format_result`` renders the reduced output for
    the CLI (default: ``str``).
    """

    name: str
    axes: "OrderedDict[str, Tuple[Any, ...]]"
    task: Callable[[Any], Any]
    title: str = ""
    make_cell: Optional[Callable[[Dict[str, Any]], Any]] = None
    keep: Optional[Callable[[Dict[str, Any]], bool]] = None
    reduce: Optional[Callable[[List[Any]], Any]] = None
    rows: Optional[Callable[[CellResult], Iterable[Dict[str, Any]]]] = None
    format_result: Optional[Callable[[Any], str]] = None
    #: Cell → simulations mapping (see :func:`batchable`); ``None``
    #: means the spec always runs per cell.
    batchable: Optional[BatchRule] = None

    def __post_init__(self) -> None:
        if not self.axes:
            raise ConfigurationError(
                f"sweep spec {self.name!r} needs at least one axis"
            )
        normalized = OrderedDict(
            (name, tuple(values)) for name, values in self.axes.items()
        )
        for name, values in normalized.items():
            if not values:
                raise ConfigurationError(
                    f"sweep spec {self.name!r}: axis {name!r} has no values"
                )
        object.__setattr__(self, "axes", normalized)

    # -- the grid ------------------------------------------------------

    def coords(self) -> List[Dict[str, Any]]:
        """Every cell's axis-value dict, in grid (index) order."""
        names = list(self.axes)
        grid = [
            dict(zip(names, combo))
            for combo in itertools.product(*self.axes.values())
        ]
        if self.keep is not None:
            grid = [c for c in grid if self.keep(c)]
        return grid

    def cells(
        self, coords: Optional[List[Dict[str, Any]]] = None
    ) -> List[Any]:
        """The per-cell task payloads, in grid order.

        ``coords`` (if given) must be this spec's :meth:`coords` list —
        callers that already enumerated the grid pass it to avoid
        rebuilding the product.
        """
        if coords is None:
            coords = self.coords()
        if self.make_cell is None:
            return coords
        return [self.make_cell(c) for c in coords]

    @property
    def cell_count(self) -> int:
        """Number of cells in the (pruned) grid."""
        return len(self.coords())

    def describe_axes(self) -> str:
        """``"system×2 · scheme×8 · engine×2"`` — the grid's shape."""
        return " · ".join(
            f"{name}×{len(values)}" for name, values in self.axes.items()
        )

    # -- execution -----------------------------------------------------

    def stream(
        self,
        jobs: Optional[int] = 1,
        progress: Optional[ProgressCallback] = None,
        batch: bool = True,
        deadline: Optional[float] = None,
    ) -> Iterator[CellResult]:
        """Yield one :class:`CellResult` per cell, in index order.

        Results stream as they complete — with ``jobs > 1`` through the
        incremental worker join in
        :mod:`repro.experiments.parallel`, with ``jobs=1`` straight
        from the serial loop. Closing the iterator early cancels
        outstanding dispatch (see the executor's cancellation
        contract). ``deadline`` (a :func:`time.monotonic` timestamp)
        passes through to the executor's deadline seam: an expired
        sweep stops dispatching within one cell and raises
        :class:`repro.errors.DeadlineExceededError`.

        Specs carrying a :func:`batchable` annotation route through the
        cross-cell batched executor unless ``batch`` is false:
        compatible cells' stacks are simulated in bulk and the per-cell
        tasks then run against the warm cache — results, ordering, and
        emission are bit-identical to the per-cell path.
        """
        coords = self.coords()
        cells = self.cells(coords)
        sims_per_cell = None
        if self.batchable is not None:
            sims_per_cell = [
                tuple(self.batchable.sims(cell)) for cell in cells
            ]
        if (
            sims_per_cell is not None
            and len(cells) > 1
            and batching_enabled(batch)
            and any(sims_per_cell)
        ):
            yield from self._stream_batched(
                coords, cells, sims_per_cell, jobs, progress,
                deadline=deadline,
            )
            return
        for index, value in stream_map(
            self.task, cells, jobs=jobs, progress=progress,
            deadline=deadline,
        ):
            yield CellResult(index=index, coords=coords[index], value=value)

    def _stream_batched(
        self,
        coords: List[Dict[str, Any]],
        cells: List[Any],
        sims_per_cell: List[Tuple[Tuple[Any, Any, int], ...]],
        jobs: Optional[int],
        progress: Optional[ProgressCallback],
        deadline: Optional[float] = None,
    ) -> Iterator[CellResult]:
        """The batched executor behind :meth:`stream`.

        :func:`~repro.experiments.parallel.sweep_workers` picks the
        workers from the cell count. Serial: one in-parent stack over
        every cell's simulations seeds the cache, then the plain serial
        stream runs — per-cell streaming order and emission unchanged.
        Forked workers or hosts: the grid splits into one contiguous
        chunk per worker, each dispatched as a single
        :func:`_run_batched_group` task (stack, then cells), so every
        cell is computed once, in a worker; chunk results are split
        back into per-cell :class:`CellResult`s in index order.
        """
        from repro.experiments.parallel import stream_on, sweep_workers

        total = len(cells)
        backend, width = sweep_workers(jobs, total)
        if backend == "serial":
            from repro.sim.pipeline import simulate_tile_stream_batch

            flat = [sim for sims in sims_per_cell for sim in sims]
            if flat:
                simulate_tile_stream_batch(flat)
            for index, value in stream_map(
                self.task, cells, jobs=1, progress=progress,
                deadline=deadline,
            ):
                yield CellResult(
                    index=index, coords=coords[index], value=value
                )
            return
        payloads = []
        starts = []
        n_chunks = min(width, total)
        step, remainder = divmod(total, n_chunks)
        start = 0
        for chunk_index in range(n_chunks):
            size = step + (1 if chunk_index < remainder else 0)
            chunk = cells[start:start + size]
            sims = [
                sim
                for per_cell in sims_per_cell[start:start + size]
                for sim in per_cell
            ]
            payloads.append((self.task, sims, chunk))
            starts.append(start)
            start += size
        completed = 0
        for chunk_index, values in stream_on(
            (backend, width), _run_batched_group, payloads,
            deadline=deadline,
        ):
            base = starts[chunk_index]
            for offset, value in enumerate(values):
                index = base + offset
                yield CellResult(
                    index=index, coords=coords[index], value=value
                )
            completed += len(values)
            if progress is not None:
                progress(completed, total)

    def run(
        self,
        jobs: Optional[int] = 1,
        progress: Optional[ProgressCallback] = None,
        batch: bool = True,
    ) -> Any:
        """Drain the stream and reduce — the buffered entry-point path."""
        results = [
            cell.value for cell in self.stream(jobs, progress, batch=batch)
        ]
        return self.reduced(results)

    def reduced(self, results: List[Any]) -> Any:
        """Apply the spec's reducer to an ordered result list."""
        if self.reduce is None:
            return results
        return self.reduce(results)

    # -- presentation --------------------------------------------------

    def rows_for(self, cell: CellResult) -> Iterable[Dict[str, Any]]:
        """Flatten one streamed cell into emission rows."""
        if self.rows is not None:
            return self.rows(cell)
        return _default_rows(cell)

    def render(self, output: Any) -> str:
        """Render the reduced output for terminal display."""
        if self.format_result is not None:
            return self.format_result(output)
        if hasattr(output, "format_table"):
            return output.format_table()
        return str(output)


# ---------------------------------------------------------------------
# Composite sweeps
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class CompositeResult:
    """The reduced output of a :class:`CompositeSweep`: named sections."""

    sections: Tuple[Tuple[str, Any], ...]

    def section(self, name: str) -> Any:
        """The reduced output of the sub-sweep registered as ``name``."""
        for section_name, value in self.sections:
            if section_name == name:
                return value
        raise ConfigurationError(
            f"composite result has no section {name!r}; sections: "
            f"{', '.join(name for name, _ in self.sections)}"
        )


class CompositeSweep:
    """Several :class:`SweepSpec` runs chained into one streamed sweep.

    The sub-specs execute back-to-back in declaration order through one
    invocation: they share the persistent worker pool, the simulation
    cache (worker deltas merged after each cell), and the output
    stream. Cells are re-indexed globally and their coordinates gain a
    ``"spec"`` axis naming the sub-sweep, so emitted rows from
    different sections stay distinguishable in one JSONL/CSV file.

    Duck-types the :class:`SweepSpec` surface the CLI and
    :func:`stream_to_emitter` use (``stream`` / ``rows_for`` /
    ``reduced`` / ``run`` / ``render`` / ``cell_count``), reducing to a
    :class:`CompositeResult` of per-spec sections.

    After a run, :attr:`executions` holds one ``(spec_name,
    SweepExecution)`` pair per sub-sweep — the cache-traffic evidence
    (worker hits vs misses) of each section.
    """

    def __init__(
        self, name: str, specs: Sequence[SweepSpec], title: str = ""
    ) -> None:
        if not specs:
            raise ConfigurationError(
                f"composite sweep {name!r} needs at least one spec"
            )
        self.name = name
        self.title = title or name
        self.specs = tuple(specs)
        #: ``(spec_name, SweepExecution)`` per sub-sweep of the last run.
        self.executions: List[Tuple[str, Any]] = []

    @property
    def cell_count(self) -> int:
        """Total cells across every sub-sweep."""
        return sum(spec.cell_count for spec in self.specs)

    def describe_axes(self) -> str:
        """Per-section grid shapes, ``figure12[scheme×8] + …``."""
        return " + ".join(
            f"{spec.name}[{spec.describe_axes()}]" for spec in self.specs
        )

    def stream(
        self,
        jobs: Optional[int] = 1,
        progress: Optional[ProgressCallback] = None,
        batch: bool = True,
        deadline: Optional[float] = None,
    ) -> Iterator[CellResult]:
        """Yield every sub-sweep's cells in order, globally re-indexed."""
        from repro.experiments.parallel import last_sweep_execution

        self.executions = []
        offset = 0
        total = self.cell_count
        for spec in self.specs:
            base = offset
            sub_progress = None
            if progress is not None:
                def sub_progress(done: int, _sub_total: int, _base=base):
                    progress(_base + done, total)
            for cell in spec.stream(
                jobs=jobs, progress=sub_progress, batch=batch,
                deadline=deadline,
            ):
                yield CellResult(
                    index=base + cell.index,
                    coords={"spec": spec.name, **cell.coords},
                    value=cell.value,
                )
            offset = base + spec.cell_count
            self.executions.append((spec.name, last_sweep_execution()))

    def _owner(self, index: int) -> Tuple[Optional[SweepSpec], int]:
        """The sub-spec owning a global cell index, and its index base.

        Sub-sweeps occupy contiguous global index ranges in declaration
        order, so ownership is derivable — no per-cell state is kept.
        """
        base = 0
        for spec in self.specs:
            count = spec.cell_count
            if index < base + count:
                return spec, base
            base += count
        return None, 0

    def rows_for(self, cell: CellResult) -> Iterable[Dict[str, Any]]:
        """The owning sub-spec's rows, each tagged with its section."""
        spec, base = self._owner(cell.index)
        if spec is None:
            return _default_rows(cell)
        inner = CellResult(
            index=cell.index - base,
            coords={
                name: value
                for name, value in cell.coords.items() if name != "spec"
            },
            value=cell.value,
        )
        return tuple(
            {"spec": spec.name, **row} for row in spec.rows_for(inner)
        )

    def reduced(self, results: List[Any]) -> CompositeResult:
        """Split the ordered results per sub-sweep and reduce each."""
        sections = []
        offset = 0
        for spec in self.specs:
            count = spec.cell_count
            sections.append(
                (spec.name, spec.reduced(results[offset:offset + count]))
            )
            offset += count
        return CompositeResult(sections=tuple(sections))

    def run(
        self,
        jobs: Optional[int] = 1,
        progress: Optional[ProgressCallback] = None,
        batch: bool = True,
    ) -> CompositeResult:
        """Drain the chained stream and reduce every section."""
        results = [
            cell.value for cell in self.stream(jobs, progress, batch=batch)
        ]
        return self.reduced(results)

    def render(self, output: CompositeResult) -> str:
        """Every section's rendering, joined with blank lines."""
        parts = []
        for spec, (_name, value) in zip(self.specs, output.sections):
            parts.append(spec.render(value))
        return "\n\n".join(parts)


# ---------------------------------------------------------------------
# Scenario registry
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A named, lazily built sweep: what ``experiments --list`` shows."""

    name: str
    summary: str
    build: Callable[[], SweepSpec] = field(repr=False)


_SCENARIOS: "OrderedDict[str, Scenario]" = OrderedDict()


def register_scenario(
    name: str, summary: str, build: Callable[[], SweepSpec]
) -> Scenario:
    """Register a sweep scenario under ``name`` (idempotent re-register).

    ``build`` must be a zero-argument callable returning the scenario's
    default-parameterized :class:`SweepSpec`; it is invoked only when
    the scenario is actually run, never for listing.
    """
    scenario = Scenario(name=name, summary=summary, build=build)
    _SCENARIOS[name] = scenario
    return scenario


def scenario_names() -> Tuple[str, ...]:
    """Registered scenario names, in registration order."""
    return tuple(_SCENARIOS)


def find_scenario(name: str) -> Optional[Scenario]:
    """The scenario registered under ``name``, or ``None``."""
    return _SCENARIOS.get(name)


def get_scenario(name: str) -> Scenario:
    """The scenario registered under ``name`` (raises if unknown)."""
    scenario = _SCENARIOS.get(name)
    if scenario is None:
        raise ConfigurationError(
            f"unknown sweep scenario {name!r}; registered: "
            f"{', '.join(_SCENARIOS) or '(none)'}"
        )
    return scenario


def iter_scenarios() -> Tuple[Scenario, ...]:
    """Every registered scenario, in registration order."""
    return tuple(_SCENARIOS.values())


def spec_request_key(spec: Any) -> str:
    """Canonical identity of a sweep request, stable across processes.

    The serving layer coalesces concurrent requests that would perform
    identical work; "identical" is pinned here as the SHA-256 digest of
    the spec's name plus its axes — names and values, in declaration
    order — plus the disk cache's schema fingerprint. Two requests with
    equal keys stream bit-identical rows (axes determine every cell
    payload through the spec's builder), so one may safely subscribe to
    the other's run. The schema fingerprint participates so a daemon
    serving across a result-dataclass change can never hand rows
    computed under the old shapes to a client keyed on the new ones.

    Works for both :class:`SweepSpec` (hashes the axes) and
    :class:`CompositeSweep` (hashes the sub-specs' keys). Axis values
    must be digestible by :func:`repro.sim.diskcache.key_digest` —
    scalars, tuples, and frozen dataclasses, i.e. exactly the value
    shapes sweep axes already use for cache keys.
    """
    from repro.sim.diskcache import key_digest, schema_fingerprint

    axes = getattr(spec, "axes", None)
    if axes is not None:
        signature = tuple((name, values) for name, values in axes.items())
        return key_digest(
            ("sweep-request", schema_fingerprint(), spec.name, signature)
        )
    subs = getattr(spec, "specs", None)
    if subs is not None:
        return key_digest(
            (
                "composite-request",
                schema_fingerprint(),
                spec.name,
                tuple(spec_request_key(sub) for sub in subs),
            )
        )
    raise ConfigurationError(
        f"cannot derive a request key for {type(spec).__name__}: "
        "the object exposes neither axes nor sub-specs"
    )


# ---------------------------------------------------------------------
# Incremental emission
# ---------------------------------------------------------------------


class ResultEmitter:
    """Base class for incremental row writers (one flush per row)."""

    def __init__(self, handle: IO[str]) -> None:
        self._handle = handle
        self.rows_written = 0

    def emit(self, row: Mapping[str, Any]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "ResultEmitter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def jsonl_line(row: Mapping[str, Any]) -> str:
    """One row as a JSON line (values coerced to scalars, no newline).

    The single serialization both :class:`JsonlEmitter` and the CLI's
    ``--stream`` stdout path share, so file rows and printed rows can
    never diverge.
    """
    return json.dumps(
        {k: _json_scalar(v) for k, v in row.items()}, sort_keys=False
    )


class JsonlEmitter(ResultEmitter):
    """One JSON object per line, flushed as each row lands."""

    def emit(self, row: Mapping[str, Any]) -> None:
        self._handle.write(jsonl_line(row))
        self._handle.write("\n")
        self._handle.flush()
        self.rows_written += 1


class CsvEmitter(ResultEmitter):
    """CSV with a header from the first row's keys, flushed per row.

    CSV is a single-schema format: every row must carry the keys the
    first row established. A row with different keys (e.g. a second
    scenario sharing the file) raises :class:`ConfigurationError` —
    use JSONL when mixing scenarios in one output file.
    """

    def __init__(self, handle: IO[str]) -> None:
        super().__init__(handle)
        self._writer: Optional[csv.DictWriter] = None

    def emit(self, row: Mapping[str, Any]) -> None:
        coerced = {k: _json_scalar(v) for k, v in row.items()}
        if self._writer is None:
            self._writer = csv.DictWriter(
                self._handle, fieldnames=list(coerced), lineterminator="\n"
            )
            self._writer.writeheader()
        elif set(coerced) != set(self._writer.fieldnames):
            raise ConfigurationError(
                "CSV emission needs one row schema per file: got columns "
                f"{sorted(coerced)} after a header of "
                f"{sorted(self._writer.fieldnames)}; write mixed scenarios "
                "to a .jsonl file instead"
            )
        self._writer.writerow(coerced)
        self._handle.flush()
        self.rows_written += 1


def open_emitter(path: Union[str, "Any"]) -> ResultEmitter:
    """An incremental emitter for ``path``: ``.csv`` → CSV, else JSONL."""
    text = str(path)
    handle = open(text, "w", encoding="utf-8", newline="")
    if text.lower().endswith(".csv"):
        return CsvEmitter(handle)
    return JsonlEmitter(handle)


def stream_to_emitter(
    spec: SweepSpec,
    emitter: Optional[ResultEmitter],
    jobs: Optional[int] = 1,
    progress: Optional[ProgressCallback] = None,
    on_cell: Optional[Callable[[CellResult], None]] = None,
    batch: bool = True,
) -> Any:
    """Stream a spec, emitting rows per cell, and return the reduced output.

    The convenience loop behind the CLI's ``--out``/``--stream`` path:
    every finished cell's rows are written (and flushed) before the
    next cell is awaited, so the output file grows while the sweep is
    still running.
    """
    results: List[Any] = []
    for cell in spec.stream(jobs=jobs, progress=progress, batch=batch):
        results.append(cell.value)
        if emitter is not None:
            for row in spec.rows_for(cell):
                emitter.emit(row)
        if on_cell is not None:
            on_cell(cell)
    return spec.reduced(results)
