"""Tile-stream pipeline simulation: the timing engine behind Figures 12-17.

A compressed GeMM is a stream of tiles flowing through up to four
resources: the memory system, a decompression engine (core AVX units or a
DECA PE), the core<->engine communication path, and the TMUL. This module
simulates one core's stream against its fair bandwidth share (exact for
the symmetric workloads evaluated) under three invocation disciplines:

* ``OVERLAPPED`` — the libxsmm software kernel (Figure 2): AVX
  decompression double-buffered against AMX on the same core, and also the
  idealised DECA pipeline when communication costs are zero.
* ``SERIALIZED`` — store+fence DECA invocation (Figure 9): every iteration
  exposes the MMIO store, the fence drain, and the TOut/L2 read latency.
* ``TEPL`` — out-of-order TEPL invocation (Figure 10): communication
  overlaps computation, but at most ``n_loaders`` TEPLs are in flight
  (the structural hazard), so the per-tile interval can never drop below
  (exposed latency + decompress + handoff + issue) / n_loaders.

Calibrated second-order effects (see DESIGN.md section 5):

* DRAM efficiency: streams achieve ~93% of nominal bandwidth
  (``SimSystem``-independent constant ``DRAM_EFFICIENCY``), matching the
  paper's 91-93% memory utilisation for memory-bound DECA runs (Table 3).
* The software kernel's demand loads go through the core's load queue and
  MSHRs; a core can sustain only ``SW_DEMAND_LOAD_BYTES_PER_CYCLE`` of
  demand-load traffic. On DDR the fair share sits below this cap (software
  reaches the roofline, Figure 12); on HBM the cap binds and is exactly
  the paper's observed 74% memory utilisation for dense Q8 (Table 3).
  DECA's dedicated loaders/prefetcher at the L2 are not subject to it.

Performance architecture (docs/PERFORMANCE.md):

* The OVERLAPPED engine evaluates the stage recurrences as NumPy max-plus
  scans in *relative coordinates*: every chained resource recurrence
  ``free[i] = max(ready[i], free[i-1]) + cost[i]`` becomes
  ``cumsum(cost)[i] + maximum.accumulate(ready - cumsum_prev)[i]``. The
  only genuinely sequential dependency — the prefetch feedback
  ``issue[i] = dec_start[i - prefetch_window]`` — is resolved by a
  monotone fixed-point iteration that converges in two array passes for
  every bandwidth-, decompress-, or TMUL-bound regime; a retained
  per-tile reference loop (``_run_overlapped_reference``) is the exact
  fallback for the rare window-limited regime and the golden model for
  the equivalence tests.
* TEPL feeds each completion back into the issue ``n_loaders`` tiles
  later. Where a stream is memory-bound the engine evaluates a closed
  form and verifies it row by row; rows that fail (bound by the
  two-loader hazard) fall back to a plain-float per-tile loop.
* SERIALIZED's lag-1 feedback through the core's program order keeps a
  plain-float per-tile loop with all service times precomputed. It has
  no stacked engine: the per-row loop beats a cells-vectorized loop up
  to ~12-row stacks, and no sweep stacks SERIALIZED cells.
* ``simulate_tile_stream`` memoizes results through
  :mod:`repro.sim.cache`, so sweeps that revisit identical
  ``(system, timing, tiles)`` configurations cost one dict lookup.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.sim import cache as _simcache
from repro.sim.memory import MemoryChannel
from repro.sim.stats import UtilizationReport
from repro.sim.system import SimSystem
from repro.units import TMUL_CYCLES, flops_per_tile

#: Fraction of nominal bandwidth a well-formed stream actually achieves.
DRAM_EFFICIENCY = 0.93

#: Per-core demand-load bandwidth cap for the software kernel (bytes per
#: cycle). 4.5 B/cycle at 2.5 GHz is ~11 GB/s per core.
SW_DEMAND_LOAD_BYTES_PER_CYCLE = 4.5

#: Fixed-point iteration budget for the vectorized OVERLAPPED engine. Every
#: realistic regime converges in two passes; the window-limited corner
#: (tiles so small the channel idles between fetches) propagates only one
#: prefetch window per pass, so after this many passes the engine falls
#: back to the exact per-tile reference loop instead of iterating on.
_OVERLAPPED_MAX_ROUNDS = 8

#: Testing/benchmark hook: force every simulation through the retained
#: per-tile reference loops (and bypass the cache). Used by
#: ``benchmarks/perf`` to measure the loop-vs-vectorized speedup.
FORCE_REFERENCE_ENGINE = False


class InvocationMode(enum.Enum):
    """How the decompression engine is driven (Section 5)."""

    OVERLAPPED = "overlapped"
    SERIALIZED = "serialized"
    TEPL = "tepl"


@dataclass(frozen=True)
class KernelTiming:
    """Per-tile resource costs and pipeline discipline of one kernel.

    Attributes:
        bytes_per_tile: Compressed bytes fetched per tile (scalar or one
            value per simulated tile).
        dec_cycles: Decompression-engine occupancy per tile (scalar or per
            tile). Zero means the tile needs no decompression (BF16
            baseline: tload straight from memory).
        mtx_cycles: TMUL occupancy per tile operation.
        mode: Invocation discipline.
        handoff_cycles: Latency from decompressed data to the tile
            register (TOut read, or the longer L2 round trip).
        invoke_cycles: Core cost to trigger one tile (MMIO store or TEPL
            issue).
        fence_cycles: Pipeline-drain cost per iteration (store+fence mode).
        exposed_latency: Fraction of memory latency left visible per fetch
            (prefetching discipline).
        prefetch_window: Outstanding tile fetches the fetch engine keeps.
        n_loaders: In-flight limit for TEPL (DECA has two Loaders).
        core_overhead_cycles: Serial per-tile core work that cannot overlap
            the AVX sequence (loop control, AMX issue) — software only.
        loader_latency_cycles: Turnaround from an invocation reaching a
            DECA Loader to the first codes entering the pipeline (the
            LDQ's L2 read of an already-prefetched line, streaming into
            the SQQ).
        demand_load_cap: Per-core demand-load bandwidth cap in
            bytes/cycle, or ``None`` for dedicated-loader paths.
        dec_is_avx: Whether decompression runs on the core's AVX units
            (affects which utilisation column the busy time lands in).
    """

    bytes_per_tile: Union[float, Sequence[float]]
    dec_cycles: Union[float, Sequence[float]]
    mtx_cycles: float = float(TMUL_CYCLES)
    mode: InvocationMode = InvocationMode.OVERLAPPED
    handoff_cycles: float = 0.0
    invoke_cycles: float = 0.0
    fence_cycles: float = 0.0
    exposed_latency: float = 0.08
    prefetch_window: int = 8
    n_loaders: int = 2
    core_overhead_cycles: float = 0.0
    loader_latency_cycles: float = 0.0
    demand_load_cap: Optional[float] = None
    dec_is_avx: bool = True

    def __post_init__(self) -> None:
        if self.mtx_cycles <= 0:
            raise ConfigurationError("mtx_cycles must be positive")
        if self.prefetch_window < 1:
            raise ConfigurationError("prefetch_window must be >= 1")
        if self.n_loaders < 1:
            raise ConfigurationError("n_loaders must be >= 1")
        if not 0.0 <= self.exposed_latency <= 1.0:
            raise ConfigurationError("exposed_latency must be in [0, 1]")

    def tile_bytes(self, tiles: int) -> np.ndarray:
        """Per-tile byte counts as an array of length ``tiles``."""
        return _broadcast(self.bytes_per_tile, tiles, "bytes_per_tile")

    def tile_dec_cycles(self, tiles: int) -> np.ndarray:
        """Per-tile decompression occupancy as an array."""
        return _broadcast(self.dec_cycles, tiles, "dec_cycles")


def _broadcast(
    value: Union[float, Sequence[float]], tiles: int, name: str
) -> np.ndarray:
    # np.ndim treats Python numbers, NumPy scalar types, *and* 0-d arrays
    # uniformly (np.isscalar does not: it is False for 0-d arrays, which
    # would route them down the sequence path below).
    if np.ndim(value) == 0:
        return np.full(tiles, float(value))
    array = np.asarray(value, dtype=float).ravel()
    if array.size == 0:
        raise ConfigurationError(f"{name} sequence must not be empty")
    if array.size >= tiles:
        return array[:tiles]
    repeats = int(np.ceil(tiles / array.size))
    return np.tile(array, repeats)[:tiles]


@dataclass(frozen=True)
class PipelineTrace:
    """Per-tile stage timestamps of a simulated stream (cycles).

    Every array has one entry per tile: when its fetch was issued, when
    its data arrived, when decompression started/finished, and when the
    TMUL consumed it. ``repro.sim.trace`` renders these as a Gantt chart.
    """

    fetch_issue: np.ndarray
    mem_done: np.ndarray
    dec_start: np.ndarray
    dec_done: np.ndarray
    mtx_start: np.ndarray
    mtx_done: np.ndarray

    def stage_spans(self, index: int) -> dict:
        """(start, end) spans per stage for one tile."""
        if not 0 <= index < len(self.mtx_done):
            raise SimulationError(f"no tile {index} in this trace")
        return {
            "fetch": (float(self.fetch_issue[index]), float(self.mem_done[index])),
            "decompress": (
                float(self.dec_start[index]), float(self.dec_done[index])
            ),
            "matrix": (
                float(self.mtx_start[index]), float(self.mtx_done[index])
            ),
        }


@dataclass(frozen=True)
class SimResult:
    """Outcome of simulating one core's tile stream."""

    system: SimSystem
    tiles: int
    makespan_cycles: float
    steady_interval_cycles: float
    utilization: UtilizationReport
    trace: Optional[PipelineTrace] = None

    @property
    def tiles_per_second(self) -> float:
        """Machine-wide steady-state tile rate (all cores)."""
        return (
            self.system.cores
            * self.system.frequency_hz
            / self.steady_interval_cycles
        )

    def flops(self, batch_rows: int) -> float:
        """Machine-wide FMAs/second for a given activation batch."""
        return flops_per_tile(batch_rows) * self.tiles_per_second

    def seconds_for(self, total_tiles_per_core: int) -> float:
        """Extrapolated wall-clock time for a longer stream on one core."""
        if total_tiles_per_core < self.tiles:
            scale = total_tiles_per_core / self.tiles
            return self.makespan_cycles * scale / self.system.frequency_hz
        extra = total_tiles_per_core - self.tiles
        cycles = self.makespan_cycles + extra * self.steady_interval_cycles
        return cycles / self.system.frequency_hz


def _effective_bytes_per_cycle(system: SimSystem, timing: KernelTiming) -> float:
    share = system.per_core_bytes_per_cycle() * DRAM_EFFICIENCY
    if timing.demand_load_cap is not None:
        return min(share, timing.demand_load_cap)
    return share


def simulate_tile_stream(
    system: SimSystem,
    timing: KernelTiming,
    tiles: int = 600,
    use_cache: bool = True,
) -> SimResult:
    """Simulate one core's compressed-GeMM tile stream.

    All cores run identical streams, so one core against its fair
    bandwidth share reproduces machine throughput exactly in steady state
    (validated against :func:`simulate_multicore_event` in the tests).

    Results are memoized on the ``(system, timing, tiles)`` value (see
    :mod:`repro.sim.cache`): repeated identical invocations across figure
    and table harnesses return the same :class:`SimResult` object from an
    LRU cache. Pass ``use_cache=False`` to force a fresh simulation.
    """
    if tiles < 8:
        raise ConfigurationError("need at least 8 tiles for a steady state")
    if use_cache and not FORCE_REFERENCE_ENGINE:
        # DRAM_EFFICIENCY is a module global that studies patch
        # transiently (the sensitivity sweep scales it), and it feeds the
        # simulation outside the (system, timing) objects — it must
        # participate in the key so a perturbed run neither reuses
        # nominal entries nor pollutes them.
        return _simcache.cached_tile_stream(
            system,
            timing,
            tiles,
            lambda: _simulate_tile_stream_uncached(system, timing, tiles),
            extra=DRAM_EFFICIENCY,
        )
    return _simulate_tile_stream_uncached(system, timing, tiles)


def _simulate_tile_stream_uncached(
    system: SimSystem,
    timing: KernelTiming,
    tiles: int,
) -> SimResult:
    nbytes = timing.tile_bytes(tiles)
    dec = timing.tile_dec_cycles(tiles)
    if np.any(nbytes < 0):
        raise SimulationError("request size must be non-negative")
    channel = MemoryChannel(
        _effective_bytes_per_cycle(system, timing), system.memory_latency
    )
    runner = _ENGINES[timing.mode]
    if FORCE_REFERENCE_ENGINE:
        runner = _REFERENCE_ENGINES[timing.mode]
    trace = runner(channel, timing, nbytes, dec)
    return _build_result(system, timing, channel, nbytes, dec, trace)


def simulate_tile_stream_reference(
    system: SimSystem,
    timing: KernelTiming,
    tiles: int = 600,
) -> SimResult:
    """Run the retained per-tile reference loops (uncached).

    The golden model for the vectorized engines: used by the equivalence
    tests and by ``benchmarks/perf`` as the "before" measurement.
    """
    if tiles < 8:
        raise ConfigurationError("need at least 8 tiles for a steady state")
    nbytes = timing.tile_bytes(tiles)
    dec = timing.tile_dec_cycles(tiles)
    if np.any(nbytes < 0):
        raise SimulationError("request size must be non-negative")
    channel = MemoryChannel(
        _effective_bytes_per_cycle(system, timing), system.memory_latency
    )
    trace = _REFERENCE_ENGINES[timing.mode](channel, timing, nbytes, dec)
    return _build_result(system, timing, channel, nbytes, dec, trace)


def _build_result(
    system: SimSystem,
    timing: KernelTiming,
    channel: MemoryChannel,
    nbytes: np.ndarray,
    dec: np.ndarray,
    trace: PipelineTrace,
) -> SimResult:
    done = trace.mtx_done
    tiles = len(done)
    makespan = float(done[-1])
    half = tiles // 2
    steady = float(done[-1] - done[half]) / (tiles - 1 - half)
    if steady <= 0:
        raise SimulationError("non-positive steady-state interval")
    # Utilization over the steady half of the run. Memory busy time is the
    # raw transfer time at nominal bandwidth, so a DRAM_EFFICIENCY-limited
    # stream reports ~93%, matching the paper's accounting.
    window = makespan - float(done[half])
    raw_bpc = system.per_core_bytes_per_cycle()
    mem_busy = float(np.sum(nbytes[half + 1:])) / raw_bpc
    mtx_busy = timing.mtx_cycles * (tiles - 1 - half)
    dec_busy = float(np.sum(dec[half + 1:]))
    report = UtilizationReport(
        memory=min(1.0, mem_busy / window),
        matrix=min(1.0, mtx_busy / window),
        decompress=min(1.0, dec_busy / window),
    )
    # Results may be shared through the simulation cache; freeze the trace
    # so one consumer cannot mutate another's arrays.
    for array in (
        trace.fetch_issue, trace.mem_done, trace.dec_start,
        trace.dec_done, trace.mtx_start, trace.mtx_done,
    ):
        array.setflags(write=False)
    return SimResult(
        system=system,
        tiles=tiles,
        makespan_cycles=makespan,
        steady_interval_cycles=steady,
        utilization=report,
        trace=trace,
    )


def _shifted(cum: np.ndarray) -> np.ndarray:
    """Exclusive prefix view of an inclusive cumsum (exact prefix values)."""
    return np.concatenate(([0.0], cum[:-1]))


def _run_overlapped(
    channel: MemoryChannel,
    timing: KernelTiming,
    nbytes: np.ndarray,
    dec: np.ndarray,
) -> PipelineTrace:
    """Double-buffered software pipeline (Figure 2), vectorized.

    Three max-plus recurrences chain the stages:

    * memory channel:  ``free[i] = max(issue[i], free[i-1]) + service[i]``
    * decompress unit: ``dfree[i] = max(mem_done[i], dfree[i-1]) + cost[i]``
      (over the subsequence of tiles that need decompression)
    * TMUL:            ``mfree[i] = max(ready[i], mfree[i-1]) + mtx``

    Each is one cumsum plus one ``np.maximum.accumulate`` in relative
    coordinates. The prefetch feedback ``issue[i] = dec_start[i - window]``
    is the only cross-recurrence cycle; it is resolved by iterating the
    three scans to their (unique, causal) fixed point. Starting from
    ``issue = 0`` every iterate is a lower bound, so the iteration is
    monotone and terminates; all bandwidth-, decompress- and TMUL-bound
    regimes converge in two passes. If the budget is exhausted (possible
    only in the window-limited corner where the channel idles between
    fetches), the exact per-tile reference loop finishes the job — the
    two paths compute bit-identical timestamps.
    """
    tiles = len(nbytes)
    window = timing.prefetch_window
    dec_idx = np.flatnonzero(dec > 0.0)
    all_dec = dec_idx.size == tiles
    no_dec = dec_idx.size == 0
    dec_cost = (dec if all_dec else dec[dec_idx]) + timing.core_overhead_cycles
    dec_cum = np.cumsum(dec_cost)
    dec_cum_prev = _shifted(dec_cum)
    exposed = timing.exposed_latency * channel.latency_cycles
    mem_cum = np.cumsum(nbytes / channel.bytes_per_cycle)
    mem_cum_prev = _shifted(mem_cum)
    issue = np.zeros(tiles)
    mem_done = dec_start = dec_done = None
    converged = False
    for round_index in range(_OVERLAPPED_MAX_ROUNDS):
        if round_index == 0:
            # issue == 0 everywhere: the channel scan's peak term is
            # floored at zero, so the FIFO is simply back-to-back busy.
            mem_done = mem_cum + exposed
        else:
            peak = np.maximum.accumulate(
                np.maximum(issue - mem_cum_prev, 0.0)
            )
            mem_done = (peak + mem_cum) + exposed
        if no_dec:
            dec_start = mem_done
            dec_done = mem_done
        elif all_dec:
            peak = np.maximum.accumulate(
                np.maximum(mem_done - dec_cum_prev, 0.0)
            )
            dec_start = peak + dec_cum_prev
            dec_done = peak + dec_cum
        else:
            dec_start = mem_done.copy()
            dec_done = mem_done.copy()
            peak = np.maximum.accumulate(
                np.maximum(mem_done[dec_idx] - dec_cum_prev, 0.0)
            )
            dec_start[dec_idx] = peak + dec_cum_prev
            dec_done[dec_idx] = peak + dec_cum
        new_issue = np.zeros(tiles)
        if tiles > window:
            new_issue[window:] = dec_start[:-window]
        if np.array_equal(new_issue, issue):
            converged = True
            break
        issue = new_issue
    if not converged:
        return _run_overlapped_reference(channel, timing, nbytes, dec)
    mtx_cum_prev = np.arange(tiles) * timing.mtx_cycles
    mtx_cum = np.arange(1, tiles + 1) * timing.mtx_cycles
    ready = dec_done + timing.handoff_cycles
    peak = np.maximum.accumulate(np.maximum(ready - mtx_cum_prev, 0.0))
    mtx_start = peak + mtx_cum_prev
    mtx_done = peak + mtx_cum
    return PipelineTrace(
        issue, mem_done, dec_start, dec_done, mtx_start, mtx_done,
    )


def _run_overlapped_reference(
    channel: MemoryChannel,
    timing: KernelTiming,
    nbytes: np.ndarray,
    dec: np.ndarray,
) -> PipelineTrace:
    """Per-tile reference for the OVERLAPPED discipline (Figure 2).

    Evaluates the same recurrences as :func:`_run_overlapped`, one tile at
    a time, in the same relative-coordinate algebra (running cumsums plus
    running peaks), so the two implementations produce bit-identical
    timestamps — the equivalence the tests assert exactly.
    """
    tiles = len(nbytes)
    window = timing.prefetch_window
    bpc = channel.bytes_per_cycle
    exposed = timing.exposed_latency * channel.latency_cycles
    overhead = timing.core_overhead_cycles
    mtx = timing.mtx_cycles
    handoff = timing.handoff_cycles
    fetch_issue = np.zeros(tiles)
    mem_done_arr = np.zeros(tiles)
    dec_start = np.zeros(tiles)
    dec_done_arr = np.zeros(tiles)
    mtx_start_arr = np.zeros(tiles)
    done = np.zeros(tiles)
    mem_cum = mem_peak = 0.0
    dec_cum = dec_peak = 0.0
    mtx_peak = 0.0
    for i in range(tiles):
        issue = 0.0 if i < window else dec_start[i - window]
        mem_cum_prev = mem_cum
        mem_cum = mem_cum + nbytes[i] / bpc
        slack = issue - mem_cum_prev
        if slack > mem_peak:
            mem_peak = slack
        mem_done = (mem_peak + mem_cum) + exposed
        if dec[i] > 0.0:
            # The AVX sequence plus its serial loop overhead occupy the core.
            dec_cum_prev = dec_cum
            dec_cum = dec_cum + (dec[i] + overhead)
            slack = mem_done - dec_cum_prev
            if slack > dec_peak:
                dec_peak = slack
            dec_start[i] = dec_peak + dec_cum_prev
            dec_done = dec_peak + dec_cum
        else:
            dec_start[i] = mem_done
            dec_done = mem_done
        mtx_cum_prev = i * mtx
        mtx_cum = (i + 1) * mtx
        slack = (dec_done + handoff) - mtx_cum_prev
        if slack > mtx_peak:
            mtx_peak = slack
        fetch_issue[i] = issue
        mem_done_arr[i] = mem_done
        dec_done_arr[i] = dec_done
        mtx_start_arr[i] = mtx_peak + mtx_cum_prev
        done[i] = mtx_peak + mtx_cum
    return PipelineTrace(
        fetch_issue, mem_done_arr, dec_start, dec_done_arr,
        mtx_start_arr, done,
    )


def _run_serialized(
    channel: MemoryChannel,
    timing: KernelTiming,
    nbytes: np.ndarray,
    dec: np.ndarray,
) -> PipelineTrace:
    """Store+fence invocation (Figure 9): the core never overlaps.

    Iteration i: the core stores the metadata of tile i+1 (triggering its
    fetch), executes a fence, waits for tile i's decompressed data, and
    runs the TMUL. DECA's two loaders still let fetch/decompress of tile i
    overlap the previous iteration — it is the core that serializes.

    Every store lands ``invoke + fence + mtx`` plus the decompress wait
    after the previous one, so the memory/decompress chains feed the next
    tile's invocation with a one-tile lag: exactness requires the per-tile
    loop. It is kept tight — precomputed service times, plain-float
    arithmetic, no per-tile channel calls — and is bit-identical to the
    retained :func:`_run_serialized_reference`.
    """
    tiles = len(nbytes)
    service = (nbytes / channel.bytes_per_cycle).tolist()
    dec_list = dec.tolist()
    exposed = timing.exposed_latency * channel.latency_cycles
    invoke = timing.invoke_cycles
    fence = timing.fence_cycles
    loader = timing.loader_latency_cycles
    handoff = timing.handoff_cycles
    mtx = timing.mtx_cycles
    done = [0.0] * tiles
    dec_done = [0.0] * tiles
    store_time = [0.0] * tiles
    mem_done_arr = [0.0] * tiles
    dec_start_arr = [0.0] * tiles
    mtx_start_arr = [0.0] * tiles
    mem_free = 0.0
    dec_free = 0.0
    # Priming store for tile 0 before the loop begins.
    now = invoke
    store_time[0] = now
    start = now if now > mem_free else mem_free
    mem_free = start + service[0]
    mem_done = mem_free + exposed
    mem_done_arr[0] = mem_done
    turnaround = now + loader
    ready = mem_done if mem_done > turnaround else turnaround
    dec_start = ready if ready > dec_free else dec_free
    dec_start_arr[0] = dec_start
    dec_free = dec_start + dec_list[0]
    dec_done[0] = dec_free
    for i in range(tiles):
        # Store metadata for tile i+1 (prompts its loader).
        now += invoke
        if i + 1 < tiles:
            store_time[i + 1] = now
            start = now if now > mem_free else mem_free
            mem_free = start + service[i + 1]
            mem_done = mem_free + exposed
            mem_done_arr[i + 1] = mem_done
            turnaround = now + loader
            ready = mem_done if mem_done > turnaround else turnaround
            dec_start = ready if ready > dec_free else dec_free
            dec_start_arr[i + 1] = dec_start
            dec_free = dec_start + dec_list[i + 1]
            dec_done[i + 1] = dec_free
        now += fence
        # TLoad of tile i waits for DECA plus the data path back.
        wait = dec_done[i] + handoff
        if wait > now:
            now = wait
        mtx_start_arr[i] = now
        now += mtx
        done[i] = now
    return PipelineTrace(
        np.asarray(store_time), np.asarray(mem_done_arr),
        np.asarray(dec_start_arr), np.asarray(dec_done),
        np.asarray(mtx_start_arr), np.asarray(done),
    )


def _run_serialized_reference(
    channel: MemoryChannel,
    timing: KernelTiming,
    nbytes: np.ndarray,
    dec: np.ndarray,
) -> PipelineTrace:
    """Per-tile reference for the SERIALIZED discipline (channel calls)."""
    tiles = len(nbytes)
    done = np.zeros(tiles)
    dec_done = np.zeros(tiles)
    store_time = np.zeros(tiles + 1)
    mem_done_arr = np.zeros(tiles)
    dec_start_arr = np.zeros(tiles)
    mtx_start_arr = np.zeros(tiles)
    dec_free = 0.0
    now = 0.0
    # Priming store for tile 0 before the loop begins.
    now += timing.invoke_cycles
    store_time[0] = now
    mem_done0 = channel.request(now, nbytes[0], timing.exposed_latency)
    mem_done_arr[0] = mem_done0
    ready0 = max(mem_done0, now + timing.loader_latency_cycles)
    dec_start_arr[0] = max(ready0, dec_free)
    dec_free = dec_start_arr[0] + dec[0]
    dec_done[0] = dec_free
    for i in range(tiles):
        # Store metadata for tile i+1 (prompts its loader).
        now += timing.invoke_cycles
        store_time[i + 1] = now
        if i + 1 < tiles:
            mem_done = channel.request(
                now, nbytes[i + 1], timing.exposed_latency
            )
            mem_done_arr[i + 1] = mem_done
            ready = max(mem_done, now + timing.loader_latency_cycles)
            dec_start_arr[i + 1] = max(ready, dec_free)
            dec_free = dec_start_arr[i + 1] + dec[i + 1]
            dec_done[i + 1] = dec_free
        now += timing.fence_cycles
        # TLoad of tile i waits for DECA plus the data path back.
        now = max(now, dec_done[i] + timing.handoff_cycles)
        mtx_start_arr[i] = now
        now += timing.mtx_cycles
        done[i] = now
    return PipelineTrace(
        store_time[:tiles], mem_done_arr, dec_start_arr, dec_done,
        mtx_start_arr, done,
    )


def _run_tepl(
    channel: MemoryChannel,
    timing: KernelTiming,
    nbytes: np.ndarray,
    dec: np.ndarray,
) -> PipelineTrace:
    """TEPL invocation (Figure 10): out-of-order, two-loader hazard.

    TEPL i may issue only when TEPL i - n_loaders has completed (its
    loader freed). This plain-float per-tile loop is the fallback for
    rows the closed form of :func:`_run_tepl_batch` cannot verify, and
    is bit-identical to the retained :func:`_run_tepl_reference`.
    """
    tiles = len(nbytes)
    service = (nbytes / channel.bytes_per_cycle).tolist()
    dec_list = dec.tolist()
    exposed = timing.exposed_latency * channel.latency_cycles
    invoke = timing.invoke_cycles
    loader = timing.loader_latency_cycles
    handoff = timing.handoff_cycles
    mtx = timing.mtx_cycles
    n_loaders = timing.n_loaders
    window = max(timing.prefetch_window, timing.n_loaders)
    prefetch_ahead = timing.prefetch_window > timing.n_loaders
    done = [0.0] * tiles
    complete = [0.0] * tiles
    dec_start = [0.0] * tiles
    fetch_issue_arr = [0.0] * tiles
    mem_done_arr = [0.0] * tiles
    dec_done_arr = [0.0] * tiles
    mtx_start_arr = [0.0] * tiles
    mem_free = 0.0
    dec_free = 0.0
    mtx_free = 0.0
    for i in range(tiles):
        hazard = 0.0 if i < n_loaders else complete[i - n_loaders]
        issue = hazard + invoke
        if prefetch_ahead and i >= window:
            # DECA's own prefetcher predicts future tiles and fetches ahead
            # of the TEPL issue, decoupling the fetch from the hazard.
            fetch_issue = dec_start[i - window]
            if issue < fetch_issue:
                fetch_issue = issue
        elif prefetch_ahead:
            fetch_issue = 0.0
        else:
            fetch_issue = issue
        start = fetch_issue if fetch_issue > mem_free else mem_free
        mem_free = start + service[i]
        mem_done = mem_free + exposed
        ready = issue + loader
        ds = mem_done if mem_done > dec_free else dec_free
        if ready > ds:
            ds = ready
        dec_start[i] = ds
        dec_done = ds + dec_list[i]
        dec_free = dec_done
        comp = dec_done + handoff
        complete[i] = comp
        mtx_start = comp if comp > mtx_free else mtx_free
        mtx_free = mtx_start + mtx
        fetch_issue_arr[i] = fetch_issue
        mem_done_arr[i] = mem_done
        dec_done_arr[i] = dec_done
        mtx_start_arr[i] = mtx_start
        done[i] = mtx_free
    return PipelineTrace(
        np.asarray(fetch_issue_arr), np.asarray(mem_done_arr),
        np.asarray(dec_start), np.asarray(dec_done_arr),
        np.asarray(mtx_start_arr), np.asarray(done),
    )


def _run_tepl_reference(
    channel: MemoryChannel,
    timing: KernelTiming,
    nbytes: np.ndarray,
    dec: np.ndarray,
) -> PipelineTrace:
    """Per-tile reference for the TEPL discipline (channel calls)."""
    tiles = len(nbytes)
    done = np.zeros(tiles)
    complete = np.zeros(tiles)
    dec_start = np.zeros(tiles)
    fetch_issue_arr = np.zeros(tiles)
    mem_done_arr = np.zeros(tiles)
    dec_done_arr = np.zeros(tiles)
    mtx_start_arr = np.zeros(tiles)
    dec_free = 0.0
    mtx_free = 0.0
    window = max(timing.prefetch_window, timing.n_loaders)
    prefetch_ahead = timing.prefetch_window > timing.n_loaders
    for i in range(tiles):
        hazard = 0.0 if i < timing.n_loaders else complete[i - timing.n_loaders]
        issue = hazard + timing.invoke_cycles
        if prefetch_ahead and i >= window:
            # DECA's own prefetcher predicts future tiles and fetches ahead
            # of the TEPL issue, decoupling the fetch from the hazard.
            fetch_issue = min(dec_start[i - window], issue)
        elif prefetch_ahead:
            fetch_issue = 0.0
        else:
            fetch_issue = issue
        mem_done = channel.request(
            fetch_issue, nbytes[i], timing.exposed_latency
        )
        dec_start[i] = max(
            mem_done, dec_free, issue + timing.loader_latency_cycles
        )
        dec_done = dec_start[i] + dec[i]
        dec_free = dec_done
        complete[i] = dec_done + timing.handoff_cycles
        mtx_start = max(complete[i], mtx_free)
        mtx_free = mtx_start + timing.mtx_cycles
        fetch_issue_arr[i] = fetch_issue
        mem_done_arr[i] = mem_done
        dec_done_arr[i] = dec_done
        mtx_start_arr[i] = mtx_start
        done[i] = mtx_free
    return PipelineTrace(
        fetch_issue_arr, mem_done_arr, dec_start, dec_done_arr,
        mtx_start_arr, done,
    )


_REFERENCE_ENGINES = {
    InvocationMode.OVERLAPPED: _run_overlapped_reference,
    InvocationMode.SERIALIZED: _run_serialized_reference,
    InvocationMode.TEPL: _run_tepl_reference,
}


def tile_stream_key(system: SimSystem, timing: KernelTiming, tiles: int):
    """The cache key :func:`simulate_tile_stream` files results under.

    Exposed so batched callers can probe the two-tier cache for a cell
    without recomputing the keying convention (the ``extra`` slot
    carries the ambient ``DRAM_EFFICIENCY`` calibration, exactly as the
    per-cell front door passes it).
    """
    return _simcache.simulation_key(system, timing, int(tiles), DRAM_EFFICIENCY)


def batch_group_key(timing: KernelTiming, tiles: int, dec=None):
    """The shape-compatibility class of one cell, or ``None``.

    Cells with equal keys can run as rows of one stacked engine pass:
    everything that steers *control flow* inside an engine — invocation
    mode, stream length, window geometry, which tiles decompress — must
    match across the stack, while per-cell magnitudes (byte counts,
    cycle costs, bandwidth shares, latencies) become per-row columns.
    ``None`` marks a cell the batched engines do not handle — every
    SERIALIZED cell (its plain-float loop is faster row by row than a
    stacked loop at the stack widths sweeps build) and an OVERLAPPED
    stream mixing dec and no-dec tiles; such cells take the per-cell
    path unchanged.
    """
    tiles = int(tiles)
    mode = timing.mode
    if mode is InvocationMode.SERIALIZED:
        return None
    if mode is InvocationMode.TEPL:
        return (mode.value, tiles, timing.prefetch_window, timing.n_loaders)
    if dec is None:
        raw = timing.dec_cycles
        if np.ndim(raw) == 0:
            # Scalar dec broadcasts uniformly: the class is decided
            # without materializing the per-tile array.
            active = tiles if float(raw) > 0.0 else 0
        else:
            active = int(np.count_nonzero(timing.tile_dec_cycles(tiles) > 0.0))
    else:
        active = int(np.count_nonzero(dec > 0.0))
    if active == tiles:
        dec_class = "all"
    elif active == 0:
        dec_class = "none"
    else:
        return None
    return (mode.value, tiles, timing.prefetch_window, dec_class)


def _shifted2(cum: np.ndarray) -> np.ndarray:
    """Row-wise exclusive prefix of an inclusive ``(cells, tiles)`` cumsum."""
    out = np.zeros_like(cum)
    out[:, 1:] = cum[:, :-1]
    return out


def _stack_tile_rows(timings, tiles: int, field: str) -> np.ndarray:
    """Stack one per-tile timing field across cells into ``(cells, tiles)``.

    Scalar fields fill their row directly (same float64 value the
    per-cell ``_broadcast`` would ``np.full``); per-tile arrays go
    through ``_broadcast`` itself, so each row matches the per-cell
    engine's input bit for bit.
    """
    out = np.empty((len(timings), tiles))
    for i, timing in enumerate(timings):
        value = getattr(timing, field)
        if np.ndim(value) == 0:
            out[i, :] = float(value)
        else:
            out[i, :] = _broadcast(value, tiles, field)
    return out


def _run_overlapped_batch(channels, timings, nbytes2, dec2):
    """The OVERLAPPED scans of :func:`_run_overlapped`, one pass per stage.

    Identical algebra with one leading ``cells`` axis: the cumsums and
    ``maximum.accumulate`` scans run along axis 1 of C-contiguous
    ``(cells, tiles)`` stacks (both are strictly sequential per row, so
    each row computes the per-cell engine's floats bit for bit), and the
    per-cell scalars enter as ``(cells, 1)`` columns whose broadcast
    applies the same elementwise IEEE ops. The fixed-point iteration
    converges per row; a row already at its fixed point recomputes
    identical values while slower rows catch up (the iteration map is
    idempotent there), and a row that exhausts the budget falls back to
    the exact per-tile reference, exactly like the per-cell engine.
    Returns one :class:`PipelineTrace` per row.
    """
    k, tiles = nbytes2.shape
    window = timings[0].prefetch_window
    # batch_group_key guarantees a uniform dec class across the stack.
    all_dec = bool(dec2[0, 0] > 0.0)
    exposed = np.array([
        t.exposed_latency * c.latency_cycles
        for t, c in zip(timings, channels)
    ])[:, None]
    bpc = np.array([c.bytes_per_cycle for c in channels])[:, None]
    if all_dec:
        overhead = np.array(
            [t.core_overhead_cycles for t in timings]
        )[:, None]
        dec_cum = np.cumsum(dec2 + overhead, axis=1)
        dec_cum_prev = _shifted2(dec_cum)
    mem_cum = np.cumsum(nbytes2 / bpc, axis=1)
    mem_cum_prev = _shifted2(mem_cum)
    # The fixed point converges per row at its own rate; rows are
    # independent, so a converged row's state is scattered into the
    # full-stack buffers and the iteration continues on the shrinking
    # active submatrix (fancy indexing copies rows verbatim, and every
    # scan is per-row sequential, so each row still computes the
    # per-cell engine's floats bit for bit).
    issue_full = np.zeros((k, tiles))
    mem_done_full = np.zeros((k, tiles))
    dec_start_full = np.zeros((k, tiles))
    dec_done_full = np.zeros((k, tiles))
    ok_full = np.zeros(k, dtype=bool)
    active = np.arange(k)
    issue = np.zeros((k, tiles))
    mcum, mprev, exp_col = mem_cum, mem_cum_prev, exposed
    if all_dec:
        dcum, dprev = dec_cum, dec_cum_prev
    for round_index in range(_OVERLAPPED_MAX_ROUNDS):
        if round_index == 0:
            mem_done = mcum + exp_col
        else:
            # In-place chain of the same ops: peak = accumulate(max(
            # issue - mprev, 0)), mem_done = (peak + mcum) + exp_col.
            peak = np.subtract(issue, mprev)
            np.maximum(peak, 0.0, out=peak)
            np.maximum.accumulate(peak, axis=1, out=peak)
            mem_done = peak
            mem_done += mcum
            mem_done += exp_col
        if all_dec:
            peak = np.subtract(mem_done, dprev)
            np.maximum(peak, 0.0, out=peak)
            np.maximum.accumulate(peak, axis=1, out=peak)
            dec_start = peak + dprev
            dec_done = peak + dcum
        else:
            dec_start = mem_done
            dec_done = mem_done
        new_issue = np.zeros_like(issue)
        if tiles > window:
            new_issue[:, window:] = dec_start[:, :-window]
        row_ok = np.all(new_issue == issue, axis=1)
        issue = new_issue
        if row_ok.any():
            done_rows = active[row_ok]
            issue_full[done_rows] = issue[row_ok]
            mem_done_full[done_rows] = mem_done[row_ok]
            dec_start_full[done_rows] = dec_start[row_ok]
            dec_done_full[done_rows] = dec_done[row_ok]
            ok_full[done_rows] = True
            if row_ok.all():
                break
            keep = ~row_ok
            active = active[keep]
            issue = issue[keep]
            mcum = mcum[keep]
            mprev = mprev[keep]
            exp_col = exp_col[keep]
            if all_dec:
                dcum = dcum[keep]
                dprev = dprev[keep]
    mtx = np.array([t.mtx_cycles for t in timings])[:, None]
    handoff = np.array([t.handoff_cycles for t in timings])[:, None]
    mtx_cum_prev = np.arange(tiles) * mtx
    mtx_cum = np.arange(1, tiles + 1) * mtx
    ready = dec_done_full + handoff
    peak = np.maximum.accumulate(
        np.maximum(ready - mtx_cum_prev, 0.0), axis=1
    )
    mtx_start = peak + mtx_cum_prev
    mtx_done = peak + mtx_cum
    traces = []
    for r in range(k):
        if ok_full[r]:
            # Contiguous row views: each trace owns its row logically
            # (the backing stacks are internal and never touched after
            # this point), so no per-row copies are needed — the rows
            # collectively hold exactly the per-cell arrays' bytes.
            traces.append(PipelineTrace(
                issue_full[r], mem_done_full[r],
                dec_start_full[r], dec_done_full[r],
                mtx_start[r], mtx_done[r],
            ))
        else:
            traces.append(_run_overlapped_reference(
                channels[r], timings[r], nbytes2[r], dec2[r]
            ))
    return traces


def _run_tepl_batch(channels, timings, nbytes2, dec2):
    """TEPL (Figure 10) for a ``(cells, tiles)`` stack: a checked closed form.

    When the stream is memory-bound, every ``max``/``min`` of
    :func:`_run_tepl` picks a branch known ahead of time: each fetch
    finds the channel busy, decompression waits for its data
    (``dec_start = mem_done``) and the TMUL for its handoff
    (``mtx_start = complete``). The loop's outputs are then array ops
    on the same IEEE operations: the channel's free time is a row-wise
    ``np.cumsum`` (a sequential running add, like the loop's) seeded
    with ``max(fetch[0], 0.0) + service[0]``, and the hazard feedback
    ``issue[i] = complete[i - n_loaders] + invoke`` is a shifted add.

    Each row is then checked elementwise: ``fetch[i] <= mem_free[i-1]``,
    ``mem_done[i] >= dec_done[i-1]``, ``mem_done[i] >= ready[i]`` and
    ``complete[i] >= done[i-1]``. A tie gives the same value under the
    loop's strict ``>`` and NaN fails, so by induction on ``i`` a row
    that passes is the loop's output bit for bit. A row that fails goes
    through :func:`_run_tepl`. ``prefetch_window`` and ``n_loaders`` are
    group-uniform; the other timing knobs are per-row columns.
    """
    k, tiles = nbytes2.shape

    def column(values):
        return np.array(values, dtype=float)[:, None]

    exposed = column([
        t.exposed_latency * c.latency_cycles
        for t, c in zip(timings, channels)
    ])
    invoke = column([t.invoke_cycles for t in timings])
    loader = column([t.loader_latency_cycles for t in timings])
    handoff = column([t.handoff_cycles for t in timings])
    mtx = column([t.mtx_cycles for t in timings])
    n_loaders = timings[0].n_loaders
    window = max(timings[0].prefetch_window, n_loaders)
    prefetch_ahead = timings[0].prefetch_window > n_loaders
    # Tiles below n_loaders issue at 0.0 + invoke; with prefetch-ahead
    # the first window fetches at 0.0, otherwise each fetch is its issue.
    first_issue = 0.0 + invoke
    first_fetch = np.zeros_like(invoke) if prefetch_ahead else first_issue
    mem_free = nbytes2 / column([c.bytes_per_cycle for c in channels])
    mem_free[:, :1] += np.where(first_fetch > 0.0, first_fetch, 0.0)
    np.cumsum(mem_free, axis=1, out=mem_free)
    mem_done = mem_free + exposed
    dec_done = mem_done + dec2
    complete = dec_done + handoff
    done = complete + mtx
    issue = np.empty_like(complete)
    issue[:, :n_loaders] = first_issue
    np.add(
        complete[:, :max(tiles - n_loaders, 0)], invoke,
        out=issue[:, n_loaders:],
    )
    if prefetch_ahead:
        fetch = np.empty_like(issue)
        fetch[:, :window] = 0.0
        np.minimum(
            mem_done[:, :max(tiles - window, 0)], issue[:, window:],
            out=fetch[:, window:],
        )
    else:
        fetch = issue
    ok = np.all(fetch[:, 1:] <= mem_free[:, :-1], axis=1)
    # The channel's free times are spent: their buffer takes ready.
    ready = np.add(issue, loader, out=mem_free)
    ok &= np.all(mem_done >= ready, axis=1)
    ok &= mem_done[:, 0] >= 0.0
    ok &= np.all(mem_done[:, 1:] >= dec_done[:, :-1], axis=1)
    ok &= complete[:, 0] >= 0.0
    ok &= np.all(complete[:, 1:] >= done[:, :-1], axis=1)
    # A verified row is row views of the stacks (dec_start is mem_done
    # and mtx_start is complete, value for value); the rest take the loop.
    return [
        PipelineTrace(
            fetch[r], mem_done[r], mem_done[r], dec_done[r], complete[r],
            done[r],
        ) if ok[r] else _run_tepl(channels[r], timings[r], nbytes2[r], dec2[r])
        for r in range(k)
    ]


def _run_tepl_cell(channel, timing, nbytes, dec):
    """One TEPL stream as a batch of one."""
    return _run_tepl_batch([channel], [timing], nbytes[None], dec[None])[0]


_ENGINES = {
    InvocationMode.OVERLAPPED: _run_overlapped,
    InvocationMode.SERIALIZED: _run_serialized,
    InvocationMode.TEPL: _run_tepl_cell,
}

_BATCH_ENGINES = {
    InvocationMode.OVERLAPPED: _run_overlapped_batch,
    InvocationMode.TEPL: _run_tepl_batch,
}


def _build_results_batch(group, nbytes2, dec2, traces):
    """Per-row :func:`_build_result`, with the reductions vectorized.

    Mirrors ``_build_result`` exactly — every scalar op per row is the
    same float arithmetic — but the two steady-window sums run once over
    the ``(cells, tiles)`` stacks instead of once per cell (each row
    slice is the same contiguous buffer the per-cell sum reduces, so
    the axis-wise pairwise sums are bit-identical per row).
    """
    k, tiles = nbytes2.shape
    half = tiles // 2
    denom = tiles - 1 - half
    mem_sums = np.sum(nbytes2[:, half + 1:], axis=1)
    dec_sums = np.sum(dec2[:, half + 1:], axis=1)
    done_last = np.empty(k)
    done_half = np.empty(k)
    for pos, trace in enumerate(traces):
        done = trace.mtx_done
        done_last[pos] = done[-1]
        done_half[pos] = done[half]
    # The same scalar arithmetic as _build_result, one vector op per
    # quantity (float64 elementwise ops match Python-float ops bit for
    # bit; np.minimum matches min() on finite operands).
    steady = (done_last - done_half) / denom
    if not np.all(steady > 0):
        raise SimulationError("non-positive steady-state interval")
    window = done_last - done_half
    raw_bpc = np.array([s.per_core_bytes_per_cycle() for s, _, _ in group])
    mtx_vec = np.array([t.mtx_cycles for _, t, _ in group])
    memory_u = np.minimum(1.0, (mem_sums / raw_bpc) / window)
    matrix_u = np.minimum(1.0, (mtx_vec * denom) / window)
    dec_u = np.minimum(1.0, dec_sums / window)
    results = []
    for pos, (system, timing, _) in enumerate(group):
        trace = traces[pos]
        report = UtilizationReport(
            memory=float(memory_u[pos]),
            matrix=float(matrix_u[pos]),
            decompress=float(dec_u[pos]),
        )
        for array in (
            trace.fetch_issue, trace.mem_done, trace.dec_start,
            trace.dec_done, trace.mtx_start, trace.mtx_done,
        ):
            array.setflags(write=False)
        results.append(SimResult(
            system=system,
            tiles=tiles,
            makespan_cycles=float(done_last[pos]),
            steady_interval_cycles=float(steady[pos]),
            utilization=report,
            trace=trace,
        ))
    return results


def simulate_tile_stream_batch(cells, use_cache: bool = True):
    """Simulate many ``(system, timing, tiles)`` cells, stacking compatible ones.

    The cross-cell batched front door: cells whose
    :func:`batch_group_key` matches are stacked on a leading ``cells``
    axis and drained through one vectorized engine pass per stage;
    incompatible cells, singleton groups, and (under
    ``FORCE_REFERENCE_ENGINE``) everything fall back to
    :func:`simulate_tile_stream`. Returns one entry per input cell, in
    input order: a :class:`SimResult` bit-identical to calling
    :func:`simulate_tile_stream` for that cell, or ``None`` for a cell
    this call did not compute (see below).

    With ``use_cache=True`` the call *seeds* the two-tier cache: cells
    already resident in memory or on disk, and duplicates of an earlier
    cell in the list, are skipped and come back as ``None``; every
    freshly batched row is fanned in under its cell's own
    :func:`tile_stream_key`, counting one miss and spilling to disk
    exactly like a per-cell compute. The callers' own per-cell lookups
    then touch each entry exactly once, so cache hit/disk-hit accounting
    stays identical to the unbatched sweep (a warm disk restart still
    reads 100% from disk, not 50/50 across a double lookup).
    """
    cells = list(cells)
    results: list = [None] * len(cells)
    if FORCE_REFERENCE_ENGINE:
        for idx, (system, timing, tiles) in enumerate(cells):
            results[idx] = simulate_tile_stream(
                system, timing, tiles, use_cache=use_cache
            )
        return results
    groups: dict = {}
    seen: set = set()
    keys: dict = {}
    for idx, (system, timing, tiles) in enumerate(cells):
        if tiles < 8:
            raise ConfigurationError(
                "need at least 8 tiles for a steady state"
            )
        if use_cache:
            key = tile_stream_key(system, timing, tiles)
            if key in seen or _simcache.simulation_cache_contains(key):
                continue
            seen.add(key)
            keys[idx] = key
        gkey = batch_group_key(timing, tiles)
        if gkey is None:
            results[idx] = simulate_tile_stream(
                system, timing, tiles, use_cache=use_cache
            )
            continue
        groups.setdefault(gkey, []).append(idx)
    for gkey, members in groups.items():
        if len(members) == 1:
            system, timing, tiles = cells[members[0]]
            results[members[0]] = simulate_tile_stream(
                system, timing, tiles, use_cache=use_cache
            )
            continue
        tiles = gkey[1]
        group = [cells[i] for i in members]
        timings = [t for _, t, _ in group]
        channels = [
            MemoryChannel(_effective_bytes_per_cycle(s, t), s.memory_latency)
            for s, t, _ in group
        ]
        nbytes2 = _stack_tile_rows(timings, tiles, "bytes_per_tile")
        dec2 = _stack_tile_rows(timings, tiles, "dec_cycles")
        if np.any(nbytes2 < 0):
            raise SimulationError("request size must be non-negative")
        traces = _BATCH_ENGINES[InvocationMode(gkey[0])](
            channels, timings, nbytes2, dec2
        )
        rows = _build_results_batch(group, nbytes2, dec2, traces)
        if use_cache:
            # Fan the rows back in under the keys probed during the
            # exclusion pass (one lock acquisition): each fresh key
            # counts one miss and spills to disk exactly as a per-cell
            # compute would.
            rows = _simcache.insert_simulation_results(
                [(keys[idx], rows[pos]) for pos, idx in enumerate(members)]
            )
        for pos, idx in enumerate(members):
            results[idx] = rows[pos]
    return results


def _multicore_setup(
    system: SimSystem,
    timing: KernelTiming,
    tiles_per_core: int,
    cores: Optional[int],
):
    """Validated shared inputs of the two multi-core engines.

    Returns ``(n_cores, nbytes, dec, server)``. Both engines must build
    their chain coordinates from these *identical* arrays — every float
    op downstream is then the same in both, which is what makes them
    bit-identical.
    """
    if timing.mode is not InvocationMode.OVERLAPPED:
        raise ConfigurationError(
            "the event backend models the OVERLAPPED discipline only"
        )
    if tiles_per_core < 2:
        raise ConfigurationError(
            "need at least 2 waves per core to measure a steady interval"
        )
    n_cores = cores if cores is not None else system.cores
    if n_cores < 1:
        raise ConfigurationError("cores must be >= 1")
    nbytes = timing.tile_bytes(tiles_per_core)
    dec = timing.tile_dec_cycles(tiles_per_core)
    if np.any(nbytes < 0):
        raise SimulationError("request size must be non-negative")
    cap = timing.demand_load_cap
    eff_bw = system.bytes_per_cycle() * DRAM_EFFICIENCY
    if cap is not None:
        eff_bw = min(eff_bw, cap * n_cores)
    server = MemoryChannel(eff_bw, system.memory_latency)
    return n_cores, nbytes, dec, server


def _multicore_chain_coords(timing: KernelTiming, dec: np.ndarray):
    """Global relative coordinates of the decompress and TMUL chains.

    ``dcum``/``dcum_prev`` are the cumsum of per-wave decompress costs
    over the *dec-active* subsequence (waves with ``dec > 0``; zero-dec
    waves pass memory data straight through). ``dec_pos[w]`` maps a wave
    to its position in that subsequence (-1 when inactive). The TMUL
    coordinates are exact multiples of ``mtx_cycles``, with the handoff
    pre-folded into ``hm`` (``handoff - w * mtx``) so the TMUL slack is
    one add. Both engines share these arrays, so the chain recurrences

        ``chain_done[w] = peak[w] + cum[w]``,
        ``peak[w] = max(peak[w-1], ready[w] - cum_prev[w])``

    evaluate the same floats whether advanced one wave at a time or as a
    ``maximum.accumulate`` over a whole block (``max`` is exact).
    """
    tiles = len(dec)
    dec_idx = np.flatnonzero(dec > 0.0)
    dec_cost = dec[dec_idx] + timing.core_overhead_cycles
    dcum = np.cumsum(dec_cost)
    dcum_prev = np.concatenate(([0.0], dcum[:-1]))
    dec_pos = np.full(tiles, -1)
    dec_pos[dec_idx] = np.arange(dec_idx.size)
    mtx_prev = np.arange(tiles) * timing.mtx_cycles
    hm = timing.handoff_cycles - mtx_prev
    mtx_cum = np.arange(1, tiles + 1) * timing.mtx_cycles
    return dec_pos, dcum, dcum_prev, hm, mtx_cum


def _multicore_blocked_matrices(
    system: SimSystem,
    timing: KernelTiming,
    tiles_per_core: int,
    cores: Optional[int],
    full: bool = False,
):
    """The window-blocked engine: per-wave matrices in one pass per block.

    Wave ``w``'s issue times are wave ``w - prefetch_window``'s
    ``dec_start`` — a fixed lag — so every wave in a block of at most
    ``window`` waves depends only on *previous* blocks. Each block is
    serviced as one ``(waves, cores)`` drain through the channel's
    :class:`~repro.sim.memory.WaveBlockScan` (requests ordered by issue
    time within each wave, waves in order — the same FIFO sequence the
    per-wave loop produces), and the per-core decompress/TMUL chains
    advance as a ``maximum.accumulate`` max-plus scan over the block's
    wave axis instead of elementwise per wave. Python-level work drops
    from O(tiles) to O(tiles / window) round-trips.

    All matrices are wave-major ``(tiles, cores)``. With ``full=False``
    only ``dec_start`` (the issue feedback) and ``done`` are recorded;
    ``full=True`` additionally fills ``mem_done`` and ``dec_done`` for
    the equivalence tests. Timestamps are bit-identical to
    :func:`_multicore_reference_matrices` either way.
    """
    n_cores, nbytes, dec, server = _multicore_setup(
        system, timing, tiles_per_core, cores
    )
    dec_pos, dcum, dcum_prev, hm, mtx_cum = _multicore_chain_coords(
        timing, dec
    )
    window = timing.prefetch_window
    block = min(window, tiles_per_core)
    scan = server.wave_scan(nbytes, n_cores, timing.exposed_latency)
    shape = (tiles_per_core, n_cores)
    mem = np.zeros(shape) if full else None
    dec_done = np.zeros(shape) if full else None
    dec_start = np.zeros(shape)
    done = np.zeros(shape)
    dpeak = np.zeros(n_cores)
    mpeak = np.zeros(n_cores)
    all_dec = int(dcum.size) == tiles_per_core
    no_dec = dcum.size == 0
    if dcum.size:
        # Per-wave chain coordinates (inactive waves index -1 and wrap;
        # those rows are never read — the chain skips them).
        dcum_prev_col = dcum_prev[dec_pos][:, None]
        dcum_col = dcum[dec_pos][:, None]
    else:
        dcum_prev_col = dcum_col = None
    hm_col = hm[:, None]
    mtx_cum_col = mtx_cum[:, None]
    for lo in range(0, tiles_per_core, block):
        hi = min(lo + block, tiles_per_core)
        if lo < window:
            # Only the first block (block <= window): every wave in it
            # issues at 0 — the fetch engine primes its whole window.
            issue_block = np.zeros((hi - lo, n_cores))
        else:
            issue_block = dec_start[lo - window:hi - window]
        # Order each wave's requests by issue time (stable in core
        # order, matching the event heap the scan replaces). Symmetric
        # streams are already sorted; skip the permutation machinery
        # then — stable argsort of a sorted row is the identity, so the
        # fast path is bit-identical, just cheaper.
        if (issue_block[:, :-1] <= issue_block[:, 1:]).all():
            mem_block = scan.drain(issue_block)
        else:
            order = np.argsort(issue_block, axis=1, kind="stable")
            served = scan.drain(
                np.take_along_axis(issue_block, order, axis=1)
            )
            mem_block = np.empty_like(served)
            np.put_along_axis(mem_block, order, served, axis=1)
        if full:
            mem[lo:hi] = mem_block
        # Decompress chain over the block's dec-active waves.
        if all_dec:
            slack = mem_block - dcum_prev_col[lo:hi]
            np.maximum(slack[0], dpeak, out=slack[0])
            np.maximum.accumulate(slack, axis=0, out=slack)
            dpeak = slack[-1]
            np.add(slack, dcum_prev_col[lo:hi], out=dec_start[lo:hi])
            dd_block = slack + dcum_col[lo:hi]
        elif no_dec:
            dec_start[lo:hi] = mem_block
            dd_block = mem_block
        else:
            active = np.flatnonzero(dec_pos[lo:hi] >= 0)
            dec_start[lo:hi] = mem_block
            if active.size == 0:
                dd_block = mem_block
            else:
                dd_block = mem_block.copy()
                slack = mem_block[active] - dcum_prev_col[lo:hi][active]
                np.maximum(slack[0], dpeak, out=slack[0])
                np.maximum.accumulate(slack, axis=0, out=slack)
                dpeak = slack[-1]
                dec_start[lo:hi][active] = slack + dcum_prev_col[lo:hi][active]
                dd_block[active] = slack + dcum_col[lo:hi][active]
        if full:
            dec_done[lo:hi] = dd_block
        # TMUL chain over the block: slack = (dd + handoff) - w*mtx,
        # pre-folded into one add via hm = handoff - w*mtx.
        np.add(dd_block, hm_col[lo:hi], out=dd_block)
        np.maximum(dd_block[0], mpeak, out=dd_block[0])
        np.maximum.accumulate(dd_block, axis=0, out=dd_block)
        mpeak = dd_block[-1]
        np.add(dd_block, mtx_cum_col[lo:hi], out=done[lo:hi])
    return n_cores, nbytes, dec, mem, dec_start, dec_done, done


def _multicore_reference_matrices(
    system: SimSystem,
    timing: KernelTiming,
    tiles_per_core: int,
    cores: Optional[int],
    full: bool = False,
):
    """The retained per-wave loop: one Python round-trip per wave.

    Evaluates the same recurrences as :func:`_multicore_blocked_matrices`
    one wave at a time, in the same global relative-coordinate algebra
    (shared precomputed cumsums, running peaks carried through exact
    ``max`` ops), so the two engines produce bit-identical timestamps —
    the golden model for the equivalence tests and the "before"
    measurement in ``benchmarks/perf``.
    """
    n_cores, nbytes, dec, server = _multicore_setup(
        system, timing, tiles_per_core, cores
    )
    dec_pos, dcum, dcum_prev, hm, mtx_cum = _multicore_chain_coords(
        timing, dec
    )
    window = timing.prefetch_window
    scan = server.wave_scan(nbytes, n_cores, timing.exposed_latency)
    shape = (tiles_per_core, n_cores)
    mem = np.zeros(shape) if full else None
    dec_done = np.zeros(shape) if full else None
    dec_start = np.zeros(shape)
    done = np.zeros(shape)
    dpeak = np.zeros(n_cores)
    mpeak = np.zeros(n_cores)
    zeros = np.zeros(n_cores)
    mem_done = np.empty(n_cores)
    for i in range(tiles_per_core):
        issue = zeros if i < window else dec_start[i - window]
        order = np.argsort(issue, kind="stable")
        mem_done[order] = scan.drain(issue[order][np.newaxis, :])[0]
        if full:
            mem[i] = mem_done
        j = dec_pos[i]
        if j >= 0:
            np.maximum(dpeak, mem_done - dcum_prev[j], out=dpeak)
            np.add(dpeak, dcum_prev[j], out=dec_start[i])
            dd = dpeak + dcum[j]
        else:
            dec_start[i] = mem_done
            dd = mem_done.copy()
        if full:
            dec_done[i] = dd
        np.maximum(mpeak, dd + hm[i], out=mpeak)
        np.add(mpeak, mtx_cum[i], out=done[i])
    return n_cores, nbytes, dec, mem, dec_start, dec_done, done


def _multicore_result(
    system: SimSystem,
    timing: KernelTiming,
    n_cores: int,
    nbytes: np.ndarray,
    dec: np.ndarray,
    done: np.ndarray,
) -> SimResult:
    tiles_per_core = done.shape[0]
    makespan = float(done[-1].max())
    half = min(tiles_per_core // 2, tiles_per_core - 2)
    steady = float(
        (done[-1].max() - done[half].max()) / (tiles_per_core - 1 - half)
    )
    window_cycles = makespan - float(done[half].max())
    if n_cores == system.machine.cores:
        per_core_system = system
    else:
        per_core_system = replace(
            system, machine=system.machine.with_cores(n_cores)
        )
    if window_cycles <= 0.0:
        # Degenerate zero-work window (every wave finishing at the same
        # instant): report idle resources rather than dividing by zero.
        report = UtilizationReport(memory=0.0, matrix=0.0, decompress=0.0)
    else:
        raw_total_bpc = system.bytes_per_cycle()
        mem_busy = float(np.sum(nbytes[half + 1:])) * n_cores / raw_total_bpc
        mtx_busy = timing.mtx_cycles * (tiles_per_core - 1 - half)
        dec_busy = float(np.sum(dec[half + 1:]))
        report = UtilizationReport(
            memory=min(1.0, mem_busy / window_cycles),
            matrix=min(1.0, mtx_busy / window_cycles),
            decompress=min(1.0, dec_busy / window_cycles),
        )
    return SimResult(
        system=per_core_system,
        tiles=tiles_per_core,
        makespan_cycles=makespan,
        steady_interval_cycles=steady,
        utilization=report,
    )


def simulate_multicore_event(
    system: SimSystem,
    timing: KernelTiming,
    tiles_per_core: int = 200,
    cores: Optional[int] = None,
) -> SimResult:
    """Exact multi-core event simulation (OVERLAPPED mode only).

    Every core runs its own tile stream against one shared FIFO bandwidth
    server. Used to validate the fair-share single-core approximation; the
    two backends agree to within a fraction of a percent for symmetric
    streams.

    Fetches are issued round-robin in waves of one tile per core so the
    shared server sees interleaved traffic like real banked memory would.
    Waves are processed in *blocks* of up to ``prefetch_window`` waves:
    a wave's issue times lag ``dec_start`` by exactly the window, so a
    whole block's ``(waves × cores)`` requests are known up front, are
    drained through one vectorized FIFO scan, and the per-core
    decompress/TMUL chains advance as a max-plus scan over the block
    (see :func:`_multicore_blocked_matrices`). The retained per-wave
    loop, :func:`simulate_multicore_event_reference`, computes
    bit-identical timestamps and is the golden model in the tests.
    """
    if FORCE_REFERENCE_ENGINE:
        return simulate_multicore_event_reference(
            system, timing, tiles_per_core, cores
        )
    n_cores, nbytes, dec, _, _, _, done = _multicore_blocked_matrices(
        system, timing, tiles_per_core, cores
    )
    return _multicore_result(system, timing, n_cores, nbytes, dec, done)


def simulate_multicore_event_reference(
    system: SimSystem,
    timing: KernelTiming,
    tiles_per_core: int = 200,
    cores: Optional[int] = None,
) -> SimResult:
    """Run the retained per-wave multi-core loop (the golden model)."""
    n_cores, nbytes, dec, _, _, _, done = _multicore_reference_matrices(
        system, timing, tiles_per_core, cores
    )
    return _multicore_result(system, timing, n_cores, nbytes, dec, done)
