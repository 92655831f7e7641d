"""Bit-identity of the cross-cell batched engines vs the per-cell path.

The batched entry points promise *bit-identical* results to calling the
per-cell simulators cell by cell — same floats, same frozen traces, same
cache counter movement. These tests sweep an equivalence matrix across
heterogeneous systems, invocation modes, window geometries, per-tile
array timings, partial cache hits, and the reference-engine escape.
"""

import numpy as np
import pytest

from repro.core.schemes import PAPER_SCHEMES
from repro.deca.integration import (
    FULL_INTEGRATION,
    INTEGRATION_LADDER,
    deca_kernel_timing,
)
from repro.errors import ConfigurationError
from repro.kernels.libxsmm import software_kernel_timing
from repro.sim import pipeline as pipeline_module
from repro.sim.cache import (
    clear_simulation_cache,
    results_bit_equal,
    simulation_cache_stats,
)
from repro.sim.memory import MemoryChannel
from repro.sim.pipeline import (
    InvocationMode,
    KernelTiming,
    _effective_bytes_per_cycle,
    _run_tepl_batch,
    _run_tepl_reference,
    _stack_tile_rows,
    batch_group_key,
    simulate_tile_stream,
    simulate_tile_stream_batch,
    simulate_tile_stream_reference,
)
from repro.sim.system import ddr_system, hbm_system


def _timing(**kwargs) -> KernelTiming:
    defaults = dict(bytes_per_tile=512.0, dec_cycles=32.0)
    defaults.update(kwargs)
    return KernelTiming(**defaults)


def _assert_batch_matches_per_cell(cells, use_cache=True):
    clear_simulation_cache()
    per = [
        simulate_tile_stream(s, t, n, use_cache=use_cache)
        for s, t, n in cells
    ]
    clear_simulation_cache()
    batched = simulate_tile_stream_batch(cells, use_cache=use_cache)
    assert len(batched) == len(cells)
    for one, two in zip(per, batched):
        assert results_bit_equal(one, two)
    return batched


class TestTileStreamEquivalence:
    def test_paper_grid_mixed_modes(self, hbm, ddr):
        # Heterogeneous systems x schemes x engines: software OVERLAPPED
        # cells and DECA TEPL cells in one call, several stack groups.
        cells = []
        for system in (hbm, ddr):
            for scheme in PAPER_SCHEMES[:4]:
                cells.append(
                    (system, software_kernel_timing(system, scheme), 96)
                )
                cells.append((
                    system,
                    deca_kernel_timing(
                        system, scheme, config=None,
                        integration=FULL_INTEGRATION,
                    ),
                    96,
                ))
        _assert_batch_matches_per_cell(cells)

    def test_paper_grid_uncached(self, hbm, ddr):
        cells = [
            (system, software_kernel_timing(system, scheme), 64)
            for system in (hbm, ddr)
            for scheme in PAPER_SCHEMES[:3]
        ]
        _assert_batch_matches_per_cell(cells, use_cache=False)

    @pytest.mark.parametrize("mode", list(InvocationMode))
    def test_single_mode_stack(self, hbm, ddr, mode):
        cells = [
            (system, _timing(
                mode=mode,
                bytes_per_tile=bpt,
                dec_cycles=dec,
                handoff_cycles=ho,
                invoke_cycles=2.0,
                fence_cycles=1.5,
            ), 48)
            for system in (hbm, ddr)
            for bpt, dec, ho in (
                (256.0, 24.0, 1.0), (2048.0, 8.0, 0.0), (64.0, 90.0, 3.0),
            )
        ]
        _assert_batch_matches_per_cell(cells)

    def test_no_dec_overlapped_stack(self, hbm, ddr):
        cells = [
            (system, _timing(dec_cycles=0.0, bytes_per_tile=bpt), 48)
            for system in (hbm, ddr)
            for bpt in (128.0, 1024.0, 4096.0)
        ]
        _assert_batch_matches_per_cell(cells)

    def test_window_variations_split_groups(self, hbm):
        # Three window sizes: three separate stacks, all bit-identical.
        cells = [
            (hbm, _timing(prefetch_window=window, bytes_per_tile=bpt), 48)
            for window in (2, 8, 24)
            for bpt in (256.0, 1024.0)
        ]
        _assert_batch_matches_per_cell(cells)

    def test_per_tile_array_timings(self, hbm, ddr, rng):
        # Per-tile byte/dec arrays stack like scalars (rows are the
        # broadcast arrays).
        tiles = 48
        cells = []
        for system in (hbm, ddr):
            for _ in range(3):
                cells.append((system, _timing(
                    bytes_per_tile=rng.uniform(64.0, 2048.0, tiles),
                    dec_cycles=rng.uniform(1.0, 60.0, tiles),
                ), tiles))
        _assert_batch_matches_per_cell(cells)

    def test_mixed_dec_cells_fall_back_per_cell(self, hbm):
        # An OVERLAPPED stream mixing dec and no-dec tiles has no batch
        # class; it must still come back bit-identical via the per-cell
        # engine, alongside batchable neighbours.
        mixed_dec = np.zeros(48)
        mixed_dec[::2] = 40.0
        cells = [
            (hbm, _timing(dec_cycles=mixed_dec.copy()), 48),
            (hbm, _timing(bytes_per_tile=256.0), 48),
            (hbm, _timing(bytes_per_tile=1024.0), 48),
        ]
        _assert_batch_matches_per_cell(cells)

    def test_singleton_groups_fall_back_per_cell(self, hbm):
        cells = [
            (hbm, _timing(prefetch_window=2), 48),
            (hbm, _timing(prefetch_window=9), 48),
        ]
        _assert_batch_matches_per_cell(cells)

    def test_serialized_uses_reference_loop_costs(self, hbm, ddr):
        cells = [
            (system, _timing(
                mode=InvocationMode.SERIALIZED,
                invoke_cycles=3.0, fence_cycles=2.0,
                handoff_cycles=1.0, loader_latency_cycles=4.0,
                bytes_per_tile=bpt,
            ), 48)
            for system in (hbm, ddr)
            for bpt in (128.0, 512.0, 2048.0)
        ]
        _assert_batch_matches_per_cell(cells)

    def test_traces_frozen_read_only(self, hbm):
        cells = [
            (hbm, _timing(bytes_per_tile=bpt), 48)
            for bpt in (256.0, 512.0, 1024.0)
        ]
        clear_simulation_cache()
        for result in simulate_tile_stream_batch(cells):
            trace = result.trace
            for array in (
                trace.fetch_issue, trace.mem_done, trace.dec_start,
                trace.dec_done, trace.mtx_start, trace.mtx_done,
            ):
                assert not array.flags.writeable

    def test_too_few_tiles_rejected(self, hbm):
        with pytest.raises(ConfigurationError):
            simulate_tile_stream_batch([(hbm, _timing(), 4)])

    def test_force_reference_engine_routes_per_cell(self, hbm):
        cells = [
            (hbm, _timing(bytes_per_tile=bpt), 48)
            for bpt in (256.0, 512.0, 1024.0)
        ]
        clear_simulation_cache()
        reference = [simulate_tile_stream(s, t, n) for s, t, n in cells]
        pipeline_module.FORCE_REFERENCE_ENGINE = True
        try:
            clear_simulation_cache()
            forced = simulate_tile_stream_batch(cells)
        finally:
            pipeline_module.FORCE_REFERENCE_ENGINE = False
        for one, two in zip(reference, forced):
            assert results_bit_equal(one, two)


class TestBatchGroupKey:
    def test_serialized_keys_on_mode_and_tiles(self, hbm, ddr):
        # SERIALIZED cells have no stacked engine: every one is keyed
        # None and takes the per-cell plain-float loop.
        for window in (2, 30):
            timing = _timing(
                mode=InvocationMode.SERIALIZED, prefetch_window=window
            )
            assert batch_group_key(timing, 48) is None
        # Figure 17's ladder mixes SERIALIZED rungs with the TEPL one;
        # through the batched front door every cell still matches the
        # per-cell result, and the SERIALIZED traces match the reference.
        cells = [
            (system, deca_kernel_timing(
                system, scheme, config=None, integration=integration,
            ), 96)
            for system in (hbm, ddr)
            for scheme in PAPER_SCHEMES[:3]
            for integration in INTEGRATION_LADDER
        ]
        modes = {t.mode for _, t, _ in cells}
        assert modes == {InvocationMode.SERIALIZED, InvocationMode.TEPL}
        batched = _assert_batch_matches_per_cell(cells)
        serialized = 0
        for (system, timing, tiles), result in zip(cells, batched):
            if timing.mode is InvocationMode.SERIALIZED:
                serialized += 1
                reference = simulate_tile_stream_reference(
                    system, timing, tiles
                )
                assert results_bit_equal(result.trace, reference.trace)
                assert result.makespan_cycles == reference.makespan_cycles
        assert serialized == 24

    def test_tepl_keys_on_window_and_loaders(self):
        base = _timing(mode=InvocationMode.TEPL)
        assert batch_group_key(base, 48) != batch_group_key(
            _timing(mode=InvocationMode.TEPL, n_loaders=4), 48
        )

    def test_overlapped_keys_on_dec_class(self):
        with_dec = batch_group_key(_timing(dec_cycles=32.0), 48)
        no_dec = batch_group_key(_timing(dec_cycles=0.0), 48)
        assert with_dec != no_dec

    def test_mixed_dec_has_no_class(self):
        mixed = np.zeros(48)
        mixed[0] = 5.0
        assert batch_group_key(_timing(dec_cycles=mixed), 48) is None

    def test_tile_counts_never_alias(self):
        assert batch_group_key(_timing(), 48) != batch_group_key(
            _timing(), 64
        )


class TestCacheInterplay:
    def test_counter_parity_with_per_cell(self, hbm, ddr):
        cells = [
            (system, software_kernel_timing(system, scheme), 64)
            for system in (hbm, ddr)
            for scheme in PAPER_SCHEMES[:3]
        ]
        clear_simulation_cache()
        for system, timing, tiles in cells:
            simulate_tile_stream(system, timing, tiles)
        per_stats = simulation_cache_stats()
        clear_simulation_cache()
        simulate_tile_stream_batch(cells)
        batch_stats = simulation_cache_stats()
        assert batch_stats.hits == per_stats.hits
        assert batch_stats.misses == per_stats.misses
        assert batch_stats.size == per_stats.size

    def test_partial_warm_cache_excluded_from_stack(self, hbm):
        cells = [
            (hbm, _timing(bytes_per_tile=bpt), 48)
            for bpt in (256.0, 512.0, 1024.0, 2048.0)
        ]
        clear_simulation_cache()
        warm = [
            simulate_tile_stream(*cells[0]),
            simulate_tile_stream(*cells[2]),
        ]
        before = simulation_cache_stats()
        batched = simulate_tile_stream_batch(cells)
        after = simulation_cache_stats()
        # Warm cells are skipped untouched (no hit: the caller's own
        # lookup counts it) and come back as None; cold cells are
        # computed (one miss each).
        assert after.hits == before.hits
        assert after.misses == before.misses + 2
        assert batched[0] is None and batched[2] is None
        assert simulate_tile_stream(*cells[0]) is warm[0]
        assert simulate_tile_stream(*cells[2]) is warm[1]
        for idx in (1, 3):
            assert simulate_tile_stream(*cells[idx]) is batched[idx]

    def test_duplicate_cells_compute_once(self, hbm):
        timing = _timing(bytes_per_tile=640.0)
        other = _timing(bytes_per_tile=320.0)
        cells = [(hbm, timing, 48), (hbm, other, 48), (hbm, timing, 48)]
        clear_simulation_cache()
        batched = simulate_tile_stream_batch(cells)
        stats = simulation_cache_stats()
        assert stats.misses == 2
        assert stats.hits == 0
        # The duplicate is left for the caller's lookup, which hits.
        assert batched[2] is None
        assert simulate_tile_stream(hbm, timing, 48) is batched[0]
        assert results_bit_equal(
            batched[0], simulate_tile_stream(hbm, timing, 48, use_cache=False)
        )

    def test_batched_results_serve_later_per_cell_calls(self, hbm):
        cells = [
            (hbm, _timing(bytes_per_tile=bpt), 48)
            for bpt in (300.0, 700.0)
        ]
        clear_simulation_cache()
        batched = simulate_tile_stream_batch(cells)
        for (system, timing, tiles), row in zip(cells, batched):
            assert simulate_tile_stream(system, timing, tiles) is row

    def test_use_cache_false_leaves_cache_untouched(self, hbm):
        cells = [
            (hbm, _timing(bytes_per_tile=bpt), 48)
            for bpt in (300.0, 700.0)
        ]
        clear_simulation_cache()
        simulate_tile_stream_batch(cells, use_cache=False)
        stats = simulation_cache_stats()
        assert stats.hits == 0
        assert stats.misses == 0
        assert stats.size == 0


def _paper_tepl_cells(systems, tiles):
    """The DECA (full integration, TEPL) cells of the paper's grid."""
    return [
        (system, deca_kernel_timing(
            system, scheme, config=None, integration=FULL_INTEGRATION,
        ), tiles)
        for system in systems
        for scheme in PAPER_SCHEMES
    ]


@pytest.fixture
def tepl_fallbacks(monkeypatch):
    """Count the rows the TEPL kernel hands to the per-tile loop."""
    calls = []
    loop = pipeline_module._run_tepl

    def counting(channel, timing, nbytes, dec):
        calls.append(timing)
        return loop(channel, timing, nbytes, dec)

    monkeypatch.setattr(pipeline_module, "_run_tepl", counting)
    return calls


def _assert_tepl_rows_match_reference(channels, timings, nbytes2, dec2):
    """Run one stack through the kernel; every row must equal the oracle."""
    traces = _run_tepl_batch(channels, timings, nbytes2, dec2)
    assert len(traces) == len(timings)
    for row, trace in enumerate(traces):
        channel = channels[row]
        reference = _run_tepl_reference(
            MemoryChannel(channel.bytes_per_cycle, channel.latency_cycles),
            timings[row], nbytes2[row], dec2[row],
        )
        assert results_bit_equal(trace, reference), row
    return traces


def _assert_cells_match_reference(cells):
    timings = [t for _, t, _ in cells]
    tiles = cells[0][2]
    channels = [
        MemoryChannel(_effective_bytes_per_cycle(s, t), s.memory_latency)
        for s, t, _ in cells
    ]
    return _assert_tepl_rows_match_reference(
        channels, timings,
        _stack_tile_rows(timings, tiles, "bytes_per_tile"),
        _stack_tile_rows(timings, tiles, "dec_cycles"),
    )


def _unit_stack(rows, tiles=64, prefetch_window=4, n_loaders=2):
    """A TEPL stack on integral costs, so every sum is exact.

    ``rows`` holds ``(service, latency, exposed, dec, handoff, invoke,
    loader, mtx)`` per row on a one-byte-per-cycle channel.
    """
    channels, timings = [], []
    for service, latency, exposed, dec, handoff, invoke, loader, mtx in rows:
        channels.append(MemoryChannel(1.0, latency))
        timings.append(KernelTiming(
            bytes_per_tile=service, dec_cycles=dec, mtx_cycles=mtx,
            mode=InvocationMode.TEPL, handoff_cycles=handoff,
            invoke_cycles=invoke, loader_latency_cycles=loader,
            exposed_latency=exposed, prefetch_window=prefetch_window,
            n_loaders=n_loaders,
        ))
    return (
        channels, timings,
        _stack_tile_rows(timings, tiles, "bytes_per_tile"),
        _stack_tile_rows(timings, tiles, "dec_cycles"),
    )


class TestTeplClosedForm:
    """The checked closed form against the per-tile reference loop."""

    @pytest.mark.parametrize("tiles", [64, 600, 4800])
    @pytest.mark.parametrize("system_factory", [hbm_system, ddr_system])
    def test_paper_grid_bit_identical(
        self, system_factory, tiles, tepl_fallbacks
    ):
        cells = _paper_tepl_cells([system_factory()], tiles)
        _assert_cells_match_reference(cells)
        # Every paper cell but one verifies; only the loop fallback runs
        # per tile.
        assert len(tepl_fallbacks) <= 1

    def test_hazard_bound_row_falls_back(self, hbm, tepl_fallbacks):
        # Q8_5% on HBM: so few bytes per tile that the two-loader hazard,
        # not the channel, paces the TEPLs.
        cells = [
            cell for cell in _paper_tepl_cells([hbm], 600)
            if cell[1].bytes_per_tile == 89.6
        ]
        assert len(cells) == 1
        traces = _assert_cells_match_reference(cells)
        assert len(tepl_fallbacks) == 1
        trace = traces[0]
        # Decompression waits for the issue + loader turnaround, not data.
        assert np.any(trace.dec_start > trace.mem_done)

    def test_boundary_ties_verify(self, tepl_fallbacks):
        # Each row sits exactly on one branch boundary of the loop on
        # integral costs: a tie picks the same value either way, so the
        # row must verify (no fallback) and still match bit for bit.
        # (service, latency, exposed, dec, handoff, invoke, loader, mtx)
        rows = [
            (20.0, 10.0, 0.0, 20.0, 0.0, 0.0, 0.0, 16.0),  # mem_done == dec_free
            (20.0, 10.0, 0.0, 10.0, 10.0, 10.0, 10.0, 16.0),  # mem_done == ready
            (20.0, 60.0, 1.0, 4.0, 1.0, 1.0, 1.0, 16.0),  # fetch == mem_free
            (16.0, 10.0, 0.0, 4.0, 1.0, 1.0, 1.0, 16.0),  # complete == done[i-1]
        ]
        stack = _unit_stack(rows)
        traces = _assert_tepl_rows_match_reference(*stack)
        assert tepl_fallbacks == []
        dec_tie, ready_tie, fetch_tie, mtx_tie = traces
        assert np.any(dec_tie.mem_done[1:] == dec_tie.dec_done[:-1])
        ready = (
            ready_tie.mtx_start[:-2] + 10.0 + 10.0  # complete + invoke + loader
        )
        assert np.any(ready_tie.mem_done[2:] == ready)
        mem_free = fetch_tie.mem_done - 60.0
        assert np.any(fetch_tie.fetch_issue[1:] == mem_free[:-1])
        assert np.any(mtx_tie.mtx_start[1:] == mtx_tie.mtx_done[:-1])

    @pytest.mark.parametrize("prefetch_window,row", [
        # Decompression is slower than the channel: dec_free binds.
        (4, (20.0, 10.0, 0.0, 30.0, 1.0, 1.0, 1.0, 16.0)),
        # Two TEPLs' turnaround outlasts two tiles of transfer: ready binds.
        (4, (20.0, 10.0, 0.0, 10.0, 10.0, 10.0, 20.0, 16.0)),
        # The TMUL is slower than the channel: done[i-1] binds.
        (4, (10.0, 10.0, 0.0, 4.0, 1.0, 1.0, 1.0, 16.0)),
        # Without prefetch-ahead the issue comes after the channel frees.
        (2, (20.0, 10.0, 1.0, 5.0, 5.0, 5.0, 1.0, 16.0)),
    ])
    def test_each_check_alone_forces_fallback(
        self, prefetch_window, row, tepl_fallbacks
    ):
        # Every row breaks exactly one branch condition, so dropping
        # that check would verify a wrong closed form.
        stack = _unit_stack([row], prefetch_window=prefetch_window)
        _assert_tepl_rows_match_reference(*stack)
        assert len(tepl_fallbacks) == 1

    @pytest.mark.parametrize("prefetch_window,n_loaders", [(2, 2), (1, 3)])
    def test_no_prefetch_ahead(
        self, prefetch_window, n_loaders, tepl_fallbacks
    ):
        # prefetch_window <= n_loaders: every fetch is its own issue, and
        # tile 0's fetch at ``invoke`` seeds the channel.
        rows = [
            (60.0, 10.0, 0.5, 8.0, 4.0, 2.0, 3.0, 16.0),  # memory-bound
            (8.0, 40.0, 1.0, 30.0, 12.0, 2.0, 10.0, 16.0),  # hazard-bound
        ]
        stack = _unit_stack(
            rows, prefetch_window=prefetch_window, n_loaders=n_loaders,
        )
        _assert_tepl_rows_match_reference(*stack)
        assert [t.bytes_per_tile for t in tepl_fallbacks] == [8.0]

    def test_mixed_stack(self, hbm, ddr, tepl_fallbacks):
        # Paper cells that verify stacked with rows that cannot: the
        # fallback rows take the loop, their neighbours keep the stack.
        cells = _paper_tepl_cells([hbm, ddr], 600)
        cells += [
            (system, _timing(
                mode=InvocationMode.TEPL, bytes_per_tile=16.0,
                dec_cycles=60.0, invoke_cycles=2.0, handoff_cycles=12.0,
                loader_latency_cycles=10.0, prefetch_window=24,
            ), 600)
            for system in (hbm, ddr)
        ]
        _assert_cells_match_reference(cells)
        assert 0 < len(tepl_fallbacks) < len(cells)
        assert len(tepl_fallbacks) == 3

    def test_batch_of_one(self, hbm, ddr, tepl_fallbacks):
        for system in (hbm, ddr):
            for _, timing, _ in _paper_tepl_cells([system], 96)[:4]:
                one = simulate_tile_stream(system, timing, 96, use_cache=False)
                ref = simulate_tile_stream_reference(system, timing, 96)
                assert results_bit_equal(one.trace, ref.trace)
                assert one.makespan_cycles == ref.makespan_cycles
        assert tepl_fallbacks == []

    def test_memory_bound_paper_cells_never_run_the_loop(
        self, hbm, ddr, monkeypatch
    ):
        # Guard against a regression to "always fall back": the loop
        # raises, so any memory-bound paper cell reaching it fails.
        def loop_forbidden(*args):
            raise AssertionError("memory-bound TEPL cell ran the tile loop")

        cells = [
            cell for cell in _paper_tepl_cells([hbm, ddr], 600)
            if not (cell[0] is hbm and cell[1].bytes_per_tile == 89.6)
        ]
        assert len(cells) == 23
        monkeypatch.setattr(pipeline_module, "_run_tepl", loop_forbidden)
        clear_simulation_cache()
        simulate_tile_stream_batch(cells, use_cache=False)
        for system, timing, tiles in cells[:4]:
            simulate_tile_stream(system, timing, tiles, use_cache=False)
