"""Bit-identity of the cross-cell batched engines vs the per-cell path.

The batched entry points promise *bit-identical* results to calling the
per-cell simulators cell by cell — same floats, same frozen traces, same
cache counter movement. These tests sweep an equivalence matrix across
heterogeneous systems, invocation modes, window geometries, per-tile
array timings, partial cache hits, and the escape hatches.
"""

import numpy as np
import pytest

from repro.core.schemes import PAPER_SCHEMES
from repro.deca.integration import FULL_INTEGRATION, deca_kernel_timing
from repro.errors import ConfigurationError
from repro.kernels.libxsmm import software_kernel_timing
from repro.sim import pipeline as pipeline_module
from repro.sim.cache import (
    clear_simulation_cache,
    results_bit_equal,
    simulation_cache_stats,
)
from repro.sim.pipeline import (
    InvocationMode,
    KernelTiming,
    batch_group_key,
    simulate_tile_stream,
    simulate_tile_stream_batch,
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
    def test_serialized_keys_on_mode_and_tiles(self):
        one = batch_group_key(
            _timing(mode=InvocationMode.SERIALIZED, prefetch_window=2), 48
        )
        two = batch_group_key(
            _timing(mode=InvocationMode.SERIALIZED, prefetch_window=30), 48
        )
        assert one == two  # serialized has no window feedback

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
        # Warm cells are served from cache (one hit each), cold cells
        # are computed (one miss each).
        assert after.hits == before.hits + 2
        assert after.misses == before.misses + 2
        assert batched[0] is warm[0]
        assert batched[2] is warm[1]

    def test_duplicate_cells_compute_once(self, hbm):
        timing = _timing(bytes_per_tile=640.0)
        other = _timing(bytes_per_tile=320.0)
        cells = [(hbm, timing, 48), (hbm, other, 48), (hbm, timing, 48)]
        clear_simulation_cache()
        batched = simulate_tile_stream_batch(cells)
        stats = simulation_cache_stats()
        assert stats.misses == 2
        assert stats.hits == 1
        assert batched[0] is batched[2]
        assert results_bit_equal(
            batched[0], simulate_tile_stream(hbm, timing, 48)
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
