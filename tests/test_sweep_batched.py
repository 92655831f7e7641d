"""Routing-layer tests for cross-cell batched sweep execution.

The engine-level bit-identity of ``simulate_tile_stream_batch`` is
covered by ``test_sim_batched.py``; these tests pin the *routing*: a
``SweepSpec`` carrying a :func:`batchable` annotation must produce
exactly the records, ordering, emission rows, and cache behaviour of
the per-cell path — with batching observable only through cache
counters — and ``batch=False``, the one way to turn it off, must
actually disable it. Every registered scenario is checked both ways.
"""

import io

import pytest

from repro.experiments.grid import grid_spec, run_grid
from repro.experiments.parallel import fork_available
from repro.experiments.speedups import sweep_speedups
from repro.experiments.sweepspec import (
    JsonlEmitter,
    batching_enabled,
    get_scenario,
    scenario_names,
    stream_to_emitter,
)
from repro.sim.cache import clear_simulation_cache, simulation_cache_stats
from repro.sim.system import hbm_system


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Every test starts and ends with an empty simulation cache."""
    clear_simulation_cache()
    yield
    clear_simulation_cache()


def _grid_records(batch, tiles=64, jobs=1):
    clear_simulation_cache()
    return run_grid(tiles=tiles, jobs=jobs, batch=batch)


class TestBatchingFlag:
    def test_default_enabled(self):
        assert batching_enabled() is True
        # ``None`` (what a wrapper passing the argument through sends)
        # reads as the default; only a false value turns batching off.
        assert batching_enabled(None) is True
        assert batching_enabled(False) is False


class TestGridRouting:
    def test_batched_records_bit_identical(self):
        batched = _grid_records(batch=True)
        per_cell = _grid_records(batch=False)
        assert batched == per_cell
        assert len(batched) == 48

    def test_batching_seeds_the_cache(self):
        """Batch-on: every task lookup is a warm hit of the seeded stack."""
        _grid_records(batch=True)
        stats = simulation_cache_stats()
        assert stats.misses == 48
        assert stats.hits == 48

    def test_per_cell_path_has_no_warm_hits(self):
        _grid_records(batch=False)
        stats = simulation_cache_stats()
        assert stats.misses == 48
        assert stats.hits == 0

    def test_stream_preserves_index_order_and_coords(self):
        spec = grid_spec(tiles=64)
        coords = spec.coords()
        cells = list(spec.stream(jobs=1, batch=True))
        assert [c.index for c in cells] == list(range(len(coords)))
        assert [c.coords for c in cells] == coords

    def test_uncached_cells_fall_through(self):
        """use_cache=False cells declare no sims: per-cell path, zero stats."""
        records = run_grid(tiles=64, use_cache=False, batch=True)
        stats = simulation_cache_stats()
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)
        clear_simulation_cache()
        assert records == run_grid(tiles=64, use_cache=False, batch=False)

    def test_partial_warm_cache(self):
        """Cells already resident stay out of the stack but still stream."""
        warm = run_grid(schemes=grid_spec().axes["scheme"][:3], tiles=64,
                        batch=False)
        full = run_grid(tiles=64, batch=True)
        assert full[:0] == []  # shape sanity
        clear_simulation_cache()
        assert full == run_grid(tiles=64, batch=False)
        assert len(warm) == 12


class TestSpeedupRouting:
    def test_batched_speedups_bit_identical(self):
        clear_simulation_cache()
        batched = sweep_speedups(hbm_system(), tiles=64, batch=True)
        clear_simulation_cache()
        per_cell = sweep_speedups(hbm_system(), tiles=64, batch=False)
        assert batched == per_cell
        assert len(batched) == 12


class TestScenarioRouting:
    @pytest.mark.parametrize("name", scenario_names())
    def test_batched_matches_per_cell(self, name):
        """Every registered scenario: same rows and output either way."""
        spec = get_scenario(name).build()
        runs = []
        for batch in (True, False):
            clear_simulation_cache()
            buf = io.StringIO()
            output = stream_to_emitter(
                spec, JsonlEmitter(buf), jobs=1, batch=batch
            )
            runs.append((buf.getvalue(), output, spec.render(output)))
        assert runs[0] == runs[1]
        assert len(runs[0][0].splitlines()) >= spec.cell_count


class TestParallelRouting:
    @pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
    def test_chunked_pool_matches_serial(self):
        spec = grid_spec(tiles=64)
        clear_simulation_cache()
        serial = [(c.index, c.value) for c in spec.stream(jobs=1, batch=False)]
        clear_simulation_cache()
        batched = [(c.index, c.value) for c in spec.stream(jobs=2, batch=True)]
        assert batched == serial

    @pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
    def test_chunked_pool_reports_progress(self):
        spec = grid_spec(tiles=64)
        calls = []
        clear_simulation_cache()
        list(spec.stream(jobs=2, batch=True,
                         progress=lambda done, total: calls.append((done, total))))
        assert calls and calls[-1] == (48, 48)
        assert [done for done, _ in calls] == sorted(done for done, _ in calls)


class TestEmission:
    def test_emitted_rows_identical(self):
        spec = grid_spec(tiles=64)
        clear_simulation_cache()
        buf_on = io.StringIO()
        emitter = JsonlEmitter(buf_on)
        out_on = stream_to_emitter(spec, emitter, jobs=1, batch=True)
        clear_simulation_cache()
        buf_off = io.StringIO()
        emitter = JsonlEmitter(buf_off)
        out_off = stream_to_emitter(spec, emitter, jobs=1, batch=False)
        assert buf_on.getvalue() == buf_off.getvalue()
        assert out_on == out_off
        assert len(buf_on.getvalue().splitlines()) == 48
