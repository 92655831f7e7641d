"""Tests for the process-pool sweep executor and cache merging.

The contract under test (see ``repro/experiments/parallel.py``): for any
``jobs``, a parallel sweep returns results *bit-identical* to the serial
run, in the same order, and folds every worker's new cache entries back
into the parent keyed by the same ``simulation_key``.
"""

import time

import numpy as np
import pytest

from repro.core.schemes import parse_scheme
from repro.experiments import figure12, sensitivity
from repro.experiments.grid import run_grid, to_csv
from repro.experiments.parallel import (
    claim_worker_pool,
    dispatched_task_count,
    fork_available,
    last_sweep_execution,
    parallel_map,
    release_worker_pool,
    resolve_jobs,
    shutdown_worker_pool,
    stream_map,
    worker_pool_owned,
    worker_pool_pids,
    worker_pool_size,
)
from repro.experiments.speedups import sweep_speedups
from repro.errors import ConfigurationError, DeadlineExceededError
from repro.sim.cache import (
    clear_simulation_cache,
    export_simulation_cache,
    merge_simulation_cache,
    results_bit_equal,
    simulation_cache_stats,
)
from repro.sim.pipeline import KernelTiming, simulate_tile_stream
from repro.sim.system import hbm_system

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="parallel executor needs the fork start method"
)

_SCHEMES = (parse_scheme("Q4"), parse_scheme("Q8_5%"))


def _small_grid(jobs):
    # batch=False: these tests pin the *per-cell* pool dispatch and its
    # cache-merge accounting (task counts, worker hit/miss deltas); the
    # batched routing has its own suite in test_sweep_batched.py.
    return run_grid(
        systems=(hbm_system(),), schemes=_SCHEMES, jobs=jobs, batch=False
    )


def _simulate_item(task):
    """Module-level task body so pool workers can unpickle it."""
    system, bytes_per_tile = task
    timing = KernelTiming(bytes_per_tile=bytes_per_tile, dec_cycles=20.0)
    return simulate_tile_stream(system, timing).steady_interval_cycles


class TestParallelSerialEquivalence:
    def test_run_grid_records_bit_identical(self):
        clear_simulation_cache()
        serial = _small_grid(jobs=1)
        clear_simulation_cache()
        parallel = _small_grid(jobs=4)
        # GridRecord is a float dataclass: == is exact, not approximate.
        assert serial == parallel

    def test_to_csv_round_trips_parallel_output(self, tmp_path):
        clear_simulation_cache()
        serial_csv = to_csv(_small_grid(jobs=1))
        clear_simulation_cache()
        parallel_csv = to_csv(_small_grid(jobs=2))
        assert serial_csv == parallel_csv
        lines = parallel_csv.strip().splitlines()
        assert lines[0].startswith("system,scheme,engine")
        assert len(lines) == 1 * len(_SCHEMES) * 2 + 1

    def test_sweep_speedups_bit_identical(self, hbm):
        clear_simulation_cache()
        serial = sweep_speedups(hbm, schemes=_SCHEMES)
        clear_simulation_cache()
        parallel = sweep_speedups(hbm, schemes=_SCHEMES, jobs=2)
        assert serial == parallel

    def test_dse_parallel_mapper_matches_serial(self):
        import functools

        from repro.core.dse import explore_deca_designs

        machine = hbm_system().machine
        serial = explore_deca_designs(machine, _SCHEMES)
        parallel = explore_deca_designs(
            machine, _SCHEMES,
            mapper=functools.partial(parallel_map, jobs=2),
        )
        assert serial == parallel
        assert parallel.best is not None

    def test_figure12_jobs_matches_serial(self):
        clear_simulation_cache()
        serial = figure12.run()
        clear_simulation_cache()
        parallel = figure12.run(jobs=2)
        assert serial == parallel

    def test_sensitivity_jobs_matches_serial(self):
        clear_simulation_cache()
        serial = sensitivity.run()
        clear_simulation_cache()
        parallel = sensitivity.run(jobs=2)
        assert serial == parallel


class TestCacheMerge:
    def test_worker_entries_merged_and_stats_sum(self):
        clear_simulation_cache()
        records = _small_grid(jobs=2)
        execution = last_sweep_execution()
        stats = simulation_cache_stats()
        # Every cell is a distinct configuration: each is one worker miss,
        # every computed entry lands in the parent on join, and the merged
        # counters are exactly the sum of the workers' deltas.
        assert execution.jobs == 2
        assert execution.tasks == len(records) == 4
        assert execution.merged_entries == 4
        assert execution.duplicate_entries == 0
        assert execution.worker_hits + execution.worker_misses == 4
        assert stats.hits == execution.worker_hits
        assert stats.misses == execution.worker_misses == 4
        assert stats.size == 4

    def test_merged_entries_keep_traces_read_only(self):
        # NumPy pickling drops the writeable flag, so worker-produced
        # results must be re-frozen on merge or a consumer could mutate
        # a shared cached trace that the serial path protects.
        clear_simulation_cache()
        _small_grid(jobs=2)
        for _, result in export_simulation_cache():
            assert not result.trace.mtx_done.flags.writeable
            assert not result.trace.fetch_issue.flags.writeable

    def test_parent_sweep_hits_merged_entries(self):
        clear_simulation_cache()
        _small_grid(jobs=2)
        before = simulation_cache_stats()
        _small_grid(jobs=1)  # serial rerun in the parent process
        after = simulation_cache_stats()
        assert after.hits - before.hits == 4
        assert after.misses == before.misses

    def test_duplicate_keys_across_workers_merge_once(self, hbm):
        clear_simulation_cache()
        # Two identical tasks land in different partitions at jobs=2 and
        # compute the same simulation key; however the persistent pool
        # schedules the partitions (two workers, or one fast worker
        # draining both), the parent must end up with exactly one entry.
        tasks = [(hbm, 300.0), (hbm, 300.0)]
        intervals = parallel_map(_simulate_item, tasks, jobs=2)
        assert intervals[0] == intervals[1]
        execution = last_sweep_execution()
        assert execution.merged_entries == 1
        assert execution.worker_hits + execution.worker_misses == 2
        # Both-partitions-on-one-worker shows up as a worker cache hit;
        # one-partition-each shows up as a duplicate dropped on merge.
        assert execution.duplicate_entries + execution.worker_hits == 1
        assert simulation_cache_stats().size == 1

    def test_duplicate_key_dropped_on_merge(self, hbm):
        # The duplicate-drop path itself, deterministically: merging the
        # same key twice keeps one entry and counts one duplicate.
        clear_simulation_cache()
        timing = KernelTiming(bytes_per_tile=300.0, dec_cycles=20.0)
        result = simulate_tile_stream(hbm, timing)
        key, value = export_simulation_cache()[0]
        stats = merge_simulation_cache([(key, value)])
        assert (stats.inserted, stats.duplicates) == (0, 1)
        clear_simulation_cache()
        stats = merge_simulation_cache([(key, value), (key, value)])
        assert (stats.inserted, stats.duplicates) == (1, 1)
        assert simulation_cache_stats().size == 1
        assert result is not None

    def test_conflicting_duplicate_asserts_bit_equality(self, hbm):
        clear_simulation_cache()
        timing = KernelTiming(bytes_per_tile=300.0, dec_cycles=20.0)
        result = simulate_tile_stream(hbm, timing)
        key = export_simulation_cache()[0][0]
        forged = type(result)(
            system=result.system,
            tiles=result.tiles,
            makespan_cycles=result.makespan_cycles + 1.0,
            steady_interval_cycles=result.steady_interval_cycles,
            utilization=result.utilization,
            trace=result.trace,
        )
        with pytest.raises(AssertionError):
            merge_simulation_cache([(key, forged)])

    def test_results_bit_equal(self, hbm):
        timing = KernelTiming(bytes_per_tile=300.0, dec_cycles=20.0)
        a = simulate_tile_stream(hbm, timing, use_cache=False)
        b = simulate_tile_stream(hbm, timing, use_cache=False)
        assert results_bit_equal(a, b)
        assert not results_bit_equal(a, None)
        assert results_bit_equal(np.arange(4.0), np.arange(4.0))
        assert not results_bit_equal(np.arange(4.0), np.arange(4))  # dtype


class TestDiskTierIntegration:
    def test_worker_disk_hits_flow_into_merged_stats(self, tmp_path):
        from repro.sim.cache import configure_simulation_cache_dir

        configure_simulation_cache_dir(str(tmp_path))
        try:
            clear_simulation_cache()
            cold = _small_grid(jobs=2)
            assert last_sweep_execution().worker_disk_hits == 0
            # Restart scenario inside one process: memory dropped (the
            # generation bump propagates to the persistent workers),
            # disk kept — the whole sweep replays from the disk tier.
            clear_simulation_cache()
            warm = _small_grid(jobs=2)
            execution = last_sweep_execution()
            stats = simulation_cache_stats()
            assert warm == cold
            assert execution.worker_misses == 0
            # Every lookup is served from the disk tier — a lazy
            # per-touch disk hit in the worker (or a memory hit when an
            # earlier cell of the same worker already loaded it).
            # Nothing recomputes.
            assert execution.worker_hits + execution.worker_disk_hits == 4
            # Workers leave their disk-tier loads out of the cell delta
            # (the parent runs on the same directory), so a fully warm
            # replay ships no entries back.
            assert execution.merged_entries == 0
            assert stats.misses == 0
            assert stats.hit_rate == 1.0
        finally:
            configure_simulation_cache_dir(None)
            clear_simulation_cache()


def _parent_only_entries(system, sizes):
    """Simulate in the parent, where no pool worker sees the entries."""
    for size in sizes:
        timing = KernelTiming(bytes_per_tile=float(size), dec_cycles=20.0)
        simulate_tile_stream(system, timing)


class TestWorkerWarmth:
    """Workers stay warm through fork inheritance, never a dispatch push.

    Warmth moves only hit counters: the results are the serial ones
    whether a worker inherited, recomputed, or loaded an entry.
    """

    def test_fresh_pool_inherits_parent_entries(self, hbm):
        clear_simulation_cache()
        shutdown_worker_pool()
        _parent_only_entries(hbm, (111.0, 222.0))
        tasks = [(hbm, 111.0), (hbm, 222.0)]
        results = parallel_map(_simulate_item, tasks, jobs=2)
        execution = last_sweep_execution()
        # Freshly forked workers inherited the parent cache through
        # fork, so the entries hit in the workers.
        assert not execution.pool_reused
        assert execution.worker_hits == len(tasks)
        assert results == [_simulate_item(task) for task in tasks]

    def test_reused_pool_recomputes_parent_only_entries(self, hbm):
        clear_simulation_cache()
        shutdown_worker_pool()
        parallel_map(_identity, [1, 2, 3, 4], jobs=2)
        sizes = (150.0, 250.0, 350.0)
        _parent_only_entries(hbm, sizes)
        tasks = [(hbm, size) for size in sizes]
        results = parallel_map(_simulate_item, tasks, jobs=2)
        execution = last_sweep_execution()
        assert execution.pool_reused
        # The persistent workers forked before these entries existed
        # and there is no disk tier, so every cell computes...
        assert execution.worker_hits == 0
        assert execution.worker_misses == len(sizes)
        # ...but the results are the parent's own, bit-for-bit.
        assert results == [_simulate_item(task) for task in tasks]

    def test_warmth_changes_only_hit_counters(self, hbm):
        # The same sweep on a pool forked after the parent computed the
        # entries (inherited) and on one forked before (recomputed):
        # results and cache contents agree; only the hit/miss split
        # differs.
        tasks = [(hbm, 175.0), (hbm, 275.0)]
        clear_simulation_cache()
        shutdown_worker_pool()
        _parent_only_entries(hbm, (175.0, 275.0))
        inherited = parallel_map(_simulate_item, tasks, jobs=2)
        stats_inherited = simulation_cache_stats()
        clear_simulation_cache()
        shutdown_worker_pool()
        parallel_map(_identity, [1, 2], jobs=2)
        _parent_only_entries(hbm, (175.0, 275.0))
        recomputed = parallel_map(_simulate_item, tasks, jobs=2)
        stats_recomputed = simulation_cache_stats()
        shutdown_worker_pool()
        assert inherited == recomputed
        assert stats_inherited.size == stats_recomputed.size
        assert stats_inherited.hits != stats_recomputed.hits


class TestDegradation:
    def test_jobs_one_is_plain_serial(self):
        items = list(range(5))
        assert parallel_map(abs, items, jobs=1) == items
        assert last_sweep_execution().jobs == 1

    def test_order_preserved_under_striping(self, hbm):
        tasks = [(hbm, float(b)) for b in (100, 200, 300, 400, 500)]
        serial = parallel_map(_simulate_item, tasks, jobs=1)
        clear_simulation_cache()
        parallel = parallel_map(_simulate_item, tasks, jobs=3)
        assert serial == parallel

    def test_resolve_jobs_semantics(self):
        assert resolve_jobs(1, 100) == 1
        assert resolve_jobs(8, 3) == 3  # clamped to task count
        assert resolve_jobs(None, 100) >= 1  # auto
        assert resolve_jobs(0, 100) >= 1  # auto
        with pytest.raises(ConfigurationError):
            resolve_jobs(-2, 10)

    def test_serial_fallback_without_fork(self, monkeypatch, hbm):
        monkeypatch.setattr(
            "repro.experiments.parallel.fork_available", lambda: False
        )
        clear_simulation_cache()
        records = _small_grid(jobs=4)
        assert last_sweep_execution().jobs == 1
        clear_simulation_cache()
        assert records == _small_grid(jobs=1)

    def test_nested_calls_degrade_to_serial(self, monkeypatch):
        monkeypatch.setattr("repro.experiments.parallel._IN_WORKER", True)
        assert resolve_jobs(4, 10) == 1

    def test_unknown_engine_rejected_before_fanout(self):
        with pytest.raises(ConfigurationError):
            run_grid(
                systems=(hbm_system(),), schemes=_SCHEMES,
                engines=("software", "fpga"), jobs=4,
            )


def _identity(x):
    """Module-level task body so pool workers can unpickle it."""
    return x


class TestPoolOwnership:
    """The claim/release seam a long-lived daemon relies on."""

    @pytest.fixture(autouse=True)
    def _fresh_pool(self):
        shutdown_worker_pool()
        yield
        release_worker_pool()

    def test_claim_excludes_pool_from_ambient_teardown(self):
        from repro.experiments.parallel import _ambient_pool_teardown

        width = claim_worker_pool(2)
        assert width == 2 and worker_pool_owned()
        pids = worker_pool_pids()
        _ambient_pool_teardown()  # the atexit hook must spare an owned pool
        assert worker_pool_pids() == pids
        release_worker_pool()
        assert not worker_pool_owned()
        assert worker_pool_size() == 0
        _ambient_pool_teardown()  # un-owned again: tears down, idempotent

    def test_owned_pool_never_rebuilt_wider(self):
        claim_worker_pool(2)
        pids = worker_pool_pids()
        results = parallel_map(_identity, list(range(8)), jobs=4)
        assert results == list(range(8))
        # The sweep ran at the owner's width on the owner's workers.
        assert last_sweep_execution().jobs == 2
        assert worker_pool_pids() == pids

    def test_release_is_idempotent(self):
        claim_worker_pool(2)
        release_worker_pool()
        release_worker_pool()
        assert worker_pool_size() == 0 and not worker_pool_owned()

    def test_claim_rejects_negative_width(self):
        with pytest.raises(ConfigurationError):
            claim_worker_pool(-3)

    def test_width_one_claim_still_takes_ownership(self):
        # Regression: a jobs=1 claim forks no pool but must still flip
        # the ownership bit, so a daemon's unconditional release on
        # drain is symmetric at every width (a width-1 daemon used to
        # leak its claim and break the next claimer's accounting).
        width = claim_worker_pool(1)
        assert width == 1
        assert worker_pool_owned()
        assert worker_pool_size() == 0  # no workers were forked
        release_worker_pool()
        assert not worker_pool_owned()


def _sleepy(task):
    """Module-level sleeping task body for deadline-seam tests."""
    index, duration = task
    time.sleep(duration)
    return index


class TestStreamDeadline:
    """The ``deadline=`` seam on :func:`stream_map` (both executors)."""

    def test_serial_deadline_raises_after_partial_yield(self):
        items = [(i, 0.05) for i in range(20)]
        seen = []
        with pytest.raises(DeadlineExceededError):
            for index, result in stream_map(
                _sleepy, items, jobs=1, deadline=time.monotonic() + 0.2
            ):
                assert index == result
                seen.append(index)
        assert 0 < len(seen) < 20
        assert seen == sorted(seen)

    def test_serial_past_deadline_yields_nothing(self):
        with pytest.raises(DeadlineExceededError):
            next(stream_map(
                _sleepy, [(0, 0.0)], jobs=1,
                deadline=time.monotonic() - 1.0,
            ))

    def test_parallel_deadline_stops_dispatch_and_keeps_pool_healthy(self):
        shutdown_worker_pool()
        items = [(i, 0.2) for i in range(12)]
        before = dispatched_task_count()
        with pytest.raises(DeadlineExceededError):
            for _ in stream_map(
                _sleepy, items, jobs=2, deadline=time.monotonic() + 0.5
            ):
                pass
        assert dispatched_task_count() - before < len(items)
        # The pool survived the abandoned sweep and runs a fresh one.
        results = list(stream_map(_sleepy, [(i, 0.0) for i in range(4)],
                                  jobs=2))
        assert results == [(0, 0), (1, 1), (2, 2), (3, 3)]
        shutdown_worker_pool()

    def test_no_deadline_is_unbounded(self):
        results = list(stream_map(_sleepy, [(i, 0.0) for i in range(3)],
                                  jobs=1))
        assert results == [(0, 0), (1, 1), (2, 2)]
