"""Fault-injection tests: the serve stack degrades, never corrupts.

Two injected faults, from the satellite checklist:

* a pool worker SIGKILLed mid-sweep — the executor's worker-loss
  recovery re-dispatches the lost cells and de-duplicates receipts, so
  the affected stream completes with no missing and no duplicate rows
  while other clients keep streaming;
* a corrupt/truncated disk-cache entry under the daemon's cache dir —
  the disk tier treats it as a miss, the daemon recomputes, and the
  recomputed stream is bit-identical to the pre-corruption one.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.experiments.parallel import (
    fork_available,
    last_sweep_execution,
    parallel_map,
    shutdown_worker_pool,
    worker_pool_pids,
)
from repro.serve.client import connect
from repro.serve.daemon import ServeDaemon
from repro.serve.inline import _synthetic_cell
from repro.sim.cache import (
    clear_simulation_cache,
    configure_simulation_cache_dir,
    simulation_cache_disk,
)
from repro.sim.pipeline import KernelTiming, simulate_tile_stream

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="needs the fork start method"
)

#: Tight recovery grace so fault tests run in seconds, not the 5 s
#: production default.
FAST_GRACE = {"REPRO_WORKER_LOSS_GRACE_S": "0.4"}


def _steady_interval(task):
    """Module-level simulating cell so pool workers can unpickle it."""
    system, bytes_per_tile = task
    timing = KernelTiming(bytes_per_tile=bytes_per_tile, dec_cycles=20.0)
    return simulate_tile_stream(system, timing).steady_interval_cycles


@pytest.fixture
def fast_recovery(monkeypatch):
    for key, value in FAST_GRACE.items():
        monkeypatch.setenv(key, value)


@pytest.fixture
def daemon(tmp_path, fast_recovery):
    clear_simulation_cache()
    shutdown_worker_pool()
    d = ServeDaemon(
        socket_path=str(tmp_path / "serve.sock"), jobs=2, max_active=2
    )
    d.start()
    yield d
    d.drain()
    shutdown_worker_pool()
    clear_simulation_cache()


class TestWorkerLossExecutor:
    """The executor-level recovery the daemon's resilience rests on."""

    def test_killed_worker_cells_redispatch(
        self, fast_recovery, kill_pool_worker
    ):
        shutdown_worker_pool()
        items = [(i, 0.25) for i in range(6)]
        killer = threading.Timer(0.4, kill_pool_worker)
        killer.start()
        try:
            results = parallel_map(_synthetic_cell, items, jobs=2)
        finally:
            killer.cancel()
            shutdown_worker_pool()
        # Complete, ordered, no duplicates — as if nothing happened.
        assert [r["cell"] for r in results] == list(range(6))
        execution = last_sweep_execution()
        assert execution is not None
        assert execution.completed == 6
        assert execution.redispatched_cells >= 1

    def test_pool_respawns_after_kill(self, fast_recovery, kill_pool_worker):
        shutdown_worker_pool()
        parallel_map(_synthetic_cell, [(0, 0.0), (1, 0.0)], jobs=2)
        before = worker_pool_pids()
        victim = kill_pool_worker()
        # The next sweep still completes (the pool replaced the victim).
        results = parallel_map(
            _synthetic_cell, [(i, 0.0) for i in range(4)], jobs=2
        )
        assert [r["cell"] for r in results] == list(range(4))
        assert victim in before
        shutdown_worker_pool()

    def test_idle_kill_with_warm_parent_cache_recovers_in_seconds(
        self, fast_recovery, kill_pool_worker, hbm
    ):
        """A worker killed while idle costs the next sweep seconds.

        The ordering that once stalled a sweep for ~124 s: the parent
        cache holds entries, a 2-worker sweep leaves the pool idle, an
        idle worker is SIGKILLed (which can wedge the pool's shared task
        queue — it may die holding the queue's reader lock), and the
        next sweep reuses the pool. Any pool task the parent waits on
        before dispatching cells may then never arrive; the sweep must
        instead go straight to its cells and let worker-loss recovery
        recompute any it loses in-parent.
        """
        clear_simulation_cache()
        shutdown_worker_pool()
        tasks = [(hbm, float(size)) for size in (120, 220, 320, 420)]
        # Computing the expected rows in the parent seeds its cache.
        expected = [_steady_interval(task) for task in tasks]
        try:
            parallel_map(_synthetic_cell, [(0, 0.0), (1, 0.0)], jobs=2)
            kill_pool_worker()
            start = time.monotonic()
            results = parallel_map(_steady_interval, tasks, jobs=2)
            elapsed = time.monotonic() - start
        finally:
            shutdown_worker_pool()
            clear_simulation_cache()
        assert results == expected
        assert last_sweep_execution().completed == len(tasks)
        assert elapsed < 15.0, f"sweep after an idle kill took {elapsed:.1f} s"

    def test_suspect_shutdown_survives_result_lock_holder(self):
        """Tearing down a suspect pool can't hang on the result queue.

        A worker SIGKILLed *mid-result-send* dies holding the result
        queue's writer lock; ``Pool._terminate_pool`` then deadlocks on
        its own sentinel ``outqueue.put(None)``. Simulate the dead
        holder by acquiring that lock from the test (a semaphore held
        by a corpse and one held by this thread wedge identically),
        mark the pool suspect, and require the shutdown to complete.
        """
        from repro.experiments import parallel as parallel_mod

        shutdown_worker_pool()
        parallel_map(_synthetic_cell, [(0, 0.0), (1, 0.0)], jobs=2)
        pool = parallel_mod._POOL
        assert pool is not None
        wlock = pool._outqueue._wlock
        assert wlock.acquire(timeout=10)
        parallel_mod._mark_pool_suspect()
        teardown = threading.Thread(target=shutdown_worker_pool)
        teardown.start()
        teardown.join(timeout=30)
        try:
            assert not teardown.is_alive(), (
                "suspect-pool shutdown hung on the orphaned result lock"
            )
        finally:
            # On the failure path unwedge the stuck teardown so the
            # rest of the session isn't poisoned; on success the
            # shutdown already freed the lock and this raises
            # ValueError.
            try:
                wlock.release()
            except ValueError:
                pass


class TestServeWorkerLoss:
    def test_daemon_survives_killed_worker(self, daemon, kill_pool_worker):
        """Kill a worker mid-sweep: the stream completes, no dupes."""
        inline = {"kind": "synthetic", "cells": 8, "cell_s": 0.25,
                  "tag": "kill"}
        rows = []
        first_row = threading.Event()
        failures = []

        def victim_client() -> None:
            try:
                for line in connect(daemon.socket_path).sweep_lines(
                    inline=inline
                ):
                    rows.append(json.loads(line))
                    first_row.set()
            except Exception as error:  # pragma: no cover - assertion aid
                failures.append(error)
                first_row.set()

        reader = threading.Thread(target=victim_client)
        reader.start()
        assert first_row.wait(timeout=30), "sweep never produced a row"
        kill_pool_worker()
        reader.join(timeout=60)
        assert not reader.is_alive(), "stream never completed after the kill"
        assert failures == []

        # Never a partial or duplicate row: all 8 cells, each once, in
        # index order.
        assert [row["cell"] for row in rows] == list(range(8))

        # The daemon is still healthy and serving.
        assert connect(daemon.socket_path).ping()
        snapshot = daemon.status_snapshot()
        assert snapshot["errors"] == 0

    def test_other_clients_keep_streaming_through_a_kill(
        self, daemon, kill_pool_worker
    ):
        slow = {"kind": "synthetic", "cells": 6, "cell_s": 0.25,
                "tag": "slow"}
        outcomes = {}
        first_row = threading.Event()

        def slow_client() -> None:
            stream = connect(daemon.socket_path).sweep_lines(inline=slow)
            collected = []
            for line in stream:
                collected.append(line)
                first_row.set()
            outcomes["slow"] = collected

        thread = threading.Thread(target=slow_client)
        thread.start()
        assert first_row.wait(timeout=30)
        kill_pool_worker()
        # A second client arrives *while* recovery is in progress; its
        # (serial, pool-free) synthetic sweep must be served normally.
        other = list(
            connect(daemon.socket_path).sweep(
                inline={"kind": "synthetic", "cells": 3, "tag": "other"}
            )
        )
        assert [row["cell"] for row in other] == [0, 1, 2]
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert len(outcomes["slow"]) == 6


class TestServeDiskCorruption:
    def test_corrupt_entry_degrades_to_recompute(
        self, daemon, corrupt_disk_entry, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        configure_simulation_cache_dir(str(cache_dir))
        try:
            baseline = list(
                connect(daemon.socket_path).sweep_lines("figure12")
            )
            disk = simulation_cache_disk()
            assert disk is not None and disk.stats().stores > 0

            # Corrupt one spilled entry, then force the next request to
            # go through disk (drop the in-memory tier).
            corrupt_disk_entry(cache_dir)
            clear_simulation_cache()

            replay = list(
                connect(daemon.socket_path).sweep_lines("figure12")
            )
            assert replay == baseline
            assert simulation_cache_disk().stats().errors >= 1
            # Still healthy: another scenario streams fine afterwards.
            assert connect(daemon.socket_path).ping()
            other = list(
                connect(daemon.socket_path).sweep(
                    inline={"kind": "synthetic", "cells": 2, "tag": "after"}
                )
            )
            assert len(other) == 2
            assert daemon.status_snapshot()["errors"] == 0
        finally:
            configure_simulation_cache_dir(None)
