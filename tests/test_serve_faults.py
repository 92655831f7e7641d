"""Fault-injection tests: the serve stack degrades, never corrupts.

Two injected faults, from the satellite checklist:

* a pool worker SIGKILLed mid-sweep — the executor sees the death at
  once as EOF on the worker's socket, recomputes its unreceived cells
  in-parent and de-duplicates receipts, so the affected stream
  completes with no missing and no duplicate rows while other clients
  keep streaming, and within :data:`KILL_BUDGET_S`;
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

#: Wall-clock bound on recovering from a worker kill (seconds). Death
#: is EOF on the worker's link, so no timer stands between a kill and
#: its recovery.
KILL_BUDGET_S = 2.0


def _steady_interval(task):
    """Module-level simulating cell so pool workers can unpickle it."""
    system, bytes_per_tile = task
    timing = KernelTiming(bytes_per_tile=bytes_per_tile, dec_cycles=20.0)
    return simulate_tile_stream(system, timing).steady_interval_cycles


@pytest.fixture
def daemon(tmp_path):
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

    def test_killed_worker_cells_redispatch(self, kill_pool_worker):
        shutdown_worker_pool()
        items = [(i, 0.25) for i in range(6)]
        killer = threading.Timer(0.4, kill_pool_worker)
        start = time.monotonic()
        killer.start()
        try:
            results = parallel_map(_synthetic_cell, items, jobs=2)
        finally:
            killer.cancel()
            shutdown_worker_pool()
        elapsed = time.monotonic() - start
        # Complete, ordered, no duplicates — as if nothing happened.
        assert [r["cell"] for r in results] == list(range(6))
        execution = last_sweep_execution()
        assert execution is not None
        assert execution.completed == 6
        assert execution.redispatched_cells >= 1
        assert elapsed < KILL_BUDGET_S, f"sweep took {elapsed:.1f} s"

    def test_pool_respawns_after_kill(self, kill_pool_worker):
        """The next sweep re-forks a dead worker before dispatching."""
        shutdown_worker_pool()
        parallel_map(_synthetic_cell, [(0, 0.0), (1, 0.0)], jobs=2)
        before = worker_pool_pids()
        start = time.monotonic()
        victim = kill_pool_worker()
        # The parent sees the death as EOF: the victim leaves the live
        # pid list without any sweep running.
        while victim in worker_pool_pids():
            assert time.monotonic() - start < KILL_BUDGET_S
            time.sleep(0.01)
        results = parallel_map(
            _synthetic_cell, [(i, 0.0) for i in range(4)], jobs=2
        )
        after = worker_pool_pids()
        shutdown_worker_pool()
        assert [r["cell"] for r in results] == list(range(4))
        assert victim in before and victim not in after
        # The sweep re-forked the victim before dispatching, so no cell
        # needed an in-parent recompute.
        assert len(after) == 2 and set(before) - {victim} <= set(after)
        assert last_sweep_execution().redispatched_cells == 0
        assert time.monotonic() - start < KILL_BUDGET_S

    def test_idle_kill_with_warm_parent_cache_recovers_in_seconds(
        self, kill_pool_worker, hbm
    ):
        """A worker killed while idle costs the next sweep nothing.

        The ordering that once stalled a sweep for ~124 s: the parent
        cache holds entries, a 2-worker sweep leaves the pool idle, an
        idle worker is SIGKILLed, and the next sweep reuses the pool.
        The sweep must re-fork the victim or recompute its cells
        in-parent; either way it finishes well inside the budget.
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
        assert elapsed < KILL_BUDGET_S, (
            f"sweep after an idle kill took {elapsed:.1f} s"
        )


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
        start = time.monotonic()
        kill_pool_worker()
        reader.join(timeout=60)
        elapsed = time.monotonic() - start
        assert not reader.is_alive(), "stream never completed after the kill"
        assert failures == []
        assert elapsed < KILL_BUDGET_S, f"stream took {elapsed:.1f} s"

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
        start = time.monotonic()
        kill_pool_worker()
        # A second client arrives *while* recovery is in progress; its
        # synthetic sweep must be served normally.
        other = list(
            connect(daemon.socket_path).sweep(
                inline={"kind": "synthetic", "cells": 3, "tag": "other"}
            )
        )
        assert [row["cell"] for row in other] == [0, 1, 2]
        thread.join(timeout=60)
        elapsed = time.monotonic() - start
        assert not thread.is_alive()
        assert len(outcomes["slow"]) == 6
        assert elapsed < KILL_BUDGET_S, f"streams took {elapsed:.1f} s"


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
