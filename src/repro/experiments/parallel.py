"""Process-pool execution of embarrassingly parallel experiment sweeps.

The paper's headline tables are cartesian grids of independent
``(system, scheme, engine)`` cells — ideal fan-out work. This module is
the one execution front door every sweep shares: the declarative specs
in :mod:`repro.experiments.sweepspec` (and through them ``run_grid``,
``sweep_speedups``, ``figure12``/``figure13``, ``batch_sweep``,
``sensitivity``, and the CLI's ``--jobs`` flags) all route through
:func:`stream_map` / :func:`parallel_map`.

Execution model
---------------

* Cells are dispatched **individually** to a pool of forked workers and
  their results stream back as each finishes (an ``imap_unordered``-style
  flow built on ``apply_async`` with a bounded in-flight window, so a
  consumer that stops early also stops *dispatch*). A worker returns a
  ``(cell_index, result, cache_delta)`` chunk the moment its cell is
  done; the parent merges the cache delta immediately and re-sorts
  results by index on the fly, so :func:`stream_map` yields
  ``(0, r0), (1, r1), …`` in input order even when workers complete out
  of order — and the first result is available long before the last
  cell computes.
* Workers are forked (POSIX ``fork`` start method) into a **persistent
  pool** that lives for the whole invocation: the first ``jobs > 1``
  sweep pays the ~45 ms spin-up, every later sweep reuses the same
  worker processes (the pool is rebuilt only when a sweep needs a
  *wider* one — a narrower sweep idles the surplus workers — and torn
  down atexit, or explicitly via :func:`shutdown_worker_pool`).
  Each worker inherits the parent's warm simulation cache at pool
  creation and runs its cells through the existing memoized front
  door (:func:`repro.sim.pipeline.simulate_tile_stream`).
* Because workers outlive individual sweeps, every cell payload
  carries the parent's cache *clear generation* and its cache-dir
  configuration: a worker whose generation lags (the parent called
  ``clear_simulation_cache`` since the fork) drops its own copy before
  running, and a worker whose disk tier differs re-attaches. Clearing
  therefore behaves exactly as with fork-per-sweep.
* Each finished cell ships back only the cache entries that cell
  *computed* in its worker (inherited and earlier-cell keys are
  snapshotted at cell start, and entries the cell loaded from the
  shared disk tier are skipped — the parent reaches the same
  directory) plus its hit/miss/disk-hit deltas; the parent folds them
  in via :func:`repro.sim.cache.merge_simulation_cache`, keyed by the
  same ``simulation_key`` — incrementally, as the chunks arrive, not
  at a barrier join. Duplicate keys across workers must resolve
  bit-identically (asserted in debug mode) — the simulator is pure, so
  anything else is a bug. With a disk tier configured
  (:mod:`repro.sim.diskcache`), workers spill their computed entries to
  the shared cache directory as they go, and the parent's merge skips
  re-writing them (content-addressed store).

Worker warmth
-------------

Nothing is pushed to workers at dispatch. A worker is warm through
three paths that cost the sweep nothing up front:

* **fork inheritance** — a freshly forked pool starts with a copy of
  the parent's whole in-memory cache;
* **its own LRU** — a persistent worker keeps what it computed or
  loaded in earlier sweeps of the invocation;
* **the shared disk tier** — with a cache directory configured, a
  worker lazily loads any entry the parent or another worker spilled.

Entries merged into the parent after the fork are therefore not in a
reused worker's memory; without a disk tier such a worker recomputes
them. Results are unaffected either way: the simulator is pure, so
warmth moves only hit counters and wall-clock.

Cancellation contract
---------------------

Closing a :func:`stream_map` generator early (``break`` in a consumer
loop, ``.close()``) stops dispatching new cells immediately; the
bounded handful already in flight finish in their workers, their cache
deltas are merged so the cache stays consistent, and the persistent
pool remains usable for the next sweep. :func:`last_sweep_execution`
records the early exit (``cancelled=True`` with ``completed`` < tasks).

Socket backend (multi-host sweeps)
----------------------------------

When worker hosts are configured (``--hosts`` on the sweep CLIs, the
``REPRO_SWEEP_HOSTS`` environment variable, or
:func:`repro.experiments.remote.configure_sweep_hosts`),
:func:`stream_map` dispatches through the socket-transport backend in
:mod:`repro.experiments.remote` instead of the local fork pool:
contiguous cell partitions go to N ``repro worker`` processes over
length-prefixed frames, chunks stream back through this module's same
incremental-merge/index-sort path, and each worker's cache delta comes
back as hash-sharded packed entries deduped against the parent's
digest set.
Results are bit-identical to the serial and fork paths; host death
recovers by in-parent recompute exactly like the fork backend's
worker-loss path. The host list overrides ``jobs`` — the hosts *are*
the parallelism.

Degradation contract
--------------------

``jobs=1``, a single task, or a platform without ``fork`` (Windows,
some sandboxes) all stream the plain serial loop in-process — no pool,
no pickling, bit-identical to the pre-parallel code path (and the
serial path *still* yields each result as it is computed, so
incremental emission works without workers). Nested calls (a task
function that itself calls :func:`stream_map` / :func:`parallel_map`)
also degrade to serial inside workers rather than forking
grandchildren.
"""

from __future__ import annotations

import atexit
import multiprocessing
import multiprocessing.pool
import os
import queue
import signal
import sys
import threading
import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.errors import ConfigurationError, DeadlineExceededError
from repro.sim import cache as _simcache

_T = TypeVar("_T")
_R = TypeVar("_R")

#: How long the streaming join waits with *zero* chunks landing after a
#: worker death was observed before concluding the dead worker took
#: in-flight cells with it and re-dispatching them (seconds; env
#: override below). A killed pool worker is respawned by the pool's
#: maintenance thread, but any cell it was running is silently lost —
#: its callback never fires — so without a re-dispatch the join would
#: block forever on ``done.get()``.
WORKER_LOSS_GRACE_DEFAULT_S = 5.0

#: Environment override for the worker-loss grace period (seconds).
WORKER_LOSS_GRACE_ENV = "REPRO_WORKER_LOSS_GRACE_S"

#: Poll interval of the streaming join's queue waits; bounds how stale
#: the worker-death observation can be, not result latency (a landed
#: chunk wakes the wait immediately).
_JOIN_POLL_S = 0.25

#: Zero-progress stall fallback, as a multiple of the worker-loss grace
#: period: when *nothing* has landed for this long, lost cells are
#: recovered even without an observed worker death (a worker killed
#: while idle wedges the pool's shared task queue — it dies holding the
#: queue's reader lock — and may be respawned before any sweep gets to
#: notice the PID change).
_STALL_GRACE_FACTOR = 8

#: Set in pool workers (via the pool initializer) so nested parallel_map
#: calls degrade to serial instead of forking grandchildren — pool
#: workers are daemonic and cannot spawn children anyway.
_IN_WORKER = False

#: The one validation message for a negative worker count, shared by
#: every layer that resolves ``jobs`` (library sweeps, specs, the CLI).
NEGATIVE_JOBS_ERROR = (
    "jobs must be >= 0 (0 or None = one worker per CPU), got {jobs}"
)


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - defensive
        return False


def resolve_jobs(jobs: Optional[int], tasks: int) -> int:
    """The worker count actually used for ``tasks`` items.

    ``None`` (or ``0``) means "auto": one worker per available CPU.
    Negative values raise :class:`ConfigurationError` with the shared
    :data:`NEGATIVE_JOBS_ERROR` message. The result is clamped to the
    task count, and collapses to 1 when the platform lacks ``fork`` or
    when already inside a pool worker — the serial degradation
    contract.
    """
    if jobs is None or jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs < 0:
        raise ConfigurationError(NEGATIVE_JOBS_ERROR.format(jobs=jobs))
    if _IN_WORKER or not fork_available():
        return 1
    return max(1, min(jobs, tasks))


@dataclass(frozen=True)
class SweepExecution:
    """What the last :func:`stream_map` call in this process did."""

    jobs: int
    tasks: int
    merged_entries: int
    duplicate_entries: int
    worker_hits: int
    worker_misses: int
    worker_disk_hits: int = 0
    pool_reused: bool = False
    #: Cells that actually completed (equals ``tasks`` unless the
    #: consumer closed the stream early).
    completed: int = 0
    #: Whether the stream was closed before every cell ran.
    cancelled: bool = False
    #: Cells re-dispatched after a pool worker died mid-sweep (0 in
    #: healthy runs; see the worker-loss recovery contract).
    redispatched_cells: int = 0
    #: Which executor ran the sweep: ``"serial"`` (in-process loop),
    #: ``"fork"`` (local process pool), or ``"socket"`` (the remote
    #: backend in :mod:`repro.experiments.remote`).
    backend: str = "fork"
    #: Socket-backend topology: the hosts dispatched to and how many
    #: cells each completed (empty for serial/fork sweeps).
    hosts: Tuple[str, ...] = ()
    host_cells: Tuple[Tuple[str, int], ...] = ()
    #: Hash-sharded cache-delta traffic of a socket sweep (shard
    #: payload bytes, each direction; 0 for serial/fork sweeps). The
    #: parent ships no entries to workers, so ``delta_bytes_sent`` is
    #: always 0; it stays so reports keep their shape.
    delta_bytes_sent: int = 0
    delta_bytes_received: int = 0


#: Report of the most recent stream_map call (diagnostics/tests).
_LAST_EXECUTION: Optional[SweepExecution] = None


def last_sweep_execution() -> Optional[SweepExecution]:
    """The most recent :func:`stream_map` execution report, if any."""
    return _LAST_EXECUTION


def _mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


#: The persistent pool and the worker count it was built with. A pool is
#: created lazily by the first fanned-out sweep, reused by every later
#: sweep in the invocation, rebuilt when the requested width changes,
#: and torn down atexit (or via :func:`shutdown_worker_pool`).
_POOL: Optional[multiprocessing.pool.Pool] = None
_POOL_JOBS = 0
_ATEXIT_REGISTERED = False

#: Whether a long-lived owner (the serve daemon) holds the pool. An
#: owned pool is excluded from the ambient atexit teardown and is never
#: rebuilt wider by a passing sweep — the owner provisioned its width
#: and tears it down itself via :func:`release_worker_pool`.
_POOL_OWNED = False

#: Set when a pool worker is seen to have died (or a sweep stalled with
#: zero progress, which a dead worker can cause without ever being
#: observed). A worker SIGKILLed while blocked on the pool's shared
#: task queue dies *holding the queue's reader lock*, wedging the queue
#: for every surviving worker — so a suspect pool is terminated at
#: teardown rather than gracefully closed (a close/join would block
#: forever waiting for workers that can never drain their queue).
_POOL_SUSPECT = False

#: Serializes pool creation/teardown: the serve daemon dispatches
#: concurrent sweeps onto the shared pool from multiple runner threads.
_POOL_LOCK = threading.Lock()

#: Cumulative count of cell tasks handed to the pool by this process
#: (``apply_async`` submissions; in-parent worker-loss recovery
#: excluded). Tests use deltas of this to pin
#: "exactly one sweep's worth of compute happened".
_DISPATCHED_TASKS = 0

def dispatched_task_count() -> int:
    """Cumulative cell tasks this process has handed to the pool."""
    return _DISPATCHED_TASKS


def _get_pool(n_jobs: int) -> multiprocessing.pool.Pool:
    """The persistent worker pool, grown to at least ``n_jobs`` workers.

    A wider-than-needed pool is reused as-is (surplus workers idle
    through the sweep): ``n_jobs`` is clamped to the task count, so a
    small sweep following a large one must not tear down — and
    re-fork — the pool the large sweeps amortize. An *owned* pool is
    never rebuilt either: a sweep asking for more workers than the
    owner provisioned runs at the owned width instead.
    """
    with _POOL_LOCK:
        return _get_pool_locked(n_jobs)


def _get_pool_locked(n_jobs: int) -> multiprocessing.pool.Pool:
    global _POOL, _POOL_JOBS, _ATEXIT_REGISTERED
    if _POOL is not None and _POOL_JOBS < n_jobs and not _POOL_OWNED:
        _shutdown_pool_locked()
    if _POOL is None:
        context = multiprocessing.get_context("fork")
        _POOL = context.Pool(n_jobs, initializer=_mark_worker)
        _POOL_JOBS = n_jobs
        if not _ATEXIT_REGISTERED:
            atexit.register(_ambient_pool_teardown)
            _ATEXIT_REGISTERED = True
    return _POOL


def shutdown_worker_pool() -> None:
    """Tear down the persistent worker pool, if one is alive.

    Safe to call at any time (idempotent); the next fanned-out sweep
    simply forks a fresh pool. This is the *explicit* teardown and
    applies even to an owned pool — owners wanting their pool spared
    from housekeeping are protected only from the ambient atexit hook
    (:func:`_ambient_pool_teardown`), not from a deliberate call.

    Also tears down the socket backend's half, when it was ever used:
    worker connections close and loopback ``repro worker``
    subprocesses are reaped, so no test or shutdown path leaks them.
    """
    with _POOL_LOCK:
        _shutdown_pool_locked()
    remote = sys.modules.get("repro.experiments.remote")
    if remote is not None:
        remote.shutdown_remote_workers()


def _shutdown_pool_locked() -> None:
    global _POOL, _POOL_JOBS, _POOL_SUSPECT
    if _POOL is not None:
        if _POOL_SUSPECT:
            # A worker died on this pool; its shared task queue may be
            # wedged (see _POOL_SUSPECT), so never close/join — the
            # survivors might never see their shutdown sentinels. Even
            # ``Pool.terminate`` is unsafe as-is: its drain helper
            # acquires the task queue's reader lock, which the victim
            # may have died *holding*. Kill the surviving workers
            # first (none can then re-grab the lock), force the
            # orphaned lock open, and only then terminate.
            #
            # The pool respawns every worker that dies, so stop that
            # first: a replacement forked between the kills and the
            # drain would take the freed reader lock (the drain then
            # blocks forever) or read half a task under it (the drain
            # then unpickles a torn frame).
            _stop_pool_threads(_POOL)
            for worker in list(getattr(_POOL, "_pool", [])):
                if worker.pid is not None:
                    try:
                        os.kill(worker.pid, signal.SIGKILL)
                    except OSError:
                        pass
            # A worker can die holding either of two queue locks: the
            # task queue's reader lock (killed mid-task-read) or the
            # result queue's writer lock (killed mid-result-send). The
            # latter wedges ``_terminate_pool`` itself — its sentinel
            # ``outqueue.put(None)`` acquires that lock. Free both;
            # releasing an unheld lock raises ValueError and is skipped.
            for orphaned in (
                lambda: _POOL._inqueue._rlock,
                lambda: _POOL._outqueue._wlock,
            ):
                try:
                    orphaned().release()
                except (AttributeError, ValueError, OSError):
                    pass  # lock was not held — nothing to free
            _POOL.terminate()
        else:
            _POOL.close()
        _POOL.join()
        _POOL = None
        _POOL_JOBS = 0
        _POOL_SUSPECT = False


def _stop_pool_threads(pool: multiprocessing.pool.Pool) -> None:
    """Stop ``pool``'s worker-respawn thread; let its task thread finish.

    Stopping the respawn thread also sends the task thread its shutdown
    sentinel. Waiting a moment for it means the result-queue lock the
    suspect teardown force-frees is one a dead worker holds, not one
    the task thread holds mid-send.
    """
    pool._worker_handler._state = multiprocessing.pool.TERMINATE
    pool._change_notifier.put(None)
    pool._worker_handler.join(timeout=_JOIN_POLL_S)
    pool._task_handler.join(timeout=_JOIN_POLL_S)


def _mark_pool_suspect() -> None:
    """Record that the live pool may have lost a worker (see above)."""
    global _POOL_SUSPECT
    _POOL_SUSPECT = True


def _ambient_pool_teardown() -> None:
    """atexit hook: tear down the pool *unless an owner holds it*.

    A daemon that claimed the pool may still be draining in-flight
    cells while the interpreter's atexit machinery runs (a SIGTERM-
    initiated shutdown unwinds through here); closing the pool under
    it would poison those cells. The owner is responsible for calling
    :func:`release_worker_pool` on its own drain path instead.
    """
    if not _POOL_OWNED:
        shutdown_worker_pool()


def claim_worker_pool(jobs: Optional[int] = None) -> int:
    """Fork (or adopt) the persistent pool and take ownership of it.

    A long-lived owner — the serve daemon — calls this once at startup:
    the pool is created at ``jobs`` width (``None``/``0`` = one worker
    per CPU) if none is alive, and ownership then excludes it from both
    the ambient atexit teardown and the wider-sweep rebuild in the pool
    getter, so module-level housekeeping can never tear the pool down
    underneath the owner's in-flight sweeps. Returns the width actually
    held (1 on platforms without ``fork``, where there is no pool to
    own). The owner must call :func:`release_worker_pool` on shutdown.

    A ``jobs=1`` claim forks no pool but still takes ownership: claim
    and release are symmetric at every width, so an owner's teardown
    path never has to reason about whether its startup claim "counted".
    """
    global _POOL_OWNED
    if jobs is None or jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs < 0:
        raise ConfigurationError(NEGATIVE_JOBS_ERROR.format(jobs=jobs))
    if _IN_WORKER or not fork_available():
        return 1
    with _POOL_LOCK:
        if jobs > 1:
            _get_pool_locked(jobs)
        _POOL_OWNED = True
        return _POOL_JOBS if _POOL is not None else 1


def release_worker_pool() -> None:
    """Relinquish pool ownership and tear the pool down (idempotent)."""
    global _POOL_OWNED
    with _POOL_LOCK:
        _POOL_OWNED = False
        _shutdown_pool_locked()


def worker_pool_owned() -> bool:
    """Whether a long-lived owner currently holds the persistent pool."""
    return _POOL_OWNED


def worker_pool_size() -> int:
    """Width of the live persistent pool (0 when none is alive)."""
    return _POOL_JOBS if _POOL is not None else 0


def worker_pool_pids() -> Tuple[int, ...]:
    """PIDs of the live persistent pool's workers (diagnostics/tests)."""
    if _POOL is None:
        return ()
    return tuple(sorted(worker.pid for worker in _POOL._pool))


def _run_cell(
    payload: Tuple[Callable[[Any], Any], int, Any, int, Optional[str]]
) -> Tuple[int, Any, List[Tuple[Any, Any]], int, int, int]:
    """Worker body: run one cell, report its new cache entries + deltas.

    ``generation`` and ``cache_dir`` carry the parent's cache state:
    persistent workers outlive sweeps, so before running they drop their
    in-memory cache if the parent cleared since the fork, and attach the
    parent's disk tier if it changed (both no-ops in the common case).
    The returned chunk is the streaming-join unit: the cell's index, its
    result, the cache entries this cell *computed* in this worker (its
    loads from the shared disk tier are left out — the parent runs on
    the same directory), and the hit/miss/disk-hit deltas it incurred.
    """
    fn, index, item, generation, cache_dir = payload
    _simcache.sync_simulation_cache_generation(generation)
    if _simcache.simulation_cache_dir() != cache_dir:
        _simcache.configure_simulation_cache_dir(cache_dir)
    baseline_keys = _simcache.simulation_cache_keys()
    before = _simcache.simulation_cache_stats()
    result = fn(item)
    after = _simcache.simulation_cache_stats()
    new_entries = _simcache.new_simulation_cache_entries(baseline_keys)
    return (
        index,
        result,
        new_entries,
        after.hits - before.hits,
        after.misses - before.misses,
        after.disk_hits - before.disk_hits,
    )


def _worker_loss_grace() -> float:
    """Resolve the worker-loss grace period (env override > default)."""
    raw = os.environ.get(WORKER_LOSS_GRACE_ENV)
    if raw is not None:
        try:
            return max(0.05, float(raw))
        except ValueError:
            pass
    return WORKER_LOSS_GRACE_DEFAULT_S


def _serial_stream(
    fn: Callable[[_T], _R],
    items: List[_T],
    progress: Optional[Callable[[int, int], None]],
    deadline: Optional[float] = None,
) -> Iterator[Tuple[int, _R]]:
    """The in-process streaming loop (``jobs=1`` / no-fork / nested)."""
    global _LAST_EXECUTION
    completed = 0
    failed = False
    try:
        for index, item in enumerate(items):
            if deadline is not None and time.monotonic() >= deadline:
                failed = True
                raise DeadlineExceededError(
                    f"sweep deadline passed after {completed}/{len(items)} "
                    "cells"
                )
            try:
                result = fn(item)
            except Exception:
                failed = True
                raise
            completed += 1
            if progress is not None:
                progress(completed, len(items))
            yield index, result
    finally:
        # `cancelled` means the *consumer* stopped early (close/break),
        # never that a task blew up — failures re-raise instead.
        _LAST_EXECUTION = SweepExecution(
            jobs=1, tasks=len(items), merged_entries=0,
            duplicate_entries=0, worker_hits=0, worker_misses=0,
            completed=completed,
            cancelled=not failed and completed < len(items),
            backend="serial",
        )


def _parallel_stream(
    fn: Callable[[_T], _R],
    items: List[_T],
    n_jobs: int,
    progress: Optional[Callable[[int, int], None]],
    deadline: Optional[float] = None,
) -> Iterator[Tuple[int, _R]]:
    """The fanned-out streaming loop: dispatch cells, join as they land.

    Dispatch is windowed (a couple of cells per worker in flight) so an
    early ``close()`` leaves at most a handful of cells running; those
    are drained — and their cache deltas merged — before the generator
    returns, leaving the persistent pool quiescent for the next sweep.

    Worker-loss recovery: queue waits poll so the join can notice the
    pool's worker PID set changing (the pool respawns a killed worker,
    but the cells it was running are lost — their callbacks never
    fire). After a death — or a zero-progress stall, which a worker
    killed while idle causes without any observable PID change — once
    no chunk has landed for a grace period
    (:data:`WORKER_LOSS_GRACE_ENV`), every in-flight cell not yet
    received is recomputed *in-parent* (the pool's shared task queue
    may be wedged by the death, so recovery never re-enters it).
    Receipts are de-duplicated by cell index, so a recovery racing its
    original's late completion can never double-merge a cache delta or
    double-yield a row — the sweep's output is identical to a healthy
    run (the simulator is pure).
    """
    global _LAST_EXECUTION, _DISPATCHED_TASKS
    pre_existing = worker_pool_size()
    pool = _get_pool(n_jobs)
    # An owned pool is never rebuilt wider; run at the width we got.
    n_jobs = min(n_jobs, _POOL_JOBS)
    reused = 0 < pre_existing and pre_existing >= n_jobs
    generation = _simcache.simulation_cache_generation()
    cache_dir = _simcache.simulation_cache_dir()
    done: "queue.Queue[Any]" = queue.Queue()
    total = len(items)
    window = min(total, 2 * n_jobs)
    submitted = 0
    in_flight = 0
    merged = duplicates = hits = misses = disk_hits = 0
    redispatched = 0
    received: set = set()
    outstanding: dict = {}
    pending: dict = {}
    next_yield = 0
    failure: Optional[BaseException] = None
    grace = _worker_loss_grace()
    known_pids = set(worker_pool_pids())
    worker_lost = False
    last_landing = time.monotonic()

    def submit_index(index: int) -> None:
        nonlocal in_flight
        global _DISPATCHED_TASKS
        payload = (fn, index, items[index], generation, cache_dir)
        pool.apply_async(
            _run_cell, (payload,),
            callback=done.put, error_callback=done.put,
        )
        outstanding[index] = outstanding.get(index, 0) + 1
        in_flight += 1
        _DISPATCHED_TASKS += 1

    def submit_next() -> None:
        nonlocal submitted
        if submitted < total:
            submit_index(submitted)
            submitted += 1

    def note_landing(outcome: Any) -> bool:
        """Bookkeep one queue receipt; True when it is a fresh cell."""
        nonlocal in_flight, last_landing
        in_flight -= 1
        last_landing = time.monotonic()
        if isinstance(outcome, BaseException):
            return False
        index = outcome[0]
        count = outstanding.get(index, 0) - 1
        if count > 0:
            outstanding[index] = count
        else:
            outstanding.pop(index, None)
        if index in received:
            # A recovery re-dispatch raced its original's completion;
            # drop the duplicate chunk whole (its entries were merged
            # the first time — the simulator is pure).
            return False
        received.add(index)
        return True

    def check_worker_loss() -> None:
        """Notice the pool's worker PID set changing (a death)."""
        nonlocal known_pids, worker_lost
        current = set(worker_pool_pids())
        if current != known_pids:
            if known_pids - current:
                worker_lost = True
                _mark_pool_suspect()
            known_pids = current

    def quiet_too_long() -> bool:
        return time.monotonic() - last_landing >= grace

    def stalled_too_long() -> bool:
        return (
            time.monotonic() - last_landing
            >= grace * _STALL_GRACE_FACTOR
        )

    def lost_indexes() -> list:
        """In-flight cells with no received result at all."""
        return sorted(set(outstanding) - received)

    def recover_lost() -> None:
        """Run every lost cell *in-parent* and feed it the normal way.

        Recovery never re-enters the pool: the death that lost the
        cells may also have wedged the pool's shared task queue (see
        :data:`_POOL_SUSPECT`), in which case a resubmitted task would
        never be delivered to any worker. Running in-parent is always
        correct — the simulator is pure and receipts de-duplicate by
        cell index, so a recovered cell racing its original's late
        completion can never double-merge or double-yield.
        """
        nonlocal worker_lost, redispatched, last_landing, in_flight
        _mark_pool_suspect()
        for index in lost_indexes():
            payload = (fn, index, items[index], generation, cache_dir)
            outstanding[index] = outstanding.get(index, 0) + 1
            in_flight += 1
            redispatched += 1
            try:
                done.put(_run_cell(payload))
            except BaseException as error:
                done.put(error)
        worker_lost = False
        last_landing = time.monotonic()

    def absorb(chunk: Any) -> Optional[Tuple[int, Any]]:
        """Merge one finished cell's cache delta; return (index, result)."""
        nonlocal merged, duplicates, hits, misses, disk_hits
        index, result, entries, d_hits, d_misses, d_disk = chunk
        stats = _simcache.merge_simulation_cache(
            entries, hits=d_hits, misses=d_misses, disk_hits=d_disk
        )
        merged += stats.inserted
        duplicates += stats.duplicates
        hits += d_hits
        misses += d_misses
        disk_hits += d_disk
        return index, result

    try:
        for _ in range(window):
            submit_next()
        while len(received) < total and failure is None:
            if deadline is not None and time.monotonic() >= deadline:
                # Same early-exit path as a consumer close: stop
                # dispatching, let the finally block drain in-flight
                # cells (their cache deltas stay merged), then raise.
                failure = DeadlineExceededError(
                    f"sweep deadline passed after {len(received)}/{total} "
                    "cells"
                )
                break
            try:
                outcome = done.get(timeout=_JOIN_POLL_S)
            except queue.Empty:
                check_worker_loss()
                if outstanding and (
                    (worker_lost and quiet_too_long()) or stalled_too_long()
                ):
                    recover_lost()
                continue
            fresh = note_landing(outcome)
            if isinstance(outcome, BaseException):
                failure = outcome
                break
            if not fresh:
                continue
            try:
                index, result = absorb(outcome)
            except Exception as error:  # e.g. a merge bit-equality assert
                failure = error
                raise
            submit_next()
            if progress is not None:
                progress(len(received), total)
            pending[index] = result
            while next_yield in pending:
                yield next_yield, pending.pop(next_yield)
                next_yield += 1
    finally:
        # Early close, normal completion, or worker failure all end
        # here: stop dispatching, drain the in-flight cells so the
        # persistent pool is idle, and keep their cache deltas (the
        # simulator is pure — a completed cell's entries are valid
        # whether or not anyone consumed its result). Cells lost to a
        # dead worker are abandoned after the grace period instead of
        # blocking forever — their callbacks will never fire.
        while in_flight:
            try:
                outcome = done.get(timeout=_JOIN_POLL_S)
            except queue.Empty:
                check_worker_loss()
                # Lingering in-flight entries whose index already has a
                # result are orphans — the original submission of an
                # in-parent-recovered cell, or a duplicate — and may
                # never land; don't block the drain on them.
                if quiet_too_long() and (worker_lost or not lost_indexes()):
                    break
                if stalled_too_long():
                    break
                continue
            if not note_landing(outcome):
                if isinstance(outcome, BaseException) and failure is None:
                    failure = outcome
                continue
            try:
                absorb(outcome)
            except Exception as error:  # e.g. a merge bit-equality assert
                if failure is None:
                    failure = error
        _LAST_EXECUTION = SweepExecution(
            jobs=n_jobs, tasks=total, merged_entries=merged,
            duplicate_entries=duplicates, worker_hits=hits,
            worker_misses=misses, worker_disk_hits=disk_hits,
            pool_reused=reused, completed=len(received),
            cancelled=failure is None and len(received) < total,
            redispatched_cells=redispatched,
        )
    if failure is not None:
        raise failure


def stream_map(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    jobs: Optional[int] = 1,
    progress: Optional[Callable[[int, int], None]] = None,
    deadline: Optional[float] = None,
) -> Iterator[Tuple[int, _R]]:
    """Yield ``(index, fn(item))`` pairs in index order, streaming.

    The streaming counterpart of :func:`parallel_map`: results are
    yielded as soon as they (and every lower-indexed cell) are
    available, so a consumer sees the first cell long before the sweep
    finishes. ``fn`` must be a module-level callable (pickled by
    reference) and pure with respect to the simulation cache — the
    standard shape of every sweep cell in this package.

    ``progress`` (if given) is called as ``progress(completed, total)``
    after each cell finishes — in *completion* order, which is not
    necessarily index order.

    Closing the generator early stops dispatch immediately; see the
    module docstring's cancellation contract.

    ``deadline`` (a :func:`time.monotonic` timestamp) bounds the sweep's
    wall clock: once it passes, dispatch stops via the same early-exit
    path as a consumer close — in-flight cells drain and their cache
    deltas merge — and the stream raises
    :class:`repro.errors.DeadlineExceededError`. Cells yielded before
    the expiry remain valid; a running cell is never interrupted, so the
    stream stops within one cell (serial) or one in-flight window
    (parallel) of the deadline.
    """
    items = list(items)
    if len(items) > 1 and not _IN_WORKER:
        # Socket backend: configured hosts (--hosts / REPRO_SWEEP_HOSTS)
        # override `jobs` outright — the host list *is* the
        # parallelism. Imported lazily so the fork-only common case
        # never touches the remote module.
        from repro.experiments import remote as _remote

        hosts = _remote.active_sweep_hosts()
        if hosts:
            return _remote.remote_stream(
                fn, items, hosts, progress, deadline=deadline
            )
    n_jobs = resolve_jobs(jobs, len(items))
    if n_jobs <= 1:
        return _serial_stream(fn, items, progress, deadline=deadline)
    return _parallel_stream(fn, items, n_jobs, progress, deadline=deadline)


def parallel_map(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    jobs: Optional[int] = 1,
) -> List[_R]:
    """``[fn(x) for x in items]``, optionally fanned out across processes.

    The buffered wrapper over :func:`stream_map`: drains the stream and
    returns the full result list in input order. With ``jobs=1`` (the
    default) this is the serial comprehension; with more, cells run in
    forked workers and their cache entries are merged as each cell
    lands (see the module docstring for the full contract).
    """
    return [result for _, result in stream_map(fn, items, jobs=jobs)]
