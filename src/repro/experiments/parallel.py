"""The front door of every experiment sweep: serial, forked or remote.

The paper's headline tables are cartesian grids of independent
``(system, scheme, engine)`` cells — ideal fan-out work. This module is
the one execution front door every sweep shares: the declarative specs
in :mod:`repro.experiments.sweepspec` (and through them ``run_grid``,
``sweep_speedups``, ``figure12``/``figure13``, ``batch_sweep``,
``sensitivity``, and the CLI's ``--jobs`` flags) all route through
:func:`stream_map` / :func:`parallel_map`.

Execution model
---------------

There is one executor, in :mod:`repro.experiments.remote`: worker
processes that speak a framed socket protocol, driven by one stream
loop. Only the way a worker link is made differs:

* ``jobs > 1`` — this module keeps a **persistent pool** of forked
  workers, each on a private ``socket.socketpair()``. The first
  fanned-out sweep forks them; every later sweep reuses them. The pool
  is rebuilt only when a sweep needs a *wider* one (a narrower sweep
  idles the surplus workers), a worker that died is re-forked by the
  next sweep, and the pool is torn down atexit or by
  :func:`shutdown_worker_pool`. Each forked worker shares the parent's
  cache tiers: it starts with a fork-time copy of the memory cache,
  follows the parent's cache directory and clear generation, and ships
  back only the entries each cell computed.
* hosts configured (``--hosts``, ``REPRO_SWEEP_HOSTS`` or
  :func:`repro.experiments.remote.configure_sweep_hosts`) — cells go to
  ``repro worker`` processes over TCP instead. The host list overrides
  ``jobs``: the hosts *are* the parallelism.

:func:`sweep_workers` makes that choice, once, for every sweep: both
:func:`stream_map` and the batched executor in
:mod:`repro.experiments.sweepspec` ask it.

Either way each worker gets a contiguous partition of the cells, with a
couple in flight at a time; chunks stream back as cells finish, the
parent merges each cell's cache delta via
:func:`repro.sim.cache.merge_simulation_cache` the moment it lands and
re-sorts results by index on the fly, so :func:`stream_map` yields
``(0, r0), (1, r1), …`` in input order long before the last cell
computes. Duplicate keys across workers must resolve bit-identically
(asserted in debug mode) — the simulator is pure, so anything else is a
bug. Several threads (the serve daemon's runners) may sweep over the
same workers at once.

A worker that dies is seen at once as EOF on its link; its cells
without a received result recompute in-parent, so the sweep's output
is identical to a healthy run.

Worker warmth
-------------

Nothing is pushed to workers at dispatch. A worker is warm through
three paths that cost the sweep nothing up front:

* **fork inheritance** — a freshly forked worker starts with a copy of
  the parent's whole in-memory cache;
* **its own LRU** — a persistent worker keeps what it computed or
  loaded in earlier sweeps of the invocation;
* **the shared disk tier** — with a cache directory configured, a
  worker lazily loads any entry the parent or another worker spilled.

Entries merged into the parent after the fork are therefore not in a
reused worker's memory; without a disk tier such a worker recomputes
them. Results are unaffected either way: warmth moves only hit
counters and wall-clock.

Cancellation contract
---------------------

Closing a :func:`stream_map` generator early (``break`` in a consumer
loop, ``.close()``) stops dispatching new cells immediately; the
bounded handful already in flight finish in their workers, their cache
deltas are merged so the cache stays consistent, and the persistent
workers remain usable for the next sweep. :func:`last_sweep_execution`
records the early exit (``cancelled=True`` with ``completed`` < tasks).

Degradation contract
--------------------

``jobs=1``, a single task, or a platform without ``fork`` (Windows,
some sandboxes) all stream the plain serial loop in-process — no
workers, no pickling, bit-identical to the pre-parallel code path (and
the serial path *still* yields each result as it is computed, so
incremental emission works without workers). Nested calls (a task
function that itself calls :func:`stream_map` / :func:`parallel_map`)
also degrade to serial inside workers rather than forking
grandchildren.
"""

from __future__ import annotations

import atexit
import os
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

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Set in workers (forked or ``repro worker``) so nested parallel_map
#: calls degrade to serial instead of forking grandchildren.
_IN_WORKER = False

#: The one validation message for a negative worker count, shared by
#: every layer that resolves ``jobs`` (library sweeps, specs, the CLI).
NEGATIVE_JOBS_ERROR = (
    "jobs must be >= 0 (0 or None = one worker per CPU), got {jobs}"
)


def fork_available() -> bool:
    """Whether this platform can fork worker processes."""
    return hasattr(os, "fork")


def resolve_jobs(jobs: Optional[int], tasks: int) -> int:
    """The worker count actually used for ``tasks`` items.

    ``None`` (or ``0``) means "auto": one worker per available CPU.
    Negative values raise :class:`ConfigurationError` with the shared
    :data:`NEGATIVE_JOBS_ERROR` message. The result is clamped to the
    task count, and collapses to 1 when the platform lacks ``fork`` or
    when already inside a worker — the serial degradation contract.
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
    #: Cells recomputed in-parent after their worker died mid-sweep (0
    #: in healthy runs).
    redispatched_cells: int = 0
    #: Which workers ran the sweep: ``"serial"`` (in-process loop),
    #: ``"fork"`` (the local forked pool), or ``"socket"`` (TCP hosts).
    backend: str = "fork"
    #: Socket-backend topology: the hosts dispatched to and how many
    #: cells each completed (empty for serial/fork sweeps).
    hosts: Tuple[str, ...] = ()
    host_cells: Tuple[Tuple[str, int], ...] = ()
    #: Bytes of pickled cache-delta blobs the workers shipped back (0
    #: for serial sweeps and for warm replays).
    delta_bytes_received: int = 0


#: Report of the most recent stream_map call (diagnostics/tests).
_LAST_EXECUTION: Optional[SweepExecution] = None


def last_sweep_execution() -> Optional[SweepExecution]:
    """The most recent :func:`stream_map` execution report, if any."""
    return _LAST_EXECUTION


def _mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


#: The persistent forked workers (``remote._Link`` objects). Created
#: lazily by the first fanned-out sweep, reused by every later sweep in
#: the invocation, rebuilt when a sweep needs more, and torn down atexit
#: (or via :func:`shutdown_worker_pool`).
_POOL: List[Any] = []
_ATEXIT_REGISTERED = False

#: Whether a long-lived owner (the serve daemon) holds the pool. An
#: owned pool is excluded from the ambient atexit teardown and is never
#: rebuilt wider by a passing sweep — the owner provisioned its width
#: and tears it down itself via :func:`release_worker_pool`.
_POOL_OWNED = False

#: Serializes pool creation/teardown: the serve daemon dispatches
#: concurrent sweeps onto the shared pool from multiple runner threads.
_POOL_LOCK = threading.Lock()

#: Cumulative count of cells sent to workers by this process (in-parent
#: recovery excluded). Tests use deltas of this to pin "exactly one
#: sweep's worth of compute happened".
_DISPATCHED_TASKS = 0
_DISPATCH_LOCK = threading.Lock()


def dispatched_task_count() -> int:
    """Cumulative cells this process has sent to workers."""
    return _DISPATCHED_TASKS


def _count_dispatch() -> None:
    global _DISPATCHED_TASKS
    with _DISPATCH_LOCK:
        _DISPATCHED_TASKS += 1


def _get_pool(n_jobs: int) -> Tuple[List[Any], bool]:
    """Links to ``n_jobs`` live forked workers, and whether they existed.

    A wider-than-needed pool is reused as-is (surplus workers idle
    through the sweep): ``n_jobs`` is clamped to the task count, so a
    small sweep following a large one must not tear down — and
    re-fork — the pool the large sweeps amortize. An *owned* pool is
    never rebuilt either: a sweep asking for more workers than the
    owner provisioned runs at the owned width instead. Workers that
    died since the last sweep are re-forked in place.
    """
    with _POOL_LOCK:
        reused = 0 < len(_POOL) and len(_POOL) >= n_jobs
        _ensure_pool_locked(n_jobs)
        return _POOL[:n_jobs], reused


def _ensure_pool_locked(n_jobs: int) -> None:
    global _ATEXIT_REGISTERED
    from repro.experiments.remote import fork_workers

    if _POOL and len(_POOL) < n_jobs and not _POOL_OWNED:
        _shutdown_pool_locked()
    for position, link in enumerate(_POOL):
        if not link.alive:
            link.close()
            _POOL[position] = fork_workers(1)[0]
    if not _POOL:
        _POOL.extend(fork_workers(n_jobs))
    if not _ATEXIT_REGISTERED:
        atexit.register(_ambient_pool_teardown)
        _ATEXIT_REGISTERED = True


def shutdown_worker_pool() -> None:
    """Tear down the persistent worker pool, if one is alive.

    Safe to call at any time (idempotent); the next fanned-out sweep
    simply forks a fresh pool. This is the *explicit* teardown and
    applies even to an owned pool — owners wanting their pool spared
    from housekeeping are protected only from the ambient atexit hook
    (:func:`_ambient_pool_teardown`), not from a deliberate call.

    Also tears down the TCP half, when it was ever used: host links
    close and loopback ``repro worker`` subprocesses are reaped, so no
    test or shutdown path leaks them.
    """
    with _POOL_LOCK:
        _shutdown_pool_locked()
    remote = sys.modules.get("repro.experiments.remote")
    if remote is not None:
        remote.shutdown_remote_workers()


def _shutdown_pool_locked() -> None:
    """Hang up on every forked worker (each exits at EOF) and reap it."""
    links, _POOL[:] = list(_POOL), []
    for link in links:
        link.close()


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
    jobs = resolve_jobs(jobs, sys.maxsize)
    if _IN_WORKER or not fork_available():
        return 1
    with _POOL_LOCK:
        if jobs > 1:
            _ensure_pool_locked(jobs)
        _POOL_OWNED = True
        return len(_POOL) or 1


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
    return len(_POOL)


def worker_pool_pids() -> Tuple[int, ...]:
    """PIDs of the pool's live forked workers (diagnostics/tests)."""
    return tuple(sorted(link.pid for link in list(_POOL) if link.alive))


def sweep_workers(jobs: Optional[int], tasks: int) -> Tuple[str, int]:
    """Where a sweep of ``tasks`` cells runs: ``(backend, width)``.

    The one decision every sweep shares. Configured hosts (``--hosts``,
    ``REPRO_SWEEP_HOSTS`` or
    :func:`repro.experiments.remote.configure_sweep_hosts`) override
    ``jobs``: the backend is ``"socket"`` and the width is the host
    count. Otherwise :func:`resolve_jobs` picks the width: ``"fork"``
    above one worker, ``"serial"`` at one. A single task, or a sweep
    inside a worker, never leaves the process.
    """
    if tasks > 1 and not _IN_WORKER:
        # Imported lazily so a single-cell sweep never loads the
        # remote module.
        from repro.experiments import remote

        hosts = remote.active_sweep_hosts()
        if hosts:
            return "socket", len(hosts)
    width = resolve_jobs(jobs, tasks)
    return ("fork" if width > 1 else "serial"), width


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
    return stream_on(
        sweep_workers(jobs, len(items)), fn, items, progress, deadline
    )


def stream_on(
    workers: Tuple[str, int],
    fn: Callable[[_T], _R],
    items: List[_T],
    progress: Optional[Callable[[int, int], None]] = None,
    deadline: Optional[float] = None,
) -> Iterator[Tuple[int, _R]]:
    """:func:`stream_map` on the workers :func:`sweep_workers` picked.

    For callers that plan on one item count and dispatch another: the
    batched executor plans on a grid's cells, then streams one chunk
    per worker.
    """
    backend, width = workers
    if backend == "serial":
        return _serial_stream(fn, items, progress, deadline=deadline)
    from repro.experiments import remote

    if backend == "socket":
        links, reused = remote.live_host_links(remote.active_sweep_hosts())
    else:
        links, reused = _get_pool(width)
    return remote.link_stream(
        fn, items, links, progress, deadline, backend=backend, reused=reused
    )


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
