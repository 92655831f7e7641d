"""The ``repro serve`` daemon: sweeps as a long-lived local service.

One process owns the warm serving state every CLI invocation otherwise
rebuilds from scratch — the persistent forked worker pool and the
two-tier simulation cache — and serves sweep requests over a local UNIX
socket (:mod:`repro.serve.protocol`). The request path is::

    connection → admission queue → coalescing table → shared pool
                                                    ↘ row fan-out

* **Admission**: each sweep request enters a priority queue (lower
  ``priority`` first, FIFO within a priority); ``max_active`` runner
  threads drain it, bounding how many sweeps contend for the ONE
  shared pool at a time.
* **Coalescing**: requests are keyed by their canonical request key
  (:func:`repro.experiments.sweepspec.spec_request_key` — scenario
  name + axes + result-schema fingerprint). A request whose key
  matches a queued or running sweep *attaches as a subscriber* instead
  of being admitted: every subscriber receives the complete
  index-sorted row stream (rows are buffered for late joiners), so N
  identical concurrent requests cost one compute.
* **Cache-hit fast path**: before touching the pool, a runner probes
  every simulation the sweep's cells will request (the spec's
  ``batchable`` rule enumerates them; the probe is counter-neutral).
  A fully-warm request streams straight out of the two-tier cache on
  the runner thread, ``jobs=1`` — the pool never sees it.
* **Lifecycle**: an admitted job moves ``queued → running →
  {finished, cancelled, deadline_exceeded, error}``. When the last
  subscriber hangs up the job is orphaned and the runner cancels it —
  closing the sweep stream rides the executor's early-exit path, so
  pool dispatch stops within one in-flight window and nobody burns the
  pool on rows no one will read. ``deadline_s`` requests expire in the
  queue without touching the pool, or stop within one streamed cell
  once running; ``{"op": "cancel", "key": ...}`` force-cancels by
  request key. Optional per-client token buckets rate-limit admission
  across both the socket and HTTP transports
  (:mod:`repro.serve.http`).
* **Fault degradation**: a killed pool worker is ridden out by the
  executor's worker-loss recovery (lost cells recompute in-parent,
  receipts de-duplicate), and a corrupt disk-cache entry reads as a miss and
  recomputes — in both cases the affected stream completes correctly
  and other clients' streams are never dropped.
* **Drain** (SIGTERM path): stop accepting, unlink the socket, let
  queued and in-flight sweeps finish (their subscribers get complete
  streams), flush the in-memory cache to the disk tier, release the
  owned pool. New connections after drain starts are refused — by a
  clean ``error`` line while the listener is mid-close, by a missing
  socket after.

The daemon owns the pool through
:func:`repro.experiments.parallel.claim_worker_pool`, which also
excludes it from the module's ambient atexit teardown (the fix that
rode along with this daemon: atexit used to race an owner's drain).
"""

from __future__ import annotations

import json
import os
import queue
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import repro.experiments  # noqa: F401  (registers every sweep scenario)
from repro.errors import ConfigurationError, DeadlineExceededError
from repro.experiments.parallel import (
    claim_worker_pool,
    release_worker_pool,
    worker_pool_owned,
    worker_pool_pids,
    worker_pool_size,
)
from repro.experiments.remote import (
    executor_topology,
    shutdown_remote_workers,
)
from repro.experiments.sweepspec import (
    get_scenario,
    jsonl_line,
    spec_request_key,
)
from repro.serve.inline import build_request_spec
from repro.serve.protocol import (
    LISTEN_BACKLOG,
    LineChannel,
    control_line,
    default_socket_path,
    escape_row_line,
)
from repro.sim.cache import (
    flush_simulation_cache_to_disk,
    prefetch_simulation_keys,
    simulation_cache_contains,
    simulation_cache_dir,
    simulation_cache_disk,
    simulation_cache_stats,
)
from repro.sim.pipeline import tile_stream_key

#: How long a runner waits on the admission queue per poll; bounds how
#: quickly runners notice a drain, not request latency.
_ADMISSION_POLL_S = 0.25

#: Read timeout on a fresh connection's request line — a client that
#: connects and sends nothing must not pin a handler thread forever.
_REQUEST_READ_TIMEOUT_S = 30.0


class _EndOfStream:
    """Terminal fan-out item: carries the subscriber's ``end`` line."""

    __slots__ = ("line",)

    def __init__(self, line: str) -> None:
        self.line = line


class _SweepJob:
    """One admitted sweep, its subscriber fan-out, and its lifecycle.

    Rows are buffered for the job's whole lifetime (sweeps are
    thousands of rows at most), so a subscriber attaching at *any*
    point — even after the sweep finished but before the job leaves the
    coalescing table — replays the complete index-sorted stream. The
    publishing runner holds the job lock only to append/fan-out, never
    while computing.

    Lifecycle: ``queued → running → {finished, cancelled,
    deadline_exceeded, error}``. The job tracks its live subscriber
    count: when the *last* subscriber detaches from an unfinished job
    the job is marked orphaned, and the runner retires it with a
    ``cancelled`` terminal at its next between-cell check — nobody is
    left who will ever read the rows. A new subscriber attaching first
    (a coalescing near-miss) clears the orphan mark and the sweep keeps
    going. An explicit ``cancel`` verb sets a sticky force-cancel that
    no late attach can undo.
    """

    def __init__(
        self,
        key: str,
        spec: Any,
        priority: int,
        deadline: Optional[float] = None,
    ) -> None:
        self.key = key
        self.spec = spec
        self.priority = priority
        #: Absolute :func:`time.monotonic` expiry, fixed at admission by
        #: the first request; coalescing subscribers inherit it.
        self.deadline = deadline
        self.lock = threading.Lock()
        self.rows: List[str] = []
        self.subscribers: "List[Any]" = []
        self.finished = False
        self.terminal: Optional[str] = None
        self.state = "queued"
        self._orphaned = False
        self._force_cancelled = False

    def attach(self) -> "queue.Queue[Any]":
        """Subscribe: replay buffered rows, then receive live ones."""
        feed: "queue.Queue[Any]" = queue.Queue()
        with self.lock:
            for line in self.rows:
                feed.put(line)
            if self.finished:
                feed.put(_EndOfStream(self.terminal or ""))
            else:
                self.subscribers.append(feed)
                self._orphaned = False
        return feed

    def detach(self, feed: Any) -> None:
        """Drop one subscriber (client hung up).

        With other subscribers still attached the shared sweep keeps
        going; dropping the *last* one orphans the job, which the
        runner turns into a ``cancelled`` retirement.
        """
        with self.lock:
            try:
                self.subscribers.remove(feed)
            except ValueError:
                pass
            if not self.subscribers and not self.finished:
                self._orphaned = True

    def cancel(self) -> bool:
        """Force-cancel (the ``cancel`` verb); False once finished."""
        with self.lock:
            if self.finished:
                return False
            self._force_cancelled = True
            return True

    def stop_reason(self) -> Optional[str]:
        """Why the runner should stop now, or ``None`` to keep going.

        Checked between streamed cells: ``"cancelled"`` for a forced or
        orphaned job, ``"deadline_exceeded"`` past the deadline.
        """
        with self.lock:
            if self._force_cancelled:
                return "cancelled"
            if self._orphaned and not self.subscribers:
                return "cancelled"
        if (
            self.deadline is not None
            and time.monotonic() >= self.deadline
        ):
            return "deadline_exceeded"
        return None

    def subscriber_count(self) -> int:
        with self.lock:
            return len(self.subscribers)

    def publish(self, line: str) -> None:
        with self.lock:
            self.rows.append(line)
            for feed in self.subscribers:
                feed.put(line)

    def finish(self, terminal: str, state: str = "finished") -> None:
        with self.lock:
            self.finished = True
            self.terminal = terminal
            self.state = state
            for feed in self.subscribers:
                feed.put(_EndOfStream(terminal))
            self.subscribers.clear()


class _TokenBucket:
    """Per-client admission rate limiter (``rate`` tokens/s, capacity
    ``burst``); caller holds the daemon's bucket lock."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.stamp = time.monotonic()

    def allow(self) -> bool:
        now = time.monotonic()
        self.tokens = min(
            self.burst, self.tokens + (now - self.stamp) * self.rate
        )
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class ServeDaemon:
    """The sweep-serving daemon; embeddable (tests) or CLI-run.

    ``start()`` binds the socket and spins up the accept and runner
    threads; ``drain()`` performs the graceful shutdown. Both are safe
    to call exactly once each, from any thread.
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        jobs: int = 2,
        max_active: int = 2,
        rate_limit: Optional[float] = None,
        rate_burst: Optional[float] = None,
        preload: Optional[List[str]] = None,
    ) -> None:
        if max_active < 1:
            raise ConfigurationError(
                f"max_active must be >= 1, got {max_active}"
            )
        if rate_limit is not None and rate_limit <= 0:
            raise ConfigurationError(
                f"rate_limit must be > 0 sweeps/s, got {rate_limit}"
            )
        self.socket_path = socket_path or default_socket_path()
        self.jobs = jobs
        self.max_active = max_active
        #: Per-client sweep-admission rate (sweeps/s; ``None`` = off)
        #: and bucket capacity. One bucket per client identity — the
        #: peer UID on the UNIX socket, the peer address over HTTP — so
        #: the limit covers both transports with the same accounting.
        self.rate_limit = rate_limit
        self.rate_burst = (
            rate_burst
            if rate_burst is not None
            else (max(2.0, 2.0 * rate_limit) if rate_limit else 0.0)
        )
        self._buckets: Dict[str, _TokenBucket] = {}
        self._buckets_lock = threading.Lock()
        self._admission: "queue.PriorityQueue[Any]" = queue.PriorityQueue()
        self._table: Dict[str, _SweepJob] = {}
        self._table_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._seq = 0
        self._requests = 0
        self._coalesced = 0
        self._fast_path = 0
        self._sweeps_computed = 0
        self._errors = 0
        self._cancelled = 0
        self._deadline_exceeded = 0
        self._rate_limited = 0
        self._active = 0
        self._draining = False
        self._drained = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._runner_threads: List[threading.Thread] = []
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_threads: "set[threading.Thread]" = set()
        self._conn_lock = threading.Lock()
        self._started_monotonic = 0.0
        self._pool_width = 1
        #: Scenario names whose simulation keys are prefetched from the
        #: disk tier into the memory LRU at startup (the hot
        #: ``spec_request_key`` prefixes a restarted daemon should
        #: serve through the fast path without lazy disk loads).
        self.preload = tuple(preload or ())
        self._preload_warmed = 0
        self._preload_keys = 0
        self._preload_done = not self.preload
        self._preload_thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Bind the socket, claim the pool, start accepting requests."""
        self._cleanup_stale_socket()
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(self.socket_path)
        except OSError as error:
            listener.close()
            raise ConfigurationError(
                f"cannot bind serve socket {self.socket_path}: {error}"
            )
        listener.listen(LISTEN_BACKLOG)
        self._listener = listener
        self._pool_width = claim_worker_pool(self.jobs)
        self._started_monotonic = time.monotonic()
        for slot in range(self.max_active):
            thread = threading.Thread(
                target=self._runner, name=f"serve-runner-{slot}", daemon=True
            )
            thread.start()
            self._runner_threads.append(thread)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        self._accept_thread.start()
        if self.preload and simulation_cache_disk() is not None:
            self._preload_thread = threading.Thread(
                target=self._preload_hot_scenarios,
                name="serve-preload",
                daemon=True,
            )
            self._preload_thread.start()

    def _preload_hot_scenarios(self) -> None:
        """Warm the memory LRU from disk for the configured scenarios.

        Runs in the background so startup latency is unaffected; each
        scenario's batchable rule enumerates the exact simulation keys
        its cells will look up (the same walk the fast-path probe
        does), and :func:`prefetch_simulation_keys` promotes whatever
        the disk tier holds — counter-neutrally, so the first real
        request's cache accounting is untouched. Unknown scenarios,
        specs without a batchable rule, and disk errors all degrade to
        a cold start, never a failed one. Stops within one entry when a
        drain begins.
        """
        keys: List[Any] = []
        seen: set = set()
        for name in self.preload:
            try:
                spec = get_scenario(name).build()
                rule = getattr(spec, "batchable", None)
                if rule is None:
                    continue
                for cell in spec.cells():
                    for system, timing, tiles in rule.sims(cell):
                        key = tile_stream_key(system, timing, tiles)
                        if key not in seen:
                            seen.add(key)
                            keys.append(key)
            except Exception:
                continue
        with self._stats_lock:
            self._preload_keys = len(keys)
        warmed = prefetch_simulation_keys(
            keys, should_stop=lambda: self._draining
        )
        with self._stats_lock:
            self._preload_warmed = warmed
            self._preload_done = True

    def _cleanup_stale_socket(self) -> None:
        """Unlink a dead predecessor's socket file; refuse a live one.

        A daemon killed with SIGKILL leaves its bound socket file
        behind; ``bind()`` would fail with ``EADDRINUSE`` even though
        nothing is listening. A connect probe tells the two apart:
        refused (or any immediate error) means stale.
        """
        if not os.path.exists(self.socket_path):
            return
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        probe.settimeout(1.0)
        try:
            probe.connect(self.socket_path)
        except OSError:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
            return
        finally:
            probe.close()
        raise ConfigurationError(
            f"a daemon is already serving on {self.socket_path}"
        )

    def drain(self, timeout: Optional[float] = 60.0) -> None:
        """Graceful shutdown: finish admitted work, persist, tear down.

        Queued and running sweeps complete and their subscribers
        receive full streams; new sweep requests are refused from the
        moment drain starts. The in-memory cache is flushed to the disk
        tier (if one is configured) and the owned pool released.
        Idempotent; concurrent callers block until the first finishes.
        """
        with self._table_lock:
            if self._draining:
                self._drained.wait(timeout)
                return
            self._draining = True
        listener = self._listener
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        # Stop sentinels sort after every real priority, so runners
        # finish all admitted sweeps before exiting.
        for _ in range(self.max_active):
            self._admission.put((float("inf"), self._next_seq(), None))
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._runner_threads:
            thread.join(self._remaining(deadline))
        with self._conn_lock:
            conn_threads = list(self._conn_threads)
        for thread in conn_threads:
            thread.join(self._remaining(deadline))
        flush_simulation_cache_to_disk()
        # Unconditionally symmetric with start()'s claim_worker_pool():
        # a width-1 claim forks no pool but is still a claim, and must
        # still be released (the leak this replaces skipped release
        # whenever the claimed width came back 1).
        release_worker_pool()
        # The SIGTERM drain must also close socket-worker connections
        # and reap loopback `repro worker` subprocesses — a daemon
        # dispatching to --hosts workers exits leaving none behind.
        shutdown_remote_workers()
        self._drained.set()

    @staticmethod
    def _remaining(deadline: Optional[float]) -> Optional[float]:
        if deadline is None:
            return None
        return max(0.0, deadline - time.monotonic())

    def _next_seq(self) -> int:
        with self._stats_lock:
            self._seq += 1
            return self._seq

    # -- admission + coalescing ----------------------------------------

    def _check_rate(self, client_id: Optional[str]) -> None:
        """Charge one admission token; raise when the client is over."""
        if self.rate_limit is None:
            return
        name = client_id or "unknown"
        with self._buckets_lock:
            bucket = self._buckets.get(name)
            if bucket is None:
                bucket = _TokenBucket(self.rate_limit, self.rate_burst)
                self._buckets[name] = bucket
            allowed = bucket.allow()
        if not allowed:
            with self._stats_lock:
                self._rate_limited += 1
            raise ConfigurationError(
                f"rate limited: client {name} exceeded "
                f"{self.rate_limit:g} sweeps/s "
                f"(burst {self.rate_burst:g}); retry later"
            )

    @staticmethod
    def _request_deadline(request: Dict[str, Any]) -> Optional[float]:
        """The absolute monotonic deadline a request asks for, if any."""
        deadline_s = request.get("deadline_s")
        if deadline_s is None:
            return None
        try:
            seconds = float(deadline_s)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"deadline_s must be a positive number, got {deadline_s!r}"
            )
        if seconds <= 0:
            raise ConfigurationError(
                f"deadline_s must be a positive number, got {deadline_s!r}"
            )
        return time.monotonic() + seconds

    def _admit_sweep(
        self, request: Dict[str, Any], client_id: Optional[str] = None
    ) -> Tuple[_SweepJob, Any, bool]:
        """Admit (or coalesce) one sweep request.

        Returns ``(job, subscriber_feed, coalesced)``. Lookup-or-create
        runs under the table lock, so two simultaneous identical
        requests can never both admit a compute — the loser of the race
        always finds the winner's job and attaches. A coalescing
        subscriber inherits the job's deadline (fixed by the first
        request); the per-client token bucket is charged before any
        spec is built.
        """
        self._check_rate(client_id)
        deadline = self._request_deadline(request)
        spec = build_request_spec(request)
        key = spec_request_key(spec)
        priority = int(request.get("priority", 0))
        with self._table_lock:
            if self._draining:
                raise ConfigurationError(
                    "daemon is draining and not accepting new work"
                )
            job = self._table.get(key)
            if job is not None:
                feed = job.attach()
                with self._stats_lock:
                    self._requests += 1
                    self._coalesced += 1
                return job, feed, True
            job = _SweepJob(
                key=key, spec=spec, priority=priority, deadline=deadline
            )
            feed = job.attach()
            self._table[key] = job
            self._admission.put((priority, self._next_seq(), job))
        with self._stats_lock:
            self._requests += 1
        return job, feed, False

    def cancel_sweep(self, key: str) -> bool:
        """Force-cancel the admitted sweep with ``key`` (the ``cancel``
        verb); True when a live job was found and marked."""
        with self._table_lock:
            job = self._table.get(key)
        if job is None:
            return False
        return job.cancel()

    # -- runners -------------------------------------------------------

    def _runner(self) -> None:
        while True:
            try:
                _, _, job = self._admission.get(timeout=_ADMISSION_POLL_S)
            except queue.Empty:
                continue
            if job is None:
                return
            self._run_job(job)

    def _fully_warm(self, spec: Any) -> bool:
        """Whether every simulation the sweep needs is already cached.

        Only specs with a ``batchable`` rule can enumerate their
        simulations up front; anything else always takes the pool path.
        The probe uses the pipeline's own key builder
        (:func:`repro.sim.pipeline.tile_stream_key`), so probed keys
        match what the cells will actually look up — ``extra`` slot
        included.
        """
        rule = getattr(spec, "batchable", None)
        if rule is None:
            return False
        try:
            cells = spec.cells()
        except Exception:
            return False
        probed = 0
        for cell in cells:
            for system, timing, tiles in rule.sims(cell):
                key = tile_stream_key(system, timing, tiles)
                if not simulation_cache_contains(key):
                    return False
                probed += 1
        return probed > 0

    def _retire_stopped(self, job: _SweepJob, reason: str, rows: int) -> None:
        """Retire a cancelled or deadline-expired job with its terminal."""
        if reason == "deadline_exceeded":
            with self._stats_lock:
                self._deadline_exceeded += 1
            job.finish(
                control_line(
                    "error",
                    error=(
                        "deadline_exceeded: sweep missed its deadline "
                        f"after {rows} row(s)"
                    ),
                    state="deadline_exceeded",
                    rows=rows,
                ),
                state="deadline_exceeded",
            )
        else:
            with self._stats_lock:
                self._cancelled += 1
            job.finish(
                control_line("cancelled", rows=rows), state="cancelled"
            )

    def _run_job(self, job: _SweepJob) -> None:
        with self._stats_lock:
            self._active += 1
        memory_before = simulation_cache_stats()
        disk = simulation_cache_disk()
        disk_before = disk.stats() if disk is not None else None
        rows_emitted = 0
        try:
            # A job may already be dead on arrival: every subscriber
            # hung up while it sat queued, it was cancelled by key, or
            # its deadline passed in the queue. Drop it here — the pool
            # is never touched.
            stopped = job.stop_reason()
            if stopped is not None:
                self._retire_stopped(job, stopped, rows_emitted)
                return
            job.state = "running"
            fast = self._fully_warm(job.spec)
            jobs = 1 if fast else self._pool_width
            stream = job.spec.stream(jobs=jobs, deadline=job.deadline)
            try:
                for cell in stream:
                    for row in job.spec.rows_for(cell):
                        job.publish(escape_row_line(jsonl_line(row)))
                        rows_emitted += 1
                    stopped = job.stop_reason()
                    if stopped is not None:
                        break
            except DeadlineExceededError:
                stopped = "deadline_exceeded"
            finally:
                # Breaking out (cancel/deadline) closes the underlying
                # stream_map generator: dispatch stops immediately and
                # the in-flight window drains, leaving the shared pool
                # quiescent for the next sweep.
                stream.close()
            if stopped is not None:
                self._retire_stopped(job, stopped, rows_emitted)
                return
            memory_delta = simulation_cache_stats().since(memory_before)
            disk_now = simulation_cache_disk()
            disk_delta = (
                disk_now.stats().since(disk_before)
                if disk_before is not None and disk_now is not None
                else None
            )
            with self._stats_lock:
                if fast:
                    self._fast_path += 1
                else:
                    self._sweeps_computed += 1
            job.finish(
                control_line(
                    "end",
                    state="finished",
                    rows=rows_emitted,
                    fast_path=fast,
                    cache={
                        "hits": memory_delta.hits,
                        "misses": memory_delta.misses,
                        "disk_hits": memory_delta.disk_hits,
                    },
                    disk=(
                        None
                        if disk_delta is None
                        else {
                            "hits": disk_delta.hits,
                            "misses": disk_delta.misses,
                            "errors": disk_delta.errors,
                            "stores": disk_delta.stores,
                        }
                    ),
                )
            )
        except Exception as error:
            with self._stats_lock:
                self._errors += 1
            job.finish(
                control_line(
                    "error",
                    error=f"{type(error).__name__}: {error}",
                    state="error",
                ),
                state="error",
            )
        finally:
            with self._table_lock:
                if self._table.get(job.key) is job:
                    del self._table[job.key]
            with self._stats_lock:
                self._active -= 1

    # -- connections ---------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        assert listener is not None
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # listener closed: drain started
            thread = threading.Thread(
                target=self._handle_connection,
                args=(conn,),
                name="serve-conn",
                daemon=True,
            )
            # Handlers remove themselves on exit (under the same lock),
            # so this set never needs pruning here — the reassignment
            # prune this replaces raced drain()'s iteration.
            with self._conn_lock:
                self._conn_threads.add(thread)
            thread.start()

    @staticmethod
    def _peer_client_id(conn: socket.socket) -> str:
        """The UNIX peer's identity for rate-limit accounting (its UID)."""
        try:
            import struct

            creds = conn.getsockopt(
                socket.SOL_SOCKET, socket.SO_PEERCRED, struct.calcsize("3i")
            )
            _pid, uid, _gid = struct.unpack("3i", creds)
            return f"uid:{uid}"
        except (OSError, AttributeError, struct.error):
            return "unix"

    def _handle_connection(self, conn: socket.socket) -> None:
        conn.settimeout(_REQUEST_READ_TIMEOUT_S)
        channel = LineChannel(conn)
        try:
            raw = channel.recv_line()
            if raw is None:
                return
            conn.settimeout(None)
            try:
                request = json.loads(raw)
            except ValueError as error:
                channel.send_line(
                    control_line("error", error=f"malformed request: {error}")
                )
                return
            if not isinstance(request, dict):
                channel.send_line(
                    control_line("error", error="request must be an object")
                )
                return
            op = request.get("op")
            if op == "ping":
                channel.send_line(control_line("pong"))
            elif op == "status":
                channel.send_line(
                    control_line("status", **self.status_snapshot())
                )
            elif op == "sweep":
                self._serve_sweep(
                    channel, request, client_id=self._peer_client_id(conn)
                )
            elif op == "cancel":
                key = request.get("key")
                found = (
                    self.cancel_sweep(str(key)) if key is not None else False
                )
                channel.send_line(
                    control_line("cancelled", key=key, found=found)
                )
            else:
                channel.send_line(
                    control_line("error", error=f"unknown op {op!r}")
                )
        except (BrokenPipeError, ConnectionResetError, OSError, ValueError):
            pass  # client went away mid-handshake; nothing to clean up
        finally:
            channel.close()
            with self._conn_lock:
                self._conn_threads.discard(threading.current_thread())

    def _serve_sweep(
        self,
        channel: LineChannel,
        request: Dict[str, Any],
        client_id: Optional[str] = None,
    ) -> None:
        try:
            job, feed, coalesced = self._admit_sweep(
                request, client_id=client_id
            )
        except ConfigurationError as error:
            channel.send_line(control_line("error", error=str(error)))
            return
        except Exception as error:
            # An unexpected admit failure (a registry builder blowing
            # up on exotic inline payloads, say) must still answer with
            # an error line — unwinding silently would hand the client
            # a bare EOF with nothing to diagnose by.
            with self._stats_lock:
                self._errors += 1
            channel.send_line(
                control_line(
                    "error", error=f"{type(error).__name__}: {error}"
                )
            )
            return
        try:
            channel.send_line(
                control_line("ack", key=job.key, coalesced=coalesced)
            )
            while True:
                item = feed.get()
                if isinstance(item, _EndOfStream):
                    channel.send_line(item.line)
                    return
                channel.send_line(item)
        except (BrokenPipeError, ConnectionResetError, OSError, ValueError):
            # This client hung up mid-stream. Only its subscription is
            # dropped; a sweep shared with other subscribers carries
            # on, while dropping the *last* subscription orphans the
            # job and the runner cancels it (see _SweepJob).
            job.detach(feed)

    # -- introspection -------------------------------------------------

    def status_snapshot(self) -> Dict[str, Any]:
        """The daemon's health/stats document (the ``status`` op)."""
        with self._stats_lock:
            snapshot = {
                "socket": self.socket_path,
                "draining": self._draining,
                "uptime_s": round(
                    time.monotonic() - self._started_monotonic, 3
                ),
                "requests": self._requests,
                "coalesced": self._coalesced,
                "fast_path": self._fast_path,
                "sweeps_computed": self._sweeps_computed,
                "errors": self._errors,
                "cancelled": self._cancelled,
                "deadline_exceeded": self._deadline_exceeded,
                "rate_limited": self._rate_limited,
                "active": self._active,
                "queued": self._admission.qsize(),
                "max_active": self.max_active,
            }
        with self._table_lock:
            jobs = list(self._table.values())
        snapshot["jobs"] = [
            {
                "key": job.key,
                "state": job.state,
                "subscribers": job.subscriber_count(),
                "rows": len(job.rows),
                "priority": job.priority,
            }
            for job in jobs
        ]
        stats = simulation_cache_stats()
        snapshot["pool"] = {
            "width": worker_pool_size(),
            "owned": worker_pool_owned(),
            "pids": list(worker_pool_pids()),
        }
        # Executor topology: which backend sweeps dispatch through
        # (fork or socket), the configured hosts, per-host cells
        # completed, and cumulative cache-delta traffic.
        snapshot["executor"] = executor_topology()
        snapshot["cache"] = {
            "entries": stats.size,
            "hits": stats.hits,
            "misses": stats.misses,
            "disk_hits": stats.disk_hits,
            "dir": simulation_cache_dir(),
        }
        with self._stats_lock:
            snapshot["preload"] = {
                "scenarios": list(self.preload),
                "keys": self._preload_keys,
                "warmed": self._preload_warmed,
                "done": self._preload_done,
            }
        disk = simulation_cache_disk()
        if disk is not None:
            disk_stats = disk.stats()
            storage = disk.storage_snapshot()
            storage.update(
                {
                    "hits": disk_stats.hits,
                    "misses": disk_stats.misses,
                    "stores": disk_stats.stores,
                    "skipped_stores": disk_stats.skipped_stores,
                    "errors": disk_stats.errors,
                    "pack_commits": disk_stats.pack_commits,
                }
            )
            snapshot["disk"] = storage
        else:
            snapshot["disk"] = None
        return snapshot
