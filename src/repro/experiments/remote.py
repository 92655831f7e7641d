"""Socket-transport sweep executor: dispatch cells to host workers.

The second executor backend behind :func:`repro.experiments.parallel
.stream_map`. Where the fork backend fans cells out to forked pool
workers on *this* host, this module dispatches contiguous cell
partitions to N worker processes reachable over TCP — remote hosts
running the same wheel, or loopback subprocesses spawned by
:func:`start_loopback_workers` — and streams ``(index, result,
cache_delta)`` chunks back through the exact same incremental-merge /
index-sort path, so results are bit-identical to the serial and fork
paths (the simulator is pure; only warmth and wall-clock differ).

Wire protocol
-------------

Messages are pickled tuples behind a 4-byte big-endian length prefix
(``struct "!I"``). Every sweep gets a fresh sequence number carried by
each message, so stale frames from an aborted sweep are dropped
instead of corrupting the next one. One handshake + run conversation:

* parent → ``("sync", seq, generation)``; worker adopts the cache
  clear-generation and replies ``("state", seq, fingerprint)`` — its
  schema fingerprint, which must match the parent's.
* parent → ``("run", seq, fn, cells, deadline_s, parent_digests)``: a
  contiguous partition of ``(index, item)`` cells. The worker runs
  them in order, polling for ``("stop",)`` frames and the deadline
  between cells, and streams back one ``("chunk", seq, index, result,
  shard_payloads, extra_entries, d_hits, d_misses, d_disk)`` per
  finished cell — the cache entries the cell added, as **hash-sharded
  packed deltas**: each entry is the verbatim pack payload
  (:func:`repro.sim.diskcache.encode_entry_payload`) keyed by its
  ``key_digest``, and entries whose digest is in the parent's snapshot
  (its memory keys plus disk index) never cross the wire — then
  ``("done", seq, completed)``. A cell exception becomes ``("error",
  seq, traceback)`` and surfaces in the parent as
  :class:`repro.errors.RemoteWorkerError`.

Nothing flows parent → worker except cells: a worker stays warm through
its own memory cache across sweeps and its own disk tier. A *second*
sweep over live workers therefore ships ~0 shard bytes — the
deterministic contiguous partition hands each host the same cells
again, its memory answers them, and no new entries exist to return.

Trust model
-----------

The transport pickles arbitrary objects — connecting to a worker (or
accepting a parent) is code execution by design, exactly like the
disk cache's trust boundary. Workers bind loopback by default;
binding a routable address is an explicit operator decision for
trusted networks only (see ``docs/DISTRIBUTED.md``).

Failure semantics
-----------------

Host death mid-sweep is recovered the same way the fork backend
recovers a SIGKILLed pool worker: the reader thread reports the lost
connection, and every cell of that host's partition without a received
result is recomputed *in-parent* (receipts de-duplicate by cell index,
so a late chunk racing its recompute can never double-merge or
double-yield). Connection failure at sweep start raises
:class:`repro.errors.ConfigurationError` instead — a sweep that cannot
reach any configured host should fail loudly, not silently degrade.
"""

from __future__ import annotations

import atexit
import os
import pickle
import queue
import select
import socket
import struct
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    RemoteWorkerError,
)
from repro.experiments import parallel as _parallel
from repro.sim import cache as _simcache
from repro.sim.diskcache import (
    decode_entry_payload,
    encode_entry_payload,
    key_digest,
    schema_fingerprint,
)

#: Environment variable naming the socket workers to dispatch sweeps
#: to, as a comma-separated ``host:port`` list (the CLI's ``--hosts``
#: flag sets the same configuration explicitly).
SWEEP_HOSTS_ENV = "REPRO_SWEEP_HOSTS"

#: Upper bound on one framed message; a length prefix beyond this is a
#: desynced or hostile stream, not a payload.
MAX_FRAME_BYTES = 1 << 30

#: The stdout line a worker prints once its server socket is bound;
#: :func:`start_loopback_workers` parses the actual port out of it.
WORKER_READY_PREFIX = "repro worker: listening on "

#: Pickle protocol for wire frames (same interpreter on both ends —
#: the whole point of "runs the same wheel").
_WIRE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Seconds before a parent gives up connecting to a configured host.
_CONNECT_TIMEOUT_S = 10.0

#: Seconds the parent waits for every worker's handshake reply.
_SYNC_TIMEOUT_S = 30.0

#: Poll interval of worker accept/receive loops and the parent's event
#: waits; bounds shutdown latency, not result latency.
_POLL_S = 0.25

#: Hosts configured programmatically (CLI/tests); ``None`` means
#: "unset, fall back to the environment", ``()`` means "explicitly
#: disabled, even if the environment names hosts".
_CONFIGURED_HOSTS: Optional[Tuple[str, ...]] = None

#: The persistent worker-pool connections, reused sweep to sweep
#: (mirrors the fork backend's persistent pool).
_REMOTE_POOL: Optional["RemoteWorkerPool"] = None

#: Loopback worker subprocesses spawned by this process, reaped by
#: :func:`shutdown_remote_workers`.
_LOOPBACK_PROCS: List[subprocess.Popen] = []

#: Monotonically increasing sweep sequence number (stale-frame filter).
_SWEEP_SEQ = 0

#: Cumulative per-host topology counters for this process:
#: ``host -> {"cells", "delta_bytes_received"}``.
_HOST_TOTALS: Dict[str, Dict[str, int]] = {}


# ---------------------------------------------------------------------------
# Host configuration


def parse_hosts(raw: str) -> Tuple[str, ...]:
    """A validated ``host:port`` tuple from a comma-separated string."""
    hosts: List[str] = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, port = part.rpartition(":")
        if not sep or not name or not port.isdigit():
            raise ConfigurationError(
                f"malformed sweep host {part!r}: expected HOST:PORT"
            )
        hosts.append(f"{name}:{int(port)}")
    return tuple(hosts)


def configure_sweep_hosts(
    hosts: "Optional[Sequence[str] | str]",
) -> None:
    """Set (or clear) the socket-worker hosts for this process.

    Takes precedence over :data:`SWEEP_HOSTS_ENV`. ``None`` reverts to
    the environment; an empty sequence (or ``""``) disables socket
    dispatch outright even when the environment names hosts.
    """
    global _CONFIGURED_HOSTS
    if hosts is None:
        _CONFIGURED_HOSTS = None
    elif isinstance(hosts, str):
        _CONFIGURED_HOSTS = parse_hosts(hosts)
    else:
        _CONFIGURED_HOSTS = parse_hosts(",".join(hosts))


def active_sweep_hosts() -> Tuple[str, ...]:
    """The socket-worker hosts sweeps currently dispatch to (or ``()``).

    Explicit configuration (:func:`configure_sweep_hosts`) wins over
    the :data:`SWEEP_HOSTS_ENV` environment variable.
    """
    if _CONFIGURED_HOSTS is not None:
        return _CONFIGURED_HOSTS
    raw = os.environ.get(SWEEP_HOSTS_ENV, "")
    if not raw.strip():
        return ()
    return parse_hosts(raw)


# ---------------------------------------------------------------------------
# Framing


def _send_frame(sock: socket.socket, message: Any) -> None:
    payload = pickle.dumps(message, _WIRE_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:  # pragma: no cover - defensive
        raise ValueError("frame exceeds MAX_FRAME_BYTES")
    sock.sendall(struct.pack("!I", len(payload)) + payload)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    chunks: List[bytes] = []
    while count:
        chunk = sock.recv(min(count, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> Optional[Any]:
    """One framed message, ``None`` on orderly EOF, raises on desync."""
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack("!I", header)
    if length > MAX_FRAME_BYTES:
        raise ConnectionError("oversized frame (desynced stream)")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ConnectionError("connection closed mid-frame")
    return pickle.loads(payload)


# ---------------------------------------------------------------------------
# Shared digest plumbing


def _local_digest_set() -> Set[str]:
    """Every ``key_digest`` the parent can already serve.

    Memory-tier keys plus the disk index's snapshot (entries the disk
    tier holds are one counter-neutral load away, so a worker shipping
    them back would be pure waste). Undigestible keys are simply not
    advertised — they ride the ``extra_entries`` path instead.
    """
    digests: Set[str] = set()
    for key in _simcache.simulation_cache_keys():
        try:
            digests.add(key_digest(key))
        except TypeError:
            pass
    disk = _simcache.simulation_cache_disk()
    if disk is not None:
        try:
            digests.update(disk.index.snapshot())
        except Exception:  # pragma: no cover - degraded disk tier
            pass
    return digests


def _shard_entries(
    entries: Sequence[Tuple[Any, Any]],
    exclude: Set[str],
) -> Tuple[List[Tuple[str, bytes]], List[Tuple[Any, Any]]]:
    """Split entries into (digest, pack-payload) shards + raw extras.

    Entries whose digest is in ``exclude`` are dropped (the other side
    already holds them); undigestible or unpicklable-as-payload keys
    fall back to the raw ``(key, value)`` extras list.
    """
    shards: List[Tuple[str, bytes]] = []
    extras: List[Tuple[Any, Any]] = []
    for key, value in entries:
        try:
            digest = key_digest(key)
        except TypeError:
            extras.append((key, value))
            continue
        if digest in exclude:
            continue
        try:
            shards.append((digest, encode_entry_payload(key, value)))
        except Exception:
            extras.append((key, value))
    return shards, extras


def _merge_shard_payloads(
    shards: Sequence[Tuple[str, bytes]],
    extras: Sequence[Tuple[Any, Any]],
    hits: int = 0,
    misses: int = 0,
    disk_hits: int = 0,
) -> int:
    """Decode + merge received shards; entries reached (ins + dup).

    A shard that fails to decode (foreign fingerprint, torn payload)
    is dropped — warmth-only, the entry recomputes in the parent if it
    is ever needed there.
    """
    entries: List[Tuple[Any, Any]] = []
    for _digest, payload in shards:
        try:
            entries.append(decode_entry_payload(payload))
        except Exception:
            continue
    entries.extend(extras)
    stats = _simcache.merge_simulation_cache(
        entries, hits=hits, misses=misses, disk_hits=disk_hits
    )
    return stats.inserted + stats.duplicates


# ---------------------------------------------------------------------------
# Worker side


def run_worker_server(
    host: str = "127.0.0.1",
    port: int = 0,
    ready: Optional[Callable[[str, int], None]] = None,
    stop_event: Optional[threading.Event] = None,
) -> None:
    """Serve sweep partitions on ``host:port`` until told to stop.

    The body of the ``repro worker`` CLI verb. Binds (``port=0`` picks
    a free one), reports the bound address through ``ready``, then
    accepts one parent connection at a time and serves its handshake /
    run conversations. The worker uses its *own* cache
    configuration (its ``--cache-dir`` / ``REPRO_CACHE_DIR``); parents
    never reach into it beyond shipping deltas. Nested sweeps inside
    cell tasks degrade to serial exactly as in fork pool workers.
    """
    _parallel._mark_worker()
    server = socket.create_server((host, port))
    bound_host, bound_port = server.getsockname()[:2]
    if ready is not None:
        ready(bound_host, bound_port)
    server.settimeout(_POLL_S)
    try:
        while stop_event is None or not stop_event.is_set():
            try:
                conn, _addr = server.accept()
            except socket.timeout:
                continue
            except OSError:  # pragma: no cover - listener torn down
                break
            try:
                _serve_connection(conn, stop_event)
            except Exception:  # noqa: BLE001 - one bad parent, next accept
                pass
            finally:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already gone
                    pass
    finally:
        server.close()


def _serve_connection(
    sock: socket.socket, stop_event: Optional[threading.Event]
) -> None:
    """One parent's conversation: sync/run frames until EOF."""
    while True:
        if stop_event is not None and stop_event.is_set():
            return
        readable, _, _ = select.select([sock], [], [], _POLL_S)
        if not readable:
            continue
        message = _recv_frame(sock)
        if message is None or message[0] == "bye":
            return
        kind = message[0]
        if kind == "sync":
            _, seq, generation = message
            _simcache.sync_simulation_cache_generation(generation)
            _send_frame(sock, ("state", seq, schema_fingerprint()))
        elif kind == "run":
            _handle_run(sock, message, stop_event)
        elif kind == "stop":
            # A stop for a sweep that already drained; nothing to do.
            pass


def _stop_frame_pending(sock: socket.socket) -> bool:
    """Drain any already-arrived control frames; True to abandon run."""
    while True:
        readable, _, _ = select.select([sock], [], [], 0)
        if not readable:
            return False
        control = _recv_frame(sock)
        if control is None or control[0] in ("stop", "bye"):
            return True


def _handle_run(
    sock: socket.socket,
    message: Tuple[Any, ...],
    stop_event: Optional[threading.Event],
) -> None:
    """Run one contiguous partition, streaming a chunk per cell."""
    _, seq, fn, cells, deadline_s, parent_digests = message
    deadline = (
        None if deadline_s is None else time.monotonic() + deadline_s
    )
    completed = 0
    try:
        for index, item in cells:
            if stop_event is not None and stop_event.is_set():
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            if _stop_frame_pending(sock):
                break
            baseline = _simcache.simulation_cache_keys()
            before = _simcache.simulation_cache_stats()
            try:
                result = fn(item)
            except Exception:
                _send_frame(sock, ("error", seq, traceback.format_exc()))
                break
            after = _simcache.simulation_cache_stats()
            new_entries = [
                (key, value)
                for key, value in _simcache.export_simulation_cache()
                if key not in baseline
            ]
            shards, extras = _shard_entries(new_entries, parent_digests)
            # Later cells of this partition need not re-ship what this
            # chunk already carried (their baselines cover memory, but
            # the parent set is the authoritative exclude).
            parent_digests.update(digest for digest, _ in shards)
            _send_frame(
                sock,
                (
                    "chunk",
                    seq,
                    index,
                    result,
                    shards,
                    extras,
                    after.hits - before.hits,
                    after.misses - before.misses,
                    after.disk_hits - before.disk_hits,
                ),
            )
            completed += 1
    finally:
        try:
            _send_frame(sock, ("done", seq, completed))
        except OSError:  # pragma: no cover - parent went away mid-run
            pass


# ---------------------------------------------------------------------------
# Parent side: connections and pool


class _RemoteConnection:
    """One live worker link: socket + reader thread feeding the pool."""

    def __init__(
        self, host: str, events: "queue.Queue[Tuple[Any, Any]]"
    ) -> None:
        self.host = host
        self.events = events
        name, _, port = host.rpartition(":")
        self.sock = socket.create_connection(
            (name, int(port)), timeout=_CONNECT_TIMEOUT_S
        )
        self.sock.settimeout(None)
        self.alive = True
        self._send_lock = threading.Lock()
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"repro-remote-{host}",
            daemon=True,
        )
        self._reader.start()

    def send(self, message: Any) -> bool:
        """Frame + send; False (never raise) when the link is gone."""
        try:
            payload = pickle.dumps(message, _WIRE_PROTOCOL)
        except Exception:  # pragma: no cover - unpicklable task fn
            raise
        frame = struct.pack("!I", len(payload)) + payload
        with self._send_lock:
            try:
                self.sock.sendall(frame)
            except OSError:
                return False
        return True

    def _read_loop(self) -> None:
        try:
            while True:
                message = _recv_frame(self.sock)
                if message is None:
                    break
                self.events.put((self, message))
        except Exception as error:
            self.events.put((self, ("lost", error)))
            return
        self.events.put((self, ("lost", None)))

    def close(self, farewell: bool = True) -> None:
        if farewell and self.alive:
            self.send(("bye",))
        self.alive = False
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - double close
            pass


class RemoteWorkerPool:
    """Persistent connections to one ``hosts`` set, reused per sweep."""

    def __init__(self, hosts: Sequence[str]) -> None:
        self.hosts = tuple(hosts)
        self.events: "queue.Queue[Tuple[Any, Any]]" = queue.Queue()
        self.conns: List[_RemoteConnection] = []
        for host in self.hosts:
            try:
                self.conns.append(_RemoteConnection(host, self.events))
            except OSError as error:
                self.close()
                raise ConfigurationError(
                    f"cannot connect to sweep worker at {host!r}: {error}"
                ) from error

    def live_conns(self) -> List[_RemoteConnection]:
        return [conn for conn in self.conns if conn.alive]

    def reconnect_dead(self) -> None:
        """Best-effort revival of links lost in an earlier sweep."""
        for position, conn in enumerate(self.conns):
            if conn.alive:
                continue
            try:
                self.conns[position] = _RemoteConnection(
                    conn.host, self.events
                )
            except OSError:
                pass  # still down; the sweep runs on the survivors

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        self.conns = []


def _get_remote_pool(hosts: Sequence[str]) -> RemoteWorkerPool:
    global _REMOTE_POOL
    hosts = tuple(hosts)
    pool = _REMOTE_POOL
    if pool is not None and pool.hosts != hosts:
        pool.close()
        pool = None
    if pool is None:
        pool = RemoteWorkerPool(hosts)
        _REMOTE_POOL = pool
    else:
        pool.reconnect_dead()
    return pool


def remote_pool_hosts() -> Tuple[str, ...]:
    """Hosts of the live persistent connection pool (diagnostics)."""
    pool = _REMOTE_POOL
    if pool is None:
        return ()
    return tuple(conn.host for conn in pool.live_conns())


# ---------------------------------------------------------------------------
# Loopback workers


def start_loopback_workers(
    count: int, cache_dir: "Optional[str | Path]" = None
) -> List[str]:
    """Spawn ``count`` ``repro worker`` subprocesses on loopback ports.

    Each runs the same interpreter and source tree as this process
    (``PYTHONPATH`` is derived from the imported package, so this
    works from a source checkout and an installed wheel alike) and
    prints its bound address on stdout, which is parsed here. Returns
    the ``host:port`` list, ready for :func:`configure_sweep_hosts`;
    the subprocesses are reaped by :func:`shutdown_remote_workers`.
    """
    import repro

    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir + os.pathsep + existing if existing else src_dir
    )
    # A worker must never recurse into socket dispatch for its own
    # cells (mirrors the fork pool's nested-serial degradation).
    env.pop(SWEEP_HOSTS_ENV, None)
    hosts: List[str] = []
    for _ in range(count):
        command = [
            sys.executable, "-m", "repro", "worker",
            "--host", "127.0.0.1", "--port", "0",
        ]
        if cache_dir is not None:
            command += ["--cache-dir", str(cache_dir)]
        proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        _LOOPBACK_PROCS.append(proc)
        line = proc.stdout.readline() if proc.stdout else ""
        if WORKER_READY_PREFIX not in line:
            shutdown_remote_workers()
            raise ConfigurationError(
                f"loopback worker failed to start (got {line!r})"
            )
        hosts.append(line.strip().rsplit(" ", 1)[-1])
    return hosts


def loopback_worker_procs() -> List[subprocess.Popen]:
    """Live loopback worker subprocess handles (tests kill these)."""
    return [proc for proc in _LOOPBACK_PROCS if proc.poll() is None]


def shutdown_remote_workers() -> None:
    """Close worker connections and reap loopback subprocesses.

    Idempotent and safe at any time — the socket-backend half of
    :func:`repro.experiments.parallel.shutdown_worker_pool`, also run
    atexit and on the serve daemon's SIGTERM drain, so no test or
    daemon shutdown leaks a ``repro worker`` process.
    """
    global _REMOTE_POOL
    pool, _REMOTE_POOL = _REMOTE_POOL, None
    if pool is not None:
        pool.close()
    procs, _LOOPBACK_PROCS[:] = list(_LOOPBACK_PROCS), []
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck
            proc.kill()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                pass
        if proc.stdout is not None:
            proc.stdout.close()


atexit.register(shutdown_remote_workers)


# ---------------------------------------------------------------------------
# Topology accounting


def _note_host_totals(host: str, cells: int = 0, received: int = 0) -> None:
    totals = _HOST_TOTALS.setdefault(
        host, {"cells": 0, "delta_bytes_received": 0}
    )
    totals["cells"] += cells
    totals["delta_bytes_received"] += received


def reset_topology_counters() -> None:
    """Zero the cumulative per-host counters (tests, benchmarks)."""
    _HOST_TOTALS.clear()


def executor_topology() -> Dict[str, Any]:
    """The executor's current shape, for ``--list`` and ``/status``.

    ``backend`` reflects what the *next* sweep would use (socket when
    hosts are configured, fork otherwise); the per-host counters are
    cumulative over this process's socket sweeps. ``delta_bytes_sent``
    is always 0 — the parent ships workers no cache entries — and
    stays so the report keeps its shape.
    """
    hosts = active_sweep_hosts()
    per_host = {h: dict(t) for h, t in sorted(_HOST_TOTALS.items())}
    return {
        "backend": "socket" if hosts else "fork",
        "hosts": list(hosts),
        "host_cells": {h: t["cells"] for h, t in per_host.items()},
        "delta_bytes_sent": 0,
        "delta_bytes_received": sum(
            t["delta_bytes_received"] for t in per_host.values()
        ),
    }


# ---------------------------------------------------------------------------
# Parent side: the streaming sweep


def remote_stream(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    hosts: Sequence[str],
    progress: Optional[Callable[[int, int], None]] = None,
    deadline: Optional[float] = None,
) -> Iterator[Tuple[int, Any]]:
    """The socket-backend streaming loop (see the module docstring).

    Same contract as the fork backend's ``_parallel_stream``: yields
    ``(index, result)`` in index order as chunks land, merges cache
    deltas incrementally, honours ``deadline`` and early close, and
    records a :class:`repro.experiments.parallel.SweepExecution` with
    ``backend="socket"`` plus per-host cell counts and shard-byte
    traffic. Host death mid-sweep recomputes the lost cells in-parent.
    """
    global _SWEEP_SEQ
    items = list(items)
    total = len(items)
    pre_existing = _REMOTE_POOL is not None
    pool = _get_remote_pool(hosts)
    _SWEEP_SEQ += 1
    seq = _SWEEP_SEQ
    generation = _simcache.simulation_cache_generation()
    cache_dir = _simcache.simulation_cache_dir()

    # -- handshake: every live worker must run the same schema ------------
    conns = pool.live_conns()
    awaiting = []
    for conn in conns:
        if conn.send(("sync", seq, generation)):
            awaiting.append(conn)
        else:
            conn.alive = False
    ready: Set[_RemoteConnection] = set()
    sync_deadline = time.monotonic() + _SYNC_TIMEOUT_S
    while len(ready) < len(awaiting) and time.monotonic() < sync_deadline:
        remaining = [c for c in awaiting if c not in ready and c.alive]
        if not remaining:
            break
        try:
            conn, message = pool.events.get(timeout=_POLL_S)
        except queue.Empty:
            continue
        if conn not in awaiting or conn in ready:
            continue
        kind = message[0]
        if kind == "lost":
            conn.alive = False
        elif kind == "state" and message[1] == seq:
            fingerprint = message[2]
            if fingerprint != schema_fingerprint():
                raise ConfigurationError(
                    f"sweep worker {conn.host} runs a different result "
                    f"schema (fingerprint {fingerprint!r} != "
                    f"{schema_fingerprint()!r}); deploy the same wheel "
                    "on every host"
                )
            ready.add(conn)
    conns = [conn for conn in awaiting if conn in ready and conn.alive]
    if not conns:
        raise ConfigurationError(
            "no live sweep workers among configured hosts "
            f"{tuple(pool.hosts)!r}"
        )

    # -- partition and dispatch -------------------------------------------
    partitions: Dict[_RemoteConnection, List[int]] = {}
    base, extra = divmod(total, len(conns))
    start = 0
    for position, conn in enumerate(conns):
        size = base + (1 if position < extra else 0)
        partitions[conn] = list(range(start, start + size))
        start += size
    parent_digests = _local_digest_set()
    dispatch_failed: List[_RemoteConnection] = []
    for conn, part in partitions.items():
        if not part:
            continue
        deadline_s = (
            None
            if deadline is None
            else max(0.0, deadline - time.monotonic())
        )
        cells = [(index, items[index]) for index in part]
        sent_ok = conn.send(
            ("run", seq, fn, cells, deadline_s, set(parent_digests))
        )
        if not sent_ok:
            conn.alive = False
            dispatch_failed.append(conn)

    # -- stream chunks back, in-parent recovery for lost hosts -------------
    received: Set[int] = set()
    pending: Dict[int, Any] = {}
    next_yield = 0
    merged = duplicates = hits = misses = disk_hits = 0
    redispatched = 0
    bytes_received = 0
    host_cells: Dict[str, int] = {conn.host: 0 for conn in conns}
    finished: Set[_RemoteConnection] = set()
    failure: Optional[BaseException] = None

    def absorb_local(chunk: Tuple[Any, ...]) -> Tuple[int, Any]:
        """Merge one in-parent recompute's raw delta (fork-path shape)."""
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

    def recover_indexes(indexes: List[int]) -> Iterator[Tuple[int, Any]]:
        """Recompute lost cells in-parent; yields rows come due."""
        nonlocal redispatched, failure, next_yield
        for index in indexes:
            if index in received or failure is not None:
                continue
            if deadline is not None and time.monotonic() >= deadline:
                failure = DeadlineExceededError(
                    f"sweep deadline passed after {len(received)}/{total}"
                    " cells"
                )
                return
            try:
                chunk = _parallel._run_cell(
                    (fn, index, items[index], generation, cache_dir)
                )
            except BaseException as error:  # noqa: BLE001
                failure = error
                return
            redispatched += 1
            index, result = absorb_local(chunk)
            received.add(index)
            if progress is not None:
                progress(len(received), total)
            pending[index] = result
            while next_yield in pending:
                yield next_yield, pending.pop(next_yield)
                next_yield += 1

    try:
        for conn in dispatch_failed:
            yield from recover_indexes(partitions[conn])
        while len(received) < total and failure is None:
            if deadline is not None and time.monotonic() >= deadline:
                failure = DeadlineExceededError(
                    f"sweep deadline passed after {len(received)}/{total}"
                    " cells"
                )
                break
            live_unfinished = [
                conn
                for conn in partitions
                if conn.alive and conn not in finished
            ]
            if not live_unfinished:
                # Every host is done or dead yet cells are missing
                # (a worker stopped at its deadline slightly before
                # ours, or died without a lost event): finish in-parent.
                yield from recover_indexes(
                    [i for i in range(total) if i not in received]
                )
                continue
            try:
                conn, message = pool.events.get(timeout=_POLL_S)
            except queue.Empty:
                continue
            if conn not in partitions:
                continue
            kind = message[0]
            if kind == "lost":
                if conn.alive:
                    conn.alive = False
                    yield from recover_indexes(partitions[conn])
                continue
            if len(message) < 2 or message[1] != seq:
                continue
            if kind == "chunk":
                (_, _, index, result, shards, extras,
                 d_hits, d_misses, d_disk) = message
                if index in received:
                    continue
                shard_bytes = sum(len(p) for _, p in shards)
                bytes_received += shard_bytes
                _note_host_totals(
                    conn.host, cells=1, received=shard_bytes
                )
                reached = _merge_shard_payloads(
                    shards, extras,
                    hits=d_hits, misses=d_misses, disk_hits=d_disk,
                )
                merged += reached
                hits += d_hits
                misses += d_misses
                disk_hits += d_disk
                received.add(index)
                host_cells[conn.host] = host_cells.get(conn.host, 0) + 1
                if progress is not None:
                    progress(len(received), total)
                pending[index] = result
                while next_yield in pending:
                    yield next_yield, pending.pop(next_yield)
                    next_yield += 1
            elif kind == "done":
                finished.add(conn)
            elif kind == "error":
                finished.add(conn)
                if failure is None:
                    failure = RemoteWorkerError(
                        f"sweep worker {conn.host} failed a cell:\n"
                        f"{message[2]}"
                    )
    finally:
        # Early close, deadline, or failure: stop the workers, then
        # drain until each live partitioned link confirms it is
        # quiescent (done/error) so the persistent connections stay
        # frame-aligned for the next sweep. Cache deltas of late
        # chunks are kept — the simulator is pure.
        if len(received) < total:
            for conn in partitions:
                if conn.alive and conn not in finished:
                    if not conn.send(("stop",)):
                        conn.alive = False
        drain_deadline = time.monotonic() + _SYNC_TIMEOUT_S
        while (
            any(c.alive and c not in finished for c in partitions)
            and time.monotonic() < drain_deadline
        ):
            try:
                conn, message = pool.events.get(timeout=_POLL_S)
            except queue.Empty:
                continue
            if conn not in partitions:
                continue
            kind = message[0]
            if kind == "lost":
                conn.alive = False
                continue
            if len(message) < 2 or message[1] != seq:
                continue
            if kind == "chunk":
                (_, _, index, _result, shards, extras,
                 d_hits, d_misses, d_disk) = message
                shard_bytes = sum(len(p) for _, p in shards)
                bytes_received += shard_bytes
                _note_host_totals(conn.host, received=shard_bytes)
                _merge_shard_payloads(
                    shards, extras,
                    hits=d_hits, misses=d_misses, disk_hits=d_disk,
                )
                if index not in received:
                    received.add(index)
                    host_cells[conn.host] = (
                        host_cells.get(conn.host, 0) + 1
                    )
                    _note_host_totals(conn.host, cells=1)
            elif kind in ("done", "error"):
                finished.add(conn)
        for conn in partitions:
            if conn.alive and conn not in finished:
                # Desynced beyond repair; reconnect next sweep.
                conn.close(farewell=False)
        _parallel._LAST_EXECUTION = _parallel.SweepExecution(
            jobs=len(conns), tasks=total, merged_entries=merged,
            duplicate_entries=duplicates, worker_hits=hits,
            worker_misses=misses, worker_disk_hits=disk_hits,
            pool_reused=pre_existing, completed=len(received),
            cancelled=failure is None and len(received) < total,
            redispatched_cells=redispatched,
            backend="socket",
            hosts=tuple(conn.host for conn in conns),
            host_cells=tuple(sorted(host_cells.items())),
            delta_bytes_received=bytes_received,
        )
    if failure is not None:
        raise failure
