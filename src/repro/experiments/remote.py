"""The sweep executor: worker processes driven over framed sockets.

Every fanned-out sweep runs here, whatever made its workers:

* **forked workers** — with ``jobs > 1`` the parent forks N children,
  each owning one end of a ``socket.socketpair()``
  (:func:`fork_workers`, pooled by :mod:`repro.experiments.parallel`);
* **TCP hosts** — ``repro worker`` processes on this or other machines
  running the same wheel (``--hosts`` / ``REPRO_SWEEP_HOSTS`` /
  :func:`configure_sweep_hosts`), including loopback subprocesses from
  :func:`start_loopback_workers`.

Both run the same worker loop (:func:`_serve_connection`) behind the
same parent-side :class:`_Link`, and one stream loop
(:func:`link_stream`) drives both. Results are bit-identical to the
serial path: the simulator is pure, so only warmth and wall-clock
differ.

Wire protocol
-------------

Messages are pickled tuples behind a 4-byte big-endian length prefix
(``struct "!I"``). Each sweep has a sequence number ``seq`` carried by
its frames, so several sweeps (the serve daemon's runner threads) share
one link: each link's reader thread routes a frame to the sweep that
owns its ``seq``.

* worker → ``("hello", fingerprint)`` once per connection: its result
  schema fingerprint, which must match the parent's.
* parent → ``("sweep", seq, fn, generation, cache_dir)``: the cell
  function and cache state. The worker adopts the parent's cache
  clear-generation. A forked worker also follows the parent's
  ``cache_dir`` (:func:`fork_workers` starts it that way); a TCP host
  keeps its own cache configuration.
* parent → ``("cell", seq, index, item)``, at most two in flight per
  worker per sweep. The worker answers each with ``("chunk", seq,
  index, result, entries, d_hits, d_misses, d_disk)``, or with
  ``("error", seq, index, pickled_exception, traceback)`` when the cell
  raises (the parent re-raises the exception, or
  :class:`repro.errors.RemoteWorkerError` when it does not unpickle).
  ``entries`` is the cell's cache delta — the ``(key, value)`` entries
  it computed into the worker's memory, pickled once into one blob
  (``b""`` when it computed nothing). Loads from the worker's disk tier
  are left out: a forked worker's disk is the parent's, and a host's
  own disk loads only cost the parent warmth, never a result.
* parent → ``("end", seq)``: the worker drops the sweep's state.

A parent stops a sweep (early close, deadline, failure) by sending no
more cells; the cells in flight drain and their cache deltas merge. A
worker exits at EOF. Nothing flows parent → worker except cells: a
worker stays warm through fork inheritance, its own memory cache
across sweeps and the disk tier. Each worker gets a deterministic
contiguous home partition, so a second sweep over live TCP hosts
ships ~0 delta bytes: each host is handed the cells its memory
already answers.

Trust model
-----------

The transport pickles arbitrary objects — connecting to a worker (or
accepting a parent) is code execution by design, exactly like the
disk cache's trust boundary. Workers bind loopback by default;
binding a routable address is an explicit operator decision for
trusted networks only (see ``docs/DISTRIBUTED.md``).

Failure semantics
-----------------

A dead worker shows up at once as EOF on its link. Every cell of that
worker without a received result is recomputed *in-parent*; receipts
de-duplicate by cell index, so a late chunk racing its recompute can
never double-merge or double-yield. A dead forked worker is re-forked
by the next sweep; a dead host is reconnected when it comes back.
Failure to reach every configured host at sweep start raises
:class:`repro.errors.ConfigurationError` instead — a sweep that cannot
reach any configured host should fail loudly, not silently degrade.
A host ships no entry its own disk tier answered, so such a cell
leaves the parent colder than a forked worker would; warmth is all it
affects.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import queue
import select
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import traceback
from collections import deque
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
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
from repro.sim.diskcache import schema_fingerprint

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

#: Seconds before a parent gives up connecting to a worker (TCP connect
#: plus the worker's hello frame).
_CONNECT_TIMEOUT_S = 10.0

#: Poll interval of the TCP worker's accept/receive loops; bounds how
#: long ``repro worker`` takes to notice its stop signal.
_POLL_S = 0.25

#: Seconds a hung-up forked worker gets to exit before it is killed.
_REAP_GRACE_S = 1.0

#: Cells in flight per worker per sweep once the worker's first chunk of
#: the sweep has landed (its first cell goes alone; see link_stream).
_WINDOW = 2

#: Hosts configured programmatically (CLI/tests); ``None`` means
#: "unset, fall back to the environment", ``()`` means "explicitly
#: disabled, even if the environment names hosts".
_CONFIGURED_HOSTS: Optional[Tuple[str, ...]] = None

#: The persistent TCP host links, reused sweep to sweep, and the lock
#: serializing their (re)connection across concurrent sweeps.
_REMOTE_POOL: Optional["RemoteWorkerPool"] = None
_REMOTE_LOCK = threading.Lock()

#: Every open parent-side link; a forked child closes its copies.
_LINKS: Set["_Link"] = set()

#: Loopback worker subprocesses spawned by this process, reaped by
#: :func:`shutdown_remote_workers`.
_LOOPBACK_PROCS: List[subprocess.Popen] = []

#: Sweep sequence numbers (frame routing).
_SWEEP_SEQ = itertools.count(1)

#: Cumulative per-host topology counters for this process:
#: ``host -> {"cells", "delta_bytes_received"}``; concurrent sweeps
#: update them under the lock.
_HOST_TOTALS: Dict[str, Dict[str, int]] = {}
_HOST_TOTALS_LOCK = threading.Lock()


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
# Worker side


def run_worker_server(
    host: str = "127.0.0.1",
    port: int = 0,
    ready: Optional[Callable[[str, int], None]] = None,
    stop_event: Optional[threading.Event] = None,
) -> None:
    """Serve sweep cells on ``host:port`` until told to stop.

    The body of the ``repro worker`` CLI verb. Binds (``port=0`` picks
    a free one), reports the bound address through ``ready``, then
    accepts one parent connection at a time and runs the worker loop on
    it. The worker uses its *own* cache configuration (its
    ``--cache-dir`` / ``REPRO_CACHE_DIR``); parents never change it.
    Nested sweeps inside cell tasks degrade to serial exactly as in
    forked workers.
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
                conn.settimeout(None)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
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
    sock: socket.socket,
    stop_event: Optional[threading.Event] = None,
    follow_cache_dir: bool = False,
) -> None:
    """The worker loop: one parent's frames until EOF (or the stop).

    ``follow_cache_dir`` (set for forked workers) re-attaches the disk
    tier to each sweep's ``cache_dir``, so the worker shares the
    parent's; a TCP host keeps its own.
    """
    _send_frame(sock, ("hello", schema_fingerprint()))
    sweeps: Dict[int, Callable[[Any], Any]] = {}
    while True:
        if stop_event is not None:
            if stop_event.is_set():
                return
            readable, _, _ = select.select([sock], [], [], _POLL_S)
            if not readable:
                continue
        message = _recv_frame(sock)
        if message is None:
            return
        kind, seq = message[0], message[1]
        if kind == "cell":
            _, _, index, item = message
            _send_frame(sock, _run_cell(seq, sweeps[seq], index, item))
        elif kind == "sweep":
            _, _, fn, generation, cache_dir = message
            _simcache.sync_simulation_cache_generation(generation)
            if (
                follow_cache_dir
                and _simcache.simulation_cache_dir() != cache_dir
            ):
                _simcache.configure_simulation_cache_dir(cache_dir)
            sweeps[seq] = fn
        elif kind == "end":
            sweeps.pop(seq, None)


def _run_cell(
    seq: int, fn: Callable[[Any], Any], index: int, item: Any
) -> Tuple[Any, ...]:
    """Worker body: run one cell, frame its result and cache delta.

    The delta is the entries this cell computed into the worker's
    memory (disk-tier loads left out), pickled once into one blob.
    """
    baseline = _simcache.simulation_cache_keys()
    before = _simcache.simulation_cache_stats()
    try:
        result = fn(item)
    except Exception as error:
        try:
            blob: Optional[bytes] = pickle.dumps(error, _WIRE_PROTOCOL)
        except Exception:
            blob = None
        return ("error", seq, index, blob, traceback.format_exc())
    after = _simcache.simulation_cache_stats()
    entries = _simcache.new_simulation_cache_entries(baseline)
    return (
        "chunk", seq, index, result,
        pickle.dumps(entries, _WIRE_PROTOCOL) if entries else b"",
        after.hits - before.hits,
        after.misses - before.misses,
        after.disk_hits - before.disk_hits,
    )


def fork_workers(count: int) -> List["_Link"]:
    """Fork ``count`` workers, each on a private socketpair.

    Every child marks itself a worker (nested sweeps run serial),
    restores the default SIGINT/SIGTERM actions, closes every
    parent-side socket end it inherited, and runs the worker loop until
    EOF, then ``os._exit``. All children fork before the parent reads
    their hellos, so their start-ups overlap. Returns the parent's links.
    """
    forked: List[Tuple[socket.socket, int]] = []
    for _ in range(count):
        parent_end, child_end = socket.socketpair()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            code = 0
            try:
                _parallel._mark_worker()
                signal.signal(signal.SIGINT, signal.SIG_DFL)
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                parent_end.close()
                for inherited, _ in forked:
                    inherited.close()
                for link in list(_LINKS):
                    link.sock.close()
                _serve_connection(child_end, follow_cache_dir=True)
            except BaseException:  # noqa: BLE001 - the parent sees EOF
                code = 1
            finally:
                os._exit(code)
        child_end.close()
        forked.append((parent_end, pid))
    links: List[_Link] = []
    try:
        for sock, pid in forked:
            links.append(_Link(sock, f"fork:{pid}", pid=pid))
    except BaseException:
        for link in links:
            link.close()
        for sock, pid in forked[len(links):]:
            sock.close()
            _reap(pid)
        raise
    return links


def _reap(pid: int) -> None:
    """Wait for a forked worker to exit; SIGKILL it after the grace.

    A worker exits at EOF, or at its next send once its cell finishes;
    one that is hung (or still mid-cell) past :data:`_REAP_GRACE_S` is
    killed, so teardown is bounded in time.
    """
    deadline = time.monotonic() + _REAP_GRACE_S
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() >= deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.001)
    except ChildProcessError:  # pragma: no cover - already reaped
        pass


# ---------------------------------------------------------------------------
# Parent side: links


class _Link:
    """The parent's end of one worker: framed socket + routing reader.

    Construction reads the worker's hello and checks its schema
    fingerprint. The reader thread then routes each frame to the queue
    of the sweep owning its ``seq``; at EOF (or a broken stream) it
    marks the link dead and posts ``("lost",)`` to every attached sweep.
    """

    def __init__(
        self, sock: socket.socket, label: str, pid: Optional[int] = None
    ) -> None:
        self.sock = sock
        self.label = label
        self.pid = pid
        self.alive = True
        self._send_lock = threading.Lock()
        self._routes: Dict[int, "queue.Queue[Tuple[_Link, Any]]"] = {}
        self._routes_lock = threading.Lock()
        sock.settimeout(_CONNECT_TIMEOUT_S)
        hello = _recv_frame(sock)
        sock.settimeout(None)
        if hello is None or hello[0] != "hello":
            raise ConnectionError(f"{label} closed before its hello")
        if hello[1] != schema_fingerprint():
            sock.close()
            raise ConfigurationError(
                f"sweep worker {label} runs a different result schema "
                f"(fingerprint {hello[1]!r} != {schema_fingerprint()!r}); "
                "deploy the same wheel on every host"
            )
        _LINKS.add(self)
        threading.Thread(
            target=self._read_loop, name=f"repro-link-{label}", daemon=True
        ).start()

    @classmethod
    def connect(cls, host: str) -> "_Link":
        """A link to a ``repro worker`` listening at ``host:port``."""
        name, _, port = host.rpartition(":")
        try:
            sock = socket.create_connection(
                (name, int(port)), timeout=_CONNECT_TIMEOUT_S
            )
        except OSError as error:
            raise ConfigurationError(
                f"cannot connect to sweep worker at {host!r}: {error}"
            ) from error
        # Cell frames are small and go out back to back; Nagle would
        # hold the second until the first is acknowledged.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            return cls(sock, host)
        except (OSError, ConnectionError) as error:
            sock.close()
            raise ConfigurationError(
                f"sweep worker at {host!r} sent no hello: {error}"
            ) from error

    def attach(self, seq: int, route: "queue.Queue[Tuple[_Link, Any]]") -> bool:
        """Route ``seq``'s frames to ``route``; False if the link is dead."""
        with self._routes_lock:
            if not self.alive:
                return False
            self._routes[seq] = route
            return True

    def detach(self, seq: int) -> None:
        with self._routes_lock:
            self._routes.pop(seq, None)

    def send(self, message: Any) -> bool:
        """Frame + send; False (never raise) when the link is gone."""
        with self._send_lock:
            try:
                _send_frame(self.sock, message)
            except OSError:
                return False
        return True

    def _read_loop(self) -> None:
        try:
            while True:
                message = _recv_frame(self.sock)
                if message is None:
                    break
                with self._routes_lock:
                    route = self._routes.get(message[1])
                if route is not None:
                    route.put((self, message))
        except Exception:  # noqa: BLE001 - a broken stream is a lost link
            pass
        with self._routes_lock:
            self.alive = False
            routes = list(self._routes.values())
        for route in routes:
            route.put((self, ("lost",)))

    def close(self) -> None:
        """Hang up (the worker exits at EOF) and reap a forked worker."""
        _LINKS.discard(self)
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - double close
            pass
        if self.pid is not None:
            _reap(self.pid)
            self.pid = None


class RemoteWorkerPool:
    """Persistent links to one ``hosts`` set, reused per sweep."""

    def __init__(self, hosts: Sequence[str]) -> None:
        self.hosts = tuple(hosts)
        self.links: List[_Link] = []
        try:
            for host in self.hosts:
                self.links.append(_Link.connect(host))
        except BaseException:
            self.close()
            raise

    def live_links(self) -> List[_Link]:
        """Live links after a best-effort reconnect of dead ones."""
        for position, link in enumerate(self.links):
            if not link.alive:
                try:
                    self.links[position] = _Link.connect(link.label)
                except ConfigurationError:
                    continue  # still down; the sweep runs on the survivors
                link.close()
        return [link for link in self.links if link.alive]

    def close(self) -> None:
        for link in self.links:
            link.close()
        self.links = []


def live_host_links(hosts: Sequence[str]) -> Tuple[List[_Link], bool]:
    """The persistent host links (and whether they pre-existed).

    Raises :class:`ConfigurationError` when no host is reachable.
    """
    global _REMOTE_POOL
    hosts = tuple(hosts)
    with _REMOTE_LOCK:
        pool = _REMOTE_POOL
        if pool is not None and pool.hosts != hosts:
            pool.close()
            pool = _REMOTE_POOL = None
        reused = pool is not None
        if pool is None:
            pool = _REMOTE_POOL = RemoteWorkerPool(hosts)
        links = pool.live_links()
    if not links:
        raise ConfigurationError(
            f"no live sweep workers among configured hosts {hosts!r}"
        )
    return links, reused


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
    # cells (mirrors the nested-serial degradation of forked workers).
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
    """Close host links and reap loopback subprocesses.

    Idempotent and safe at any time — the TCP half of
    :func:`repro.experiments.parallel.shutdown_worker_pool`, also run
    atexit and on the serve daemon's SIGTERM drain, so no test or
    daemon shutdown leaks a ``repro worker`` process.
    """
    global _REMOTE_POOL
    with _REMOTE_LOCK:
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


def _note_host_totals(host: str, cells: int, received: int) -> None:
    with _HOST_TOTALS_LOCK:
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
    with _HOST_TOTALS_LOCK:
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


def link_stream(
    fn: Callable[[Any], Any],
    items: List[Any],
    links: Sequence[_Link],
    progress: Optional[Callable[[int, int], None]],
    deadline: Optional[float],
    backend: str,
    reused: bool,
) -> Iterator[Tuple[int, Any]]:
    """The one streaming loop: yield ``(index, result)`` in index order.

    Each link gets a contiguous home partition. Its first cell goes
    alone; once that chunk lands it keeps :data:`_WINDOW` cells in
    flight. A forked worker (it shares the parent's cache) whose home
    runs dry takes unsent cells from the back of the longest other
    home, so one slow cell never strands cells queued behind it; TCP
    hosts keep strictly to their homes, where their own caches are
    warm. Cache deltas merge as chunks land.

    An early close, a passed ``deadline`` or a failure stops sending;
    the cells in flight drain and their deltas merge before the
    generator returns (then ``("end", seq)`` frees the workers' sweep
    state). A lost link's cells without a received result recompute
    in-parent. Records a :class:`~repro.experiments.parallel.
    SweepExecution` for ``backend``.
    """
    total = len(items)
    seq = next(_SWEEP_SEQ)
    events: "queue.Queue[Tuple[_Link, Any]]" = queue.Queue()
    homes: Dict[_Link, Deque[int]] = {}
    start = 0
    base, extra = divmod(total, len(links))
    for position, link in enumerate(links):
        size = base + (1 if position < extra else 0)
        homes[link] = deque(range(start, start + size))
        start += size
    in_flight: Dict[_Link, Set[int]] = {link: set() for link in links}
    landed: Set[_Link] = set()
    lost: Set[_Link] = set()
    to_recover: List[int] = []
    received: Set[int] = set()
    pending: Dict[int, Any] = {}
    next_yield = 0
    merged = duplicates = hits = misses = disk_hits = 0
    redispatched = bytes_received = 0
    host_cells: Dict[str, int] = {}
    failure: Optional[BaseException] = None

    def lose(link: _Link) -> None:
        """Hand a dead link's unreceived cells to in-parent recovery."""
        if link not in lost:
            lost.add(link)
            to_recover.extend(sorted(in_flight.pop(link, ())))
            to_recover.extend(homes.pop(link, ()))

    def take(link: _Link) -> Optional[int]:
        own = homes.get(link)
        if own:
            return own.popleft()
        if link.pid is not None:
            longest = max(homes.values(), key=len, default=None)
            if longest:
                return longest.pop()
        return None

    def fill(link: _Link) -> None:
        window = _WINDOW if link in landed else 1
        while link not in lost and len(in_flight[link]) < window:
            index = take(link)
            if index is None:
                return
            if not link.send(("cell", seq, index, items[index])):
                to_recover.append(index)
                lose(link)
                return
            in_flight[link].add(index)
            _parallel._count_dispatch()

    def absorb(link: _Link, message: Tuple[Any, ...]) -> None:
        nonlocal merged, duplicates, hits, misses, disk_hits, bytes_received
        _, _, index, result, entries, d_hits, d_misses, d_disk = message
        in_flight.get(link, set()).discard(index)
        landed.add(link)
        if index in received:
            return
        stats = _simcache.merge_simulation_cache(
            pickle.loads(entries) if entries else (),
            hits=d_hits, misses=d_misses, disk_hits=d_disk,
        )
        merged += stats.inserted
        duplicates += stats.duplicates
        hits += d_hits
        misses += d_misses
        disk_hits += d_disk
        received.add(index)
        pending[index] = result
        bytes_received += len(entries)
        if backend == "socket":
            host_cells[link.label] = host_cells.get(link.label, 0) + 1
            _note_host_totals(link.label, cells=1, received=len(entries))
        if progress is not None:
            progress(len(received), total)

    def cell_failure(link: _Link, message: Tuple[Any, ...]) -> BaseException:
        _, _, index, blob, remote_traceback = message
        in_flight.get(link, set()).discard(index)
        if blob is not None:
            try:
                return pickle.loads(blob)
            except Exception:  # noqa: BLE001 - fall back to the text
                pass
        return RemoteWorkerError(
            f"sweep worker {link.label} failed a cell:\n{remote_traceback}"
        )

    def expired() -> bool:
        nonlocal failure
        if deadline is not None and time.monotonic() >= deadline:
            failure = DeadlineExceededError(
                f"sweep deadline passed after {len(received)}/{total} cells"
            )
            return True
        return False

    try:
        generation = _simcache.simulation_cache_generation()
        cache_dir = _simcache.simulation_cache_dir()
        for link in links:
            if not (
                link.attach(seq, events)
                and link.send(("sweep", seq, fn, generation, cache_dir))
            ):
                lose(link)
        for link in links:
            fill(link)
        while len(received) < total and failure is None:
            if expired():
                break
            if to_recover:
                index = to_recover.pop(0)
                if index in received:
                    continue
                try:
                    result = fn(items[index])
                except Exception as error:
                    failure = error
                    break
                redispatched += 1
                received.add(index)
                pending[index] = result
                if progress is not None:
                    progress(len(received), total)
            else:
                timeout = (
                    None if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                try:
                    link, message = events.get(timeout=timeout)
                except queue.Empty:
                    continue
                kind = message[0]
                if kind == "lost":
                    lose(link)
                    continue
                if kind == "error":
                    failure = cell_failure(link, message)
                    break
                absorb(link, message)
                fill(link)
            while next_yield in pending:
                yield next_yield, pending.pop(next_yield)
                next_yield += 1
    except Exception as error:  # e.g. a merge bit-equality assert
        failure = error
        raise
    finally:
        while any(in_flight.values()):
            link, message = events.get()
            if message[0] == "lost":
                lose(link)
            elif message[0] == "error":
                error = cell_failure(link, message)
                if failure is None:
                    failure = error
            else:
                absorb(link, message)
        for link in links:
            link.detach(seq)
            if link not in lost:
                link.send(("end", seq))
        _parallel._LAST_EXECUTION = _parallel.SweepExecution(
            jobs=len(links), tasks=total, merged_entries=merged,
            duplicate_entries=duplicates, worker_hits=hits,
            worker_misses=misses, worker_disk_hits=disk_hits,
            pool_reused=reused, completed=len(received),
            cancelled=failure is None and len(received) < total,
            redispatched_cells=redispatched,
            backend=backend,
            hosts=(
                tuple(link.label for link in links)
                if backend == "socket" else ()
            ),
            host_cells=tuple(sorted(host_cells.items())),
            delta_bytes_received=bytes_received,
        )
    if failure is not None:
        raise failure
