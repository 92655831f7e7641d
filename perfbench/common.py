"""Paths, child-process plumbing and statistics shared by the benchmark.

Everything the benchmark reads or writes lives inside the checkout it
runs from: the package under ``src/``, the benchmark under
``perfbench/``, and scratch state (cache directories, daemon sockets,
span dumps, trace files) under ``.perfbench/``.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
SCRATCH = ROOT / ".perfbench"

#: How many times each run repeats its set-up; ``setup_s`` is the median.
SETUP_REPS = 3

#: Per-read socket timeout for daemon clients, far below the 180 s a
#: run may take: a wedged daemon fails the request instead of the run.
CLIENT_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, daemon refused)."""


def require_sources() -> None:
    """Fail fast when the checkout holds no ``repro`` package to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}; nothing to measure")


def use_sources() -> None:
    """Import ``repro`` from this checkout's ``src/``, never from elsewhere."""
    require_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def scrub_repro_env(env) -> None:
    """Drop every ``REPRO_*`` setting (hosts, cache dir, escapes) in place,
    so the caller's shell cannot change which paths a workload runs."""
    for name in [name for name in env if name.startswith("REPRO_")]:
        del env[name]


def child_env(tmpdir: Path) -> Dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    scrub_repro_env(env)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmpdir)
    return env


def repro_command(*args: str) -> List[str]:
    """``python -m repro ARGS`` with this interpreter."""
    return [sys.executable, "-m", "repro", *args]


def traced_command(spans_out: Path, *args: str) -> List[str]:
    """The traced counterpart of :func:`repro_command` (see ``drive.py``)."""
    return [sys.executable, str(BENCH_DIR / "drive.py"), str(spans_out),
            "--", *args]


# ---------------------------------------------------------------------------
# Statistics


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def peak_rss_mb(include_self: bool) -> float:
    """Largest RSS of this process and/or any reaped descendant, in MB.

    ``RUSAGE_CHILDREN`` reports the largest resident set of any waited-
    for descendant (a daemon's pool workers fold into the daemon's own
    figure when it reaps them), so it covers every process the run
    started once they have all been stopped.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak = children
    if include_self:
        peak = max(peak, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return peak / 1024.0


# ---------------------------------------------------------------------------
# Child processes


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live (non-zombie) process."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
    except OSError:
        return False
    # The state letter follows the parenthesised command name.
    return stat[stat.rindex(b")") + 2:stat.rindex(b")") + 3] != b"Z"


def stop_process(proc: subprocess.Popen, grace_s: float = 20.0) -> None:
    """SIGTERM ``proc``, then SIGKILL after ``grace_s``; always reap it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdout, proc.stderr, proc.stdin):
        if stream is not None:
            stream.close()


def survivors(pids: Iterable[int]) -> List[int]:
    """The ``pids`` still alive; each is killed so none outlives the run."""
    alive = [pid for pid in set(pids) if pid_alive(pid)]
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 5.0
    while any(pid_alive(pid) for pid in alive) and time.monotonic() < deadline:
        time.sleep(0.02)
    return alive


def control_request(socket_path: str, payload: dict) -> dict:
    """One newline-JSON control round trip with a ``repro serve`` daemon.

    Stdlib only, so the CLI workload can ping and inspect its daemon
    without importing the package into the benchmark process.
    """
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(CLIENT_TIMEOUT_S)
        sock.connect(socket_path)
        sock.sendall(json.dumps(payload).encode() + b"\n")
        data = b""
        while not data.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    return json.loads(data)


class Daemon:
    """A ``repro serve`` subprocess on a socket inside the scratch dir."""

    def __init__(self, command: List[str], socket_path: str,
                 env: Dict[str, str]) -> None:
        self.socket_path = socket_path
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            stop_process(self.proc)
            raise BenchError(f"serve daemon failed to start: {line!r}")
        reply = control_request(socket_path, {"op": "ping"})
        if reply.get("serve") != "pong":
            stop_process(self.proc)
            raise BenchError(f"serve daemon did not answer a ping: {reply}")
        self.pids = {self.proc.pid}
        self.pids.update(self.status()["pool"]["pids"])

    def status(self) -> dict:
        return control_request(self.socket_path, {"op": "status"})

    def stop(self) -> List[int]:
        """Drain and reap the daemon; returns pids that outlived it."""
        stop_process(self.proc)
        return survivors(self.pids)


def start_daemon(
    work: Path, env: Dict[str, str], tag: str,
    spans_out: Optional[Path] = None,
) -> Daemon:
    """``repro serve --jobs 2`` with a fresh cache dir (traced if asked)."""
    cache_dir = work / f"{tag}-cache"
    sock = os.path.relpath(work / f"{tag}.sock", ROOT)
    args = ("serve", "--jobs", "2", "--cache-dir", str(cache_dir),
            "--socket", sock)
    command = (
        repro_command(*args) if spans_out is None
        else traced_command(spans_out, *args)
    )
    return Daemon(command, sock, env)


def import_probe(env: Dict[str, str]) -> Dict[str, float]:
    """A fresh process that imports ``repro.cli`` and exits.

    Returns its wall time (process start to exit: the floor every CLI
    run, daemon and socket worker pays) and the import alone.
    """
    code = (
        "import time; t = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - t)"
    )
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise BenchError(f"import probe failed: {done.stderr.strip()}")
    return {"wall_s": wall, "import_s": float(done.stdout.strip())}
