"""The four workloads, each a closed loop over seeded requests.

* ``cli_paper`` -- one caller runs one fresh ``python -m repro`` process
  at a time, rotating through the commands users run.
* ``sweep_serial`` -- this process imports the package and runs a seeded
  sequence of sweeps serially against an initially empty memory cache.
* ``serve_mixed`` -- two client threads against a ``repro serve --jobs 2``
  daemon: ~75% warm registered scenarios, ~25% cold inline speedups.
* ``sweep_remote`` -- ``sweep_serial``'s sequence dispatched to two
  loopback ``repro worker`` processes.

Each workload function sets up ``setup_reps`` times (the last set-up is
kept), runs requests until ``seconds`` have passed, checks every output
against the recorded references, stops every process it started, and
checks that none survived. A request that raises, exits non-zero, or
returns output unlike the reference counts as failed.
"""

from __future__ import annotations

import json
import random
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

import reference
import tracing
from common import (
    CLIENT_TIMEOUT_S,
    ROOT,
    BenchError,
    child_env,
    import_probe,
    median,
    peak_rss_mb,
    percentile,
    repro_command,
    start_daemon,
    survivors,
    traced_command,
    use_sources,
)
from reference import (
    CLI_COMMANDS,
    FIXED_SWEEPS,
    MEMORIES,
    SCENARIOS,
    SERVE_TILES,
    SWEEP_TILES,
)

now = time.perf_counter

@dataclass
class Recorder:
    """One client's request outcomes."""

    latencies: List[float] = field(default_factory=list)
    first_rows: List[float] = field(default_factory=list)
    cells: int = 0
    attempted: int = 0
    failed: int = 0
    #: Time spent inside requests; checking outputs happens outside it.
    busy_s: float = 0.0
    errors: List[str] = field(default_factory=list)

    def done(self, latency: float, first_row: Optional[float], cells: int,
             ok: bool, what: str) -> None:
        self.attempted += 1
        self.busy_s += latency
        if ok:
            self.latencies.append(latency)
            self.first_rows.append(latency if first_row is None else first_row)
            self.cells += cells
        else:
            self.failed += 1
            self.errors.append(what)

    def fail(self, what: str) -> None:
        """A failed check that is not a request (survivor, accuracy)."""
        self.attempted += 1
        self.failed += 1
        self.errors.append(what)

    def merge(self, other: "Recorder") -> None:
        self.latencies += other.latencies
        self.first_rows += other.first_rows
        self.cells += other.cells
        self.attempted += other.attempted
        self.failed += other.failed
        self.busy_s += other.busy_s
        self.errors += other.errors


@dataclass
class Outcome:
    rec: Recorder
    clients: int
    setup_samples: List[float]
    peak_rss_mb: float = 0.0
    accuracy: Dict[str, float] = field(default_factory=dict)
    #: Traced runs only: merged span dump plus derived inputs.
    trace: Optional[dict] = None
    extra: Dict[str, float] = field(default_factory=dict)

    def end_to_end(self) -> Dict[str, float]:
        rec = self.rec
        if not rec.latencies:
            raise BenchError("no request completed: " + "; ".join(rec.errors[:3]))
        busy = rec.busy_s / self.clients
        metrics = {
            "setup_s": median(self.setup_samples),
            "latency_p50_s": percentile(rec.latencies, 0.5),
            "latency_p90_s": percentile(rec.latencies, 0.9),
            "first_row_p50_s": percentile(rec.first_rows, 0.5),
            "requests_per_s": len(rec.latencies) / busy,
            "cells_per_s": rec.cells / busy,
            "peak_rss_mb": self.peak_rss_mb,
        }
        if self.accuracy:
            metrics.update(reference.accuracy_metrics(self.accuracy))
        return metrics


def _check_accuracy(rec: Recorder, values: Dict[str, Any],
                    printed: Dict[str, float]) -> None:
    if not reference.accuracy_agrees(values, printed):
        rec.fail(f"accuracy {values} disagrees with validate's {printed}")
    elif not reference.accuracy_matches_reference(values):
        rec.fail(f"accuracy {values} differs from the recorded reference")


def _check_hygiene(rec: Recorder, pids) -> None:
    for pid in survivors(pids):
        rec.fail(f"process {pid} outlived its workload (killed)")


class Deck:
    """Seeded draws without replacement, reshuffled when the pile runs out.

    Drawing from decks rather than independent dice keeps every run's
    request mix the same in any window of a deck's length, so seeds
    change the order of requests, not how much of each kind a run does.
    """

    def __init__(self, items, rng: random.Random) -> None:
        self.items = list(items)
        self.rng = rng
        self.pile: List[Any] = []

    def draw(self) -> Any:
        if not self.pile:
            self.pile = list(self.items)
            self.rng.shuffle(self.pile)
        return self.pile.pop()


# ---------------------------------------------------------------------------
# cli_paper


def _run_cli(command: List[str], env: Dict[str, str], err_path: Path):
    """Spawn one CLI process; time it to its first stdout line and exit."""
    start = now()
    with open(err_path, "w+") as err:
        proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err,
            text=True,
        )
        first = None
        chunks = []
        with proc.stdout:
            for line in proc.stdout:
                if first is None:
                    first = now() - start
                chunks.append(line)
        code = proc.wait()
        latency = now() - start
        err.seek(0)
        message = err.read()[-300:]
    return latency, first, "".join(chunks), code, message


def cli_paper(seconds: float, seed: int, traced: bool, setup_reps: int,
              work: Path, tracer: tracing.Tracer) -> Outcome:
    env = child_env(work)
    refs = reference.load("cli")["commands"]
    rec = Recorder()
    samples: List[float] = []
    pids: List[int] = []
    daemon = None
    dumps: List[dict] = []
    validate_stdout = None
    try:
        for rep in range(setup_reps):
            if daemon is not None:
                _check_hygiene(rec, daemon.stop())
            start = now()
            daemon = start_daemon(work, env, f"serve{rep}")
            samples.append(now() - start)
            pids += daemon.pids
        env["REPRO_CACHE_DIR"] = str(work / "cli-cache")
        commands = Deck(CLI_COMMANDS, random.Random(seed))
        end = now() + seconds
        index = 0
        # Whole rotations only: a partial one would change the command
        # mix, and so every metric, from seed to seed.
        while now() < end or index % len(CLI_COMMANDS):
            command = commands.draw()
            request_id = reference.cli_request_id(command)
            argv = list(command)
            if command[0] == "serve-request":
                argv += ["--socket", daemon.socket_path]
            spans = work / f"spans-{index}.json"
            full = (traced_command(spans, *argv) if traced
                    else repro_command(*argv))
            latency, first, stdout, code, message = _run_cli(
                full, env, work / "stderr.txt")
            want = refs[request_id]
            ok = code == 0 and reference.same_text(stdout, want["stdout"])
            rec.done(latency, first, want["cells"], ok,
                     f"{request_id}: exit {code}: {message.strip()}")
            if ok and command == ("validate",):
                validate_stdout = stdout
            if traced and spans.exists():
                dumps.append(json.loads(spans.read_text()))
            index += 1
    finally:
        if daemon is not None:
            _check_hygiene(rec, daemon.stop())
    _check_hygiene(rec, pids)
    outcome = Outcome(rec, 1, samples)
    if traced:
        outcome.trace = tracing.merge_dumps(dumps)
        imports = outcome.trace["aggregates"].get("repro.import", [0, 0, 0])
        outcome.extra["import_s"] = imports[1] / max(imports[0], 1) / 1e9
        outcome.extra["requests"] = len(dumps)
        return outcome
    # Every process of the system under test is a reaped child by now;
    # the in-process accuracy check below does not count toward it.
    outcome.peak_rss_mb = peak_rss_mb(include_self=False)
    use_sources()
    values = reference.accuracy()
    printed = (
        reference.parse_validate(validate_stdout) if validate_stdout
        else values["printed"]
    )
    _check_accuracy(rec, values, printed)
    outcome.accuracy = values
    return outcome


# ---------------------------------------------------------------------------
# sweep_serial / sweep_remote


def sweep_sequence(seed: int) -> Iterator[str]:
    """The seeded sweep request stream shared by both sweep workloads.

    Each public entry point the workloads exercise -- ``grid_spec``,
    inline ``speedups``, the ``sensitivity``, ``batch_sweep`` and
    ``dse`` specs, and the Table 3 / Table 4 harnesses -- is drawn
    equally often. Tile counts are drawn uniformly from
    :data:`SWEEP_TILES` and memories from :data:`MEMORIES`.
    """
    rng = random.Random(seed)
    kinds = Deck(("grid", "speedups") + FIXED_SWEEPS, rng)
    tiles = Deck(SWEEP_TILES, rng)
    memories = Deck(MEMORIES, rng)
    while True:
        kind = kinds.draw()
        if kind == "grid":
            yield f"grid/t{tiles.draw()}"
        elif kind == "speedups":
            yield f"speedups/{memories.draw()}/t{tiles.draw()}"
        else:
            yield kind


def _sweep_request(request_id: str, rec: Recorder,
                   refs: Dict[str, Any]) -> None:
    cells: List[Any] = []
    first = None
    start = now()
    try:
        spec = reference.build_sweep(request_id)
        if spec is None:
            rows = reference.run_table(request_id)
            latency = now() - start
        else:
            for cell in spec.stream(jobs=1):
                if first is None:
                    first = now() - start
                cells.append(cell)
            latency = now() - start
            rows = [row for cell in cells
                    for row in reference.spec_rows(spec, cell)]
        ok = reference.same_rows(rows, refs[request_id])
        what = f"{request_id}: rows differ from the reference"
    except Exception as error:  # a failed request; the loop goes on
        latency = now() - start
        ok, what = False, f"{request_id}: {type(error).__name__}: {error}"
    rec.done(latency, first, len(cells), ok, what)


def _sweeps(seconds: float, seed: int, traced: bool, setup_reps: int,
            work: Path, tracer: tracing.Tracer, loopback: int) -> Outcome:
    env = child_env(work)
    probes = [import_probe(env) for _ in range(setup_reps)]
    samples = [probe["wall_s"] for probe in probes]
    use_sources()
    import repro.cli  # noqa: F401  (the import users pay, done here once)
    from repro.experiments import parallel, remote
    from repro.sim.cache import clear_simulation_cache

    if traced:
        tracing.install(tracer)
    rec = Recorder()
    pids: List[int] = []
    try:
        if loopback:
            for rep in range(setup_reps):
                if rep:
                    parallel.shutdown_worker_pool()
                start = now()
                remote.configure_sweep_hosts(
                    remote.start_loopback_workers(loopback))
                samples[rep] += now() - start
                pids += [proc.pid for proc in remote.loopback_worker_procs()]
        refs = reference.load("sweep")["rows"]
        clear_simulation_cache()
        before = tracing.process_counters()
        sequence = sweep_sequence(seed)
        end = now() + seconds
        index = 0
        while now() < end:
            request_id = next(sequence)
            if traced:
                tracer.set_request(f"{index}:{request_id}")
                with tracer.span("bench", "request"):
                    _sweep_request(request_id, rec, refs)
            else:
                _sweep_request(request_id, rec, refs)
            index += 1
        counters = tracing.counter_delta(tracing.process_counters(), before)
    finally:
        parallel.shutdown_worker_pool()
        remote.configure_sweep_hosts(None)
    _check_hygiene(rec, pids)
    outcome = Outcome(rec, 1, samples)
    if traced:
        dump = tracer.dump()
        dump["counters"].update(counters)
        outcome.trace = tracing.merge_dumps([dump])
        outcome.extra["import_s"] = median([p["import_s"] for p in probes])
        outcome.extra["requests"] = rec.attempted
        return outcome
    # Read before the accuracy check below adds to this process's peak.
    outcome.peak_rss_mb = peak_rss_mb(include_self=True)
    values = reference.accuracy()
    _check_accuracy(rec, values, values["printed"])
    outcome.accuracy = values
    return outcome


def sweep_serial(seconds, seed, traced, setup_reps, work, tracer) -> Outcome:
    return _sweeps(seconds, seed, traced, setup_reps, work, tracer, 0)


def sweep_remote(seconds, seed, traced, setup_reps, work, tracer) -> Outcome:
    return _sweeps(seconds, seed, traced, setup_reps, work, tracer, 2)


# ---------------------------------------------------------------------------
# serve_mixed


def _serve_request(client, request_id: str,
                   stats: Optional[dict]) -> tuple:
    """One timed request; its rows are checked later by :func:`_check_served`.

    Checking is deferred so that one client thread's parsing and
    comparing never competes, for the CPU or the GIL, with the other
    client's request in flight.
    """
    kind, memory, tiles = reference.parse_id(request_id)
    if kind == "scenario":
        kwargs = {"scenario": request_id.split("/", 1)[1]}
    else:
        kwargs = reference.inline_request(memory, tiles)
    lines: List[str] = []
    first = None
    error = None
    if stats is not None:
        client.stamps = []
    start = now()
    try:
        for line in client.sweep_lines(**kwargs):
            if first is None:
                first = now() - start
            lines.append(line)
        latency = now() - start
    except Exception as exc:  # a failed request; the loop goes on
        latency = now() - start
        error = f"{request_id}: {type(exc).__name__}: {exc}"
    if stats is not None and error is None:
        summary = client.last_summary or {}
        ack = client.last_ack or {}
        stats["admit"].append(client.stamps[0] - start)
        stats["first_row"].append(latency if first is None else first)
        stats["stream"].append(latency - (latency if first is None else first))
        stats["fast_path"] += bool(summary.get("fast_path"))
        stats["coalesced"] += bool(ack.get("coalesced"))
    return request_id, latency, first, lines, error


def _check_served(rec: Recorder, refs: Dict[str, Any], served: tuple) -> None:
    request_id, latency, first, lines, error = served
    if error is None:
        ok = reference.same_rows([json.loads(line) for line in lines],
                                 refs["rows"][request_id])
        what = f"{request_id}: rows differ from the reference"
    else:
        ok, what = False, error
    rec.done(latency, first, refs["cells"][request_id], ok, what)


def _stamped_client_class():
    from repro.serve.client import ServeClient
    from repro.serve.protocol import parse_control

    class StampedClient(ServeClient):
        """A serve client that timestamps every control line it reads."""

        def __init__(self, *args: Any, **kwargs: Any) -> None:
            super().__init__(*args, **kwargs)
            self.stamps: List[float] = []

        def _recv_line(self, channel):
            line = super()._recv_line(channel)
            if line is not None and parse_control(line) is not None:
                self.stamps.append(now())
            return line

    return StampedClient


def serve_mixed(seconds: float, seed: int, traced: bool, setup_reps: int,
                work: Path, tracer: tracing.Tracer) -> Outcome:
    env = child_env(work)
    use_sources()
    from repro.serve.client import ServeClient

    client_class = _stamped_client_class() if traced else ServeClient
    refs = reference.load("serve")
    rec = Recorder()
    samples: List[float] = []
    pids: List[int] = []
    daemon = None
    spans = work / "daemon-spans.json"
    recorders = [Recorder(), Recorder()]
    stats = [
        {"admit": [], "first_row": [], "stream": [], "fast_path": 0,
         "coalesced": 0} if traced else None
        for _ in recorders
    ]
    try:
        for rep in range(setup_reps):
            if daemon is not None:
                _check_hygiene(rec, daemon.stop())
            start = now()
            daemon = start_daemon(work, env, f"serve{rep}",
                                  spans_out=spans if traced else None)
            warm_client = ServeClient(daemon.socket_path,
                                      timeout=CLIENT_TIMEOUT_S)
            warm = Recorder()
            for name in SCENARIOS:
                _check_served(warm, refs, _serve_request(
                    warm_client, f"scenario/{name}", None))
            samples.append(now() - start)
            pids += daemon.pids
            if warm.failed:
                for what in warm.errors:
                    rec.fail(f"warm-up {what}")
        before = daemon.status()
        pairs = [(m, t) for m in MEMORIES for t in SERVE_TILES]
        random.Random(seed).shuffle(pairs)
        end = now() + seconds
        served: List[List[tuple]] = [[] for _ in recorders]

        def client_loop(k: int) -> None:
            rng = random.Random(f"{seed}-{k}")
            kinds = Deck(["scenario"] * 3 + ["inline"], rng)
            scenarios = Deck(SCENARIOS, rng)
            client = client_class(daemon.socket_path, timeout=CLIENT_TIMEOUT_S)
            position = k
            while now() < end:
                if kinds.draw() == "inline":
                    memory, tiles = pairs[position % len(pairs)]
                    position += len(recorders)
                    request_id = f"inline/{memory}/t{tiles}"
                else:
                    request_id = f"scenario/{scenarios.draw()}"
                if traced:
                    tracer.set_request(request_id)
                    with tracer.span("bench", "request"):
                        served[k].append(
                            _serve_request(client, request_id, stats[k]))
                else:
                    served[k].append(_serve_request(client, request_id, None))

        errors: List[BaseException] = []

        def guarded(k: int) -> None:
            try:
                client_loop(k)
            except BaseException as error:  # re-raised after the join
                errors.append(error)

        threads = [threading.Thread(target=guarded, args=(k,), daemon=True)
                   for k in range(len(recorders))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        after = daemon.status()
        for client_rec, requests in zip(recorders, served):
            for request in requests:
                _check_served(client_rec, refs, request)
    finally:
        if daemon is not None:
            _check_hygiene(rec, daemon.stop())
    _check_hygiene(rec, pids)
    for client_rec in recorders:
        rec.merge(client_rec)
    outcome = Outcome(rec, len(recorders), samples)
    if traced:
        timed = sum(r.attempted for r in recorders)
        dumps = [tracer.dump()]
        if spans.exists():
            dumps.append(json.loads(spans.read_text()))
        outcome.trace = tracing.merge_dumps(dumps)
        admit = [x for s in stats for x in s["admit"]]
        first_row = [x for s in stats for x in s["first_row"]]
        stream = [x for s in stats for x in s["stream"]]
        ok = max(len(admit), 1)
        outcome.extra.update({
            "requests": timed + len(SCENARIOS),
            "serve.admit_s": sum(admit) / ok,
            "serve.first_row_s": sum(first_row) / ok,
            "serve.stream_s": sum(stream) / ok,
            "serve.fast_path_ratio": sum(s["fast_path"] for s in stats) / ok,
            "serve.coalesced": sum(s["coalesced"] for s in stats) / ok,
            "serve.sweeps_computed": (
                after["sweeps_computed"] - before["sweeps_computed"])
            / max(timed, 1),
            "serve.errors": (after["errors"] - before["errors"])
            / max(timed, 1),
        })
        imports = outcome.trace["aggregates"].get("repro.import", [0, 0, 0])
        outcome.extra["import_s"] = imports[1] / max(imports[0], 1) / 1e9
        return outcome
    values = reference.accuracy()
    _check_accuracy(rec, values, values["printed"])
    outcome.accuracy = values
    outcome.peak_rss_mb = peak_rss_mb(include_self=False)
    return outcome


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "cli_paper": cli_paper,
    "sweep_serial": sweep_serial,
    "serve_mixed": serve_mixed,
    "sweep_remote": sweep_remote,
}
