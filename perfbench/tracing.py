"""Bench-side tracing: spans around calls into each layer's public API.

Nothing under ``src/`` knows about this module. :func:`install` wraps
the package's public entry points in place — module functions wherever
an importer bound them by name, and methods on their classes — so each
call records a span ``(layer, name, start, end, parent, request)``.

Spans stay in memory. Every thread keeps a stack of open spans and an
aggregate per ``(layer, name)``: call count, total duration, and *self*
time, which is the duration minus the part covered by child spans.
Children run on their parent's thread, so the covered part is the sum
of the child durations. Iterators (``SweepSpec.stream``,
``stream_map``) get one span per resumption, so the consumer's work
between two cells is never charged to the producer.

Raw spans (up to :data:`MAX_EVENTS`) are written at the end of the run
as a Chrome trace-event file; the aggregates are exact regardless.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

#: Raw span events kept for the trace file (aggregates are unbounded).
MAX_EVENTS = 50_000

#: ``(layer, name)`` aggregates: ``[calls, total_ns, self_ns]``.
Aggregates = Dict[str, List[int]]


def agg_key(layer: str, name: str) -> str:
    return f"{layer}.{name}"


class _ThreadState:
    __slots__ = ("stack", "agg", "request", "tid")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.agg: Aggregates = {}
        self.request: Optional[str] = None
        self.tid = threading.get_ident()


class Tracer:
    """In-memory span recorder (thread-safe; one per process)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.events: List[dict] = []
        self.dropped = 0
        self.counters: Dict[str, float] = {}
        self.pid = os.getpid()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def set_request(self, request: Optional[str]) -> None:
        """Tag the spans this thread records next with a request id."""
        self._state().request = request

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def begin(self, layer: str, name: str) -> list:
        state = self._state()
        frame = [layer, name, time.monotonic_ns(), 0, next(self._ids)]
        state.stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        now = time.monotonic_ns()
        state = self._local.state
        state.stack.pop()
        layer, name, start, covered, span_id = frame
        duration = now - start
        key = agg_key(layer, name)
        agg = state.agg.get(key)
        if agg is None:
            agg = state.agg[key] = [0, 0, 0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - covered
        parent = state.stack[-1] if state.stack else None
        if parent is not None:
            parent[3] += duration
        if len(self.events) < MAX_EVENTS:
            self.events.append({
                "name": name, "cat": layer, "ph": "X",
                "ts": start / 1000.0, "dur": duration / 1000.0,
                "pid": self.pid, "tid": state.tid,
                "args": {"id": span_id,
                         "parent": parent[4] if parent else None,
                         "request": state.request},
            })
        else:
            self.dropped += 1

    def span(self, layer: str, name: str) -> "_Span":
        return _Span(self, layer, name)

    def aggregates(self) -> Aggregates:
        merged: Aggregates = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, (calls, total, own) in list(state.agg.items()):
                into = merged.setdefault(key, [0, 0, 0])
                into[0] += calls
                into[1] += total
                into[2] += own
        return merged

    def dump(self) -> dict:
        """Everything recorded, as one JSON-ready document."""
        return {
            "pid": self.pid,
            "aggregates": self.aggregates(),
            "counters": dict(self.counters),
            "events": list(self.events),
            "dropped": self.dropped,
        }


class _Span:
    __slots__ = ("tracer", "layer", "name", "frame")

    def __init__(self, tracer: Tracer, layer: str, name: str) -> None:
        self.tracer, self.layer, self.name = tracer, layer, name

    def __enter__(self) -> "_Span":
        self.frame = self.tracer.begin(self.layer, self.name)
        return self

    def __exit__(self, *exc: Any) -> None:
        self.tracer.end(self.frame)


def merge_dumps(dumps: Iterable[dict]) -> dict:
    """Fold several processes' dumps into one (aggregates and counters add)."""
    merged = {"aggregates": {}, "counters": {}, "events": [], "dropped": 0,
              "processes": 0}
    for dump in dumps:
        merged["processes"] += 1
        for key, values in dump["aggregates"].items():
            into = merged["aggregates"].setdefault(key, [0, 0, 0])
            for i, value in enumerate(values):
                into[i] += value
        for key, value in dump["counters"].items():
            if key.startswith("max:"):
                merged["counters"][key] = max(
                    merged["counters"].get(key, 0), value)
            else:
                merged["counters"][key] = (
                    merged["counters"].get(key, 0) + value)
        room = MAX_EVENTS - len(merged["events"])
        merged["events"].extend(dump["events"][:max(room, 0)])
        merged["dropped"] += dump["dropped"] + max(
            len(dump["events"]) - max(room, 0), 0)
    return merged


def write_chrome_trace(path: Path, merged: dict) -> None:
    """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "traceEvents": merged["events"],
        "displayTimeUnit": "ms",
        "otherData": {"dropped_events": merged["dropped"]},
    }
    path.write_text(json.dumps(document))


# ---------------------------------------------------------------------------
# Wrapping the package's entry points


def _patch_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind ``original`` to ``replacement`` in every ``repro`` module.

    Covers both the defining module and every module that bound the
    function by name at import time (``from x import f``).
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)


def traced_call(tracer: Tracer, layer: str, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        frame = tracer.begin(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(frame)
    return wrapper


def traced_iter(
    tracer: Tracer, layer: str, name: str, iterator: Iterator,
    on_item: Optional[Callable[[Any], None]] = None,
    on_close: Optional[Callable[[], None]] = None,
) -> Iterator:
    """``iterator`` with one span per resumption."""
    try:
        while True:
            frame = tracer.begin(layer, name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                tracer.end(frame)
            if on_item is not None:
                on_item(item)
            yield item
    finally:
        close = getattr(iterator, "close", None)
        if close is not None:
            close()
        if on_close is not None:
            on_close()


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the imported ``repro`` package."""
    from repro.experiments import (
        batch_sweep, composite, dse, figure12, figure13, grid, parallel,
        remote, report, sensitivity, speedups, sweepspec,
    )
    from repro.llm import inference
    from repro.serve import inline
    from repro.serve import daemon  # noqa: F401  (binds names to patch)
    from repro.sim import cache as simcache
    from repro.sim import diskcache, pipeline

    def patch(module: Any, attr: str, make: Callable[[Callable], Callable]):
        original = getattr(module, attr)
        _patch_everywhere(original, make(original))

    def call(layer: str, name: str) -> Callable[[Callable], Callable]:
        return lambda fn: traced_call(tracer, layer, name, fn)

    # sweepspec: spec construction, scenario builds, and the stream itself.
    for module, attr in (
        (grid, "grid_spec"), (speedups, "speedup_spec"), (dse, "dse_spec"),
        (sensitivity, "sweep_spec"), (batch_sweep, "sweep_spec"),
        (figure12, "sweep_spec"), (figure13, "sweep_spec"),
        (composite, "figure12_figure13_sweep"),
        (inline, "build_request_spec"),
    ):
        patch(module, attr, call("sweepspec", "build"))

    def traced_lookup(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def lookup(name: str):
            scenario = fn(name)
            if scenario is None:
                return None
            return dataclasses.replace(
                scenario,
                build=traced_call(tracer, "sweepspec", "build", scenario.build),
            )
        return lookup

    patch(sweepspec, "get_scenario", traced_lookup)
    patch(sweepspec, "find_scenario", traced_lookup)

    original_stream = sweepspec.SweepSpec.stream

    @functools.wraps(original_stream)
    def stream(self, jobs=1, progress=None, batch=None, deadline=None):
        cells = self.cell_count
        batched = (
            self.batchable is not None and cells > 1
            and sweepspec.batching_enabled(batch)
        )

        def on_item(_cell: Any) -> None:
            tracer.count("sweepspec.cells")
            if batched:
                tracer.count("sweepspec.batched_cells")

        return traced_iter(
            tracer, "sweepspec", "stream",
            original_stream(self, jobs, progress, batch=batch,
                            deadline=deadline),
            on_item=on_item,
        )

    sweepspec.SweepSpec.stream = stream

    # report: table and sweep rendering.
    for cls in (report.Table, sweepspec.SweepSpec, sweepspec.CompositeSweep):
        cls.render = traced_call(tracer, "report", "render", cls.render)

    # sim.pipeline: the tile-stream front doors. Tiles are counted at the
    # outermost call only, from the cache's miss counter (a hit
    # simulates nothing).
    depth = threading.local()

    def traced_engine(fn: Callable, tiles_of: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            outer = getattr(depth, "n", 0) == 0
            misses = simcache.simulation_cache_stats().misses if outer else 0
            depth.n = getattr(depth, "n", 0) + 1
            frame = tracer.begin("pipeline", fn.__name__)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(frame)
                depth.n -= 1
                if outer:
                    computed = (
                        simcache.simulation_cache_stats().misses - misses)
                    uncached = kwargs.get("use_cache", True) is False
                    tracer.count("pipeline.calls")
                    tracer.count("pipeline.tiles_simulated",
                                 tiles_of(args, kwargs, computed, uncached))
        return wrapper

    def single_tiles(args, kwargs, computed, uncached):
        tiles = args[2] if len(args) > 2 else kwargs.get("tiles", 600)
        return tiles if (computed or uncached) else 0

    def batch_tiles(args, kwargs, computed, uncached):
        cells = list(args[0] if args else kwargs["cells"])
        if not cells:
            return 0
        mean = sum(cell[2] for cell in cells) / len(cells)
        return mean * (len(cells) if uncached else computed)

    patch(pipeline, "simulate_tile_stream",
          lambda fn: traced_engine(fn, single_tiles))
    patch(pipeline, "simulate_tile_stream_batch",
          lambda fn: traced_engine(fn, batch_tiles))

    # llm: next-token latency model.
    patch(inference, "next_token_latency", call("llm", "next_token_latency"))
    patch(inference, "fc_gemm_seconds", call("llm", "fc_gemm_seconds"))

    # sim.diskcache / sim.diskindex: disk-tier reads and writes.
    for method in ("load", "store", "store_batch"):
        setattr(diskcache.DiskCache, method, traced_call(
            tracer, "diskcache", method.replace("_batch", ""),
            getattr(diskcache.DiskCache, method)))

    # experiments.parallel / experiments.remote: the executor stream.
    def traced_stream_map(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(task, items, *args: Any, **kwargs: Any):
            items = list(items)
            layer = (
                "remote" if len(items) > 1 and remote.active_sweep_hosts()
                else "parallel"
            )

            def on_close() -> None:
                execution = parallel.last_sweep_execution()
                if execution is not None:
                    tracer.count(f"{layer}.redispatched_cells",
                                 execution.redispatched_cells)

            return traced_iter(
                tracer, layer, "stream_map",
                fn(task, items, *args, **kwargs), on_close=on_close,
            )
        return wrapper

    patch(parallel, "stream_map", traced_stream_map)
    patch(parallel, "claim_worker_pool", call("parallel", "pool_start"))
    patch(remote, "start_loopback_workers", call("remote", "worker_ready"))


def process_counters() -> Dict[str, float]:
    """This process's cumulative layer counters from the public snapshots."""
    from repro.experiments.parallel import dispatched_task_count
    from repro.experiments.remote import executor_topology
    from repro.sim.cache import simulation_cache_disk, simulation_cache_stats

    stats = simulation_cache_stats()
    counters = {
        "cache.hits": stats.hits,
        "cache.misses": stats.misses,
        "cache.disk_hits": stats.disk_hits,
        "max:cache.entries": stats.size,
        "parallel.tasks_dispatched": dispatched_task_count(),
    }
    topology = executor_topology()
    counters["remote.delta_bytes_sent"] = topology["delta_bytes_sent"]
    counters["remote.delta_bytes_received"] = topology["delta_bytes_received"]
    disk = simulation_cache_disk()
    if disk is not None:
        disk_stats = disk.stats()
        for field in ("hits", "stores", "pack_commits", "errors"):
            counters[f"diskcache.{field}"] = getattr(disk_stats, field)
    return counters


def counter_delta(after: Dict[str, float], before: Dict[str, float]):
    """Counter movement between two :func:`process_counters` snapshots."""
    return {
        key: value if key.startswith("max:") else value - before.get(key, 0)
        for key, value in after.items()
    }
