"""How the per-layer metrics are computed, and what each should explain.

``BENCHMARK.json`` is the registry: every metric's name, unit,
direction and bound. End-to-end metrics come from untraced runs
(``--trace 0``); per-layer metrics from traced runs (``--trace 1``).
Every workload reports every metric: a layer a workload never calls
reads 0. ``/req`` units are means over the requests of the traced
window (for a daemon, its warm-up requests included).

``MOVES`` records, before any optimisation is measured, which
end-to-end metric on which workload each layer's metrics should move;
``BENCHMARK.json`` has no key for it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

#: Layer metric prefix -> the (end-to-end metric, workload) pairs it
#: should move.
MOVES: Dict[str, List[Tuple[str, str]]] = {
    "repro.": [("latency_p50_s", "cli_paper"), ("latency_p90_s", "cli_paper"),
               ("setup_s", "every workload")],
    "cli.": [("latency_p50_s", "cli_paper")],
    "report.": [("latency_p50_s", "cli_paper")],
    "sweepspec.": [("latency_p50_s", "sweep_serial"),
                   ("first_row_p50_s", "sweep_serial")],
    "pipeline.": [("cells_per_s", "sweep_serial"),
                  ("latency_p90_s", "sweep_serial"),
                  ("latency_p90_s", "serve_mixed")],
    "llm.": [("latency_p90_s", "sweep_serial")],
    "cache.": [("peak_rss_mb", "sweep_serial"), ("cells_per_s", "sweep_serial"),
               ("latency_p50_s", "serve_mixed")],
    "diskcache.": [("latency_p50_s", "cli_paper"),
                   ("latency_p90_s", "serve_mixed")],
    "parallel.": [("latency_p90_s", "serve_mixed"),
                  ("requests_per_s", "serve_mixed")],
    "remote.": [("cells_per_s", "sweep_remote"), ("setup_s", "sweep_remote")],
    "serve.": [("latency_p50_s", "serve_mixed"),
               ("latency_p90_s", "serve_mixed"),
               ("requests_per_s", "serve_mixed")],
    "overhead.": [],
    "trace.": [],
}


def layer_metrics(trace: dict, extra: Dict[str, float],
                  names: Iterable[str]) -> Dict[str, float]:
    """Per-layer metrics from a merged span dump (see ``tracing``).

    ``extra`` carries what spans cannot: the request count the ``/req``
    figures divide by, the import time, the serve client's control-line
    timings, and the tracing overhead. ``names`` are the per-layer
    metrics ``BENCHMARK.json`` declares; any not computed here is taken
    from ``extra``, or reads 0.
    """
    aggs, counters = trace["aggregates"], trace["counters"]
    requests = max(extra.get("requests", 0), 1)

    def self_s(*keys: str) -> float:
        return sum(aggs.get(key, [0, 0, 0])[2] for key in keys) / 1e9

    def calls(*keys: str) -> int:
        return sum(aggs.get(key, [0, 0, 0])[0] for key in keys)

    def mean_s(key: str) -> float:
        count, total, _own = aggs.get(key, [0, 0, 0])
        return total / count / 1e9 if count else 0.0

    def per_req(value: float) -> float:
        return value / requests

    def counter(name: str) -> float:
        return counters.get(name, 0)

    engine = ("pipeline.simulate_tile_stream",
              "pipeline.simulate_tile_stream_batch")
    tiles = counter("pipeline.tiles_simulated")
    cells = counter("sweepspec.cells")
    hits = counter("cache.hits") + counter("cache.disk_hits")
    lookups = hits + counter("cache.misses")
    metrics = {
        "repro.import_s": extra.get("import_s", 0.0),
        "cli.self_s": per_req(self_s("cli.main")),
        "report.render_s": per_req(self_s("report.render")),
        "sweepspec.build_s": per_req(self_s("sweepspec.build")),
        "sweepspec.self_s": per_req(self_s("sweepspec.stream")),
        "sweepspec.cells": per_req(cells),
        "sweepspec.batched_cell_ratio": (
            counter("sweepspec.batched_cells") / cells if cells else 0.0),
        "pipeline.busy_s": per_req(self_s(*engine)),
        "pipeline.calls": per_req(counter("pipeline.calls")),
        "pipeline.tiles_simulated": per_req(tiles),
        "pipeline.ns_per_tile": self_s(*engine) * 1e9 / tiles if tiles else 0.0,
        "llm.busy_s": per_req(self_s("llm.next_token_latency",
                                     "llm.fc_gemm_seconds")),
        "llm.calls": per_req(calls("llm.next_token_latency",
                                   "llm.fc_gemm_seconds")),
        "cache.hits": per_req(hits),
        "cache.misses": per_req(counter("cache.misses")),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.entries": counter("max:cache.entries"),
        "diskcache.hits": per_req(counter("diskcache.hits")),
        "diskcache.stores": per_req(counter("diskcache.stores")),
        "diskcache.pack_commits": per_req(counter("diskcache.pack_commits")),
        "diskcache.errors": per_req(counter("diskcache.errors")),
        "diskcache.load_s": per_req(self_s("diskcache.load")),
        "diskcache.store_s": per_req(self_s("diskcache.store")),
        "parallel.tasks_dispatched": per_req(
            counter("parallel.tasks_dispatched")),
        "parallel.wait_s": per_req(self_s("parallel.stream_map")),
        "parallel.pool_start_s": mean_s("parallel.pool_start"),
        "parallel.redispatched_cells": per_req(
            counter("parallel.redispatched_cells")),
        "remote.worker_ready_s": mean_s("remote.worker_ready"),
        "remote.wait_s": per_req(self_s("remote.stream_map")),
        "remote.delta_bytes_sent": per_req(counter("remote.delta_bytes_sent")),
        "remote.delta_bytes_received": per_req(
            counter("remote.delta_bytes_received")),
        "remote.redispatched_cells": per_req(
            counter("remote.redispatched_cells")),
        "trace.spans": sum(values[0] for values in aggs.values()),
    }
    for name in names:
        metrics.setdefault(name, extra.get(name, 0.0))
    return metrics
