"""Streaming sweep: consume results while the grid is still computing.

Run with: python examples/streaming_sweep.py [--jobs N]
    [--out rows.jsonl]

Every sweep in this package is a declarative ``SweepSpec`` (named axes
→ cell grid, a picklable per-cell task, a reducer) executed by a
streaming engine: workers ship back ``(cell_index, result,
cache_delta)`` chunks as each cell finishes, the parent merges cache
deltas and re-sorts by index on the fly, and ``spec.stream()`` yields
results in input order long before the last cell computes. This
example demonstrates the three things that buys you:

1. **time to first result** — the first record arrives at a small
   fraction of the full-sweep wall clock;
2. **incremental emission** — with ``--out``, every row is written and
   flushed as its cell lands (`tail -f` the file mid-sweep);
3. **early exit** — breaking out of the stream cancels every cell that
   has not been dispatched yet.

A note on batching: batchable specs (the grid is one) default to
*cross-cell batched* execution — shape-compatible cells are simulated
as one stacked NumPy pass that seeds the cache, and the per-cell tasks
then stream warm hits. Records, ordering, and emitted rows are
bit-identical either way; what changes is the latency profile (the
stack computes before the first yield, trading time-to-first-result
for total wall time). The latency demos below pass ``batch=False`` to
show the per-cell profile; drop it to see the batched profile.
"""

import argparse
import time

from repro.core.schemes import PAPER_SCHEMES
from repro.experiments.grid import grid_spec
from repro.experiments.parallel import last_sweep_execution
from repro.experiments.sweepspec import (
    iter_scenarios,
    open_emitter,
)
from repro.sim import clear_simulation_cache
from repro.sim.system import ddr_system, hbm_system


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker processes (0 = one per CPU, 1 = serial)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="emit per-cell rows to PATH (.csv or .jsonl) "
                             "incrementally")
    args = parser.parse_args()

    # ------------------------------------------------------------------
    # 0. The registry: every sweep the package declares.
    # ------------------------------------------------------------------
    print("registered sweep scenarios:")
    for scenario in iter_scenarios():
        print(f"  {scenario.name:<12} {scenario.summary}")
    print()

    spec = grid_spec(
        systems=(hbm_system(), ddr_system()), schemes=PAPER_SCHEMES
    )
    total = spec.cell_count
    print(f"grid spec: {total} cells ({spec.describe_axes()})")

    # ------------------------------------------------------------------
    # 1 + 2. Stream the grid: first result early, rows emitted per cell.
    # ------------------------------------------------------------------
    clear_simulation_cache()
    emitter = open_emitter(args.out) if args.out else None
    start = time.perf_counter()
    first_at = None
    records = []
    for cell in spec.stream(jobs=args.jobs, batch=False):
        if first_at is None:
            first_at = time.perf_counter() - start
        records.append(cell.value)
        if emitter is not None:
            for row in spec.rows_for(cell):
                emitter.emit(row)
    full = time.perf_counter() - start
    if emitter is not None:
        emitter.close()
        print(f"emitted {total} rows incrementally to {args.out}")
    execution = last_sweep_execution()
    print(f"first record after {first_at * 1e3:6.1f} ms "
          f"({first_at / full:.0%} of the {full * 1e3:.1f} ms sweep, "
          f"{execution.jobs} worker(s))")

    # ------------------------------------------------------------------
    # 3. Early exit: stop after 4 cells; undispatched cells never run.
    # ------------------------------------------------------------------
    clear_simulation_cache()
    consumed = 0
    for cell in spec.stream(jobs=args.jobs, batch=False):
        consumed += 1
        if consumed == 4:
            break  # closing the stream cancels outstanding dispatch
    execution = last_sweep_execution()
    print(f"early exit: consumed {consumed}/{total} cells, "
          f"computed only {execution.completed} "
          f"(cancelled={execution.cancelled})")

    # The reduced (buffered) path is unchanged and warm from the merge.
    start = time.perf_counter()
    rerun = spec.run(jobs=1)
    assert rerun == records, "streamed records must match the buffered run"
    print(f"warm buffered rerun: {(time.perf_counter() - start) * 1e3:6.1f} "
          f"ms for {len(rerun)} records")


if __name__ == "__main__":
    main()
