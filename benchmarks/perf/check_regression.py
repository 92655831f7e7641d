"""Compare a fresh benchmark run against ``BENCH_perf.json``.

Re-measures every benchmark recorded in the checked-in report and exits
nonzero if any ``after_s`` regressed by more than the tolerance (25% by
default — generous enough for container jitter, tight enough to catch an
accidental return to per-tile Python loops). Entries carrying a
``parallel_speedup_4w`` field (the sweep-executor anchor) additionally
gate their scaling ratio against runs on the same ``cpu_count``, entries
carrying a ``disk_hit_rate`` field (the disk-cache anchor) gate the warm
run's hit rate against a machine-independent 90% floor, and entries
carrying a ``first_result_fraction`` field (the streaming-engine anchor)
gate time-to-first-result: the fraction must stay below 1.0 — the
streamed path emits its first result before the last cell computes —
and within tolerance of the recorded ratio. ``RATIO_FLOORS`` adds
machine-independent gates: the window-blocked multi-core engine must
stay >=5x over its retained per-wave reference loop, the cross-cell
batched engine must hold its floors on both batching anchors (>=2.2x on
the dispatch-bound 48-cell short-stream grid, no outright regression on
the work-bound Figure 12 workload), the serve daemon must coalesce >=90% of duplicate
concurrent requests onto a single underlying sweep, and a cancelled
sweep must leave >=50% of its grid's pool tasks undispatched.
``RATIO_CEILINGS`` is the mirror image for overhead ratios: loopback
socket dispatch must stay within 2x of the fork pool, and a warm
replay on live socket workers must re-ship at most 10% of the cold
run's cache-shard bytes. Anchors in ``RECORD_ONLY_BENCHMARKS`` (the
end-to-end CLI wall time) are recorded for the trajectory and never
gated. On a single-CPU machine the parallel scaling gate is skipped
with a printed reason rather than silently passed, and
every skipped gate is also emitted as a machine-readable JSON line
(``{"skipped_gates": [...]}``) so CI can assert the skip reason.

Usage:

    PYTHONPATH=src python benchmarks/perf/check_regression.py
        [--report PATH] [--tolerance 0.25] [--repeats N]

Wired into pytest as the opt-in ``perf`` marker:

    python -m pytest -m perf benchmarks/perf
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

# Allow direct `python benchmarks/perf/check_regression.py` invocation:
# the interpreter puts this script's directory on sys.path, not the repo
# root that anchors the `benchmarks` package.
_REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(_REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT))

from benchmarks.perf.run_bench import (
    DEFAULT_OUTPUT,
    RECORD_ONLY_BENCHMARKS,
    run_benchmarks,
)


def _speed_scale(recorded: dict, fresh: dict) -> float:
    """How much slower this run's machine is than the recording's.

    The retained loop references run inside the same measurement, so
    their slowdown is pure machine/load difference — using it as an
    anchor keeps the gate from flagging a busy container (or a slower
    laptop) as a code regression. Scale is clamped at 1.0 so a *faster*
    machine still has to meet the recorded absolute numbers.
    """
    ratios = []
    for name, entry in recorded.items():
        baseline = entry.get("before_s")
        current = fresh.get(name, {}).get("before_s")
        if baseline and current:
            ratios.append(current / baseline)
    if not ratios:
        return 1.0
    ratios.sort()
    return max(1.0, ratios[len(ratios) // 2])


def _parallel_scaling_failures(
    recorded: dict, fresh: dict, tolerance: float,
    skips: "list[str] | None" = None,
) -> "list[str]":
    """Gate the sweep executor's scaling ratio (figure12_sweep_parallel).

    ``parallel_speedup_4w`` is serial-time over 4-worker-time measured
    in the same run, so machine *speed* cancels out — but the ratio is
    still bound by the machine's core count, so it is only compared when
    the fresh run sees the same ``cpu_count`` the report recorded. (The
    absolute ``after_s`` gate in :func:`compare` skips mismatched
    ``cpu_count`` entries for the same reason, so a mismatched machine
    is not gated on this anchor at all — re-record on the machine that
    runs the gate.) On a single-CPU machine the gate is skipped outright
    — pool workers cannot beat serial without a second core, so any
    ratio measured there is pool overhead, not scaling — and the skip is
    recorded in ``skips`` so a quiet pass can be told from a real one.
    Catches the executor silently degrading to serial-plus-overhead.
    """
    failures = []
    for name, entry in sorted(recorded.items()):
        ratio = entry.get("parallel_speedup_4w")
        if ratio is None:
            continue
        if (os.cpu_count() or 1) == 1:
            if skips is not None:
                skips.append(
                    f"{name}: parallel scaling gate skipped — this machine "
                    "has 1 CPU, so multi-worker speedup is unmeasurable "
                    "(re-record and gate on a multi-core host)"
                )
            continue
        fresh_entry = fresh.get(name, {})
        fresh_ratio = fresh_entry.get("parallel_speedup_4w")
        if fresh_ratio is None:
            failures.append(
                f"{name}: parallel scaling measurement disappeared"
            )
            continue
        if fresh_entry.get("cpu_count") != entry.get("cpu_count"):
            continue
        if fresh_ratio < ratio * (1.0 - tolerance):
            cpu_count = entry.get("cpu_count")
            machine = (
                f"the same {cpu_count:.0f}-CPU machine"
                if cpu_count is not None
                else "a machine of unrecorded core count"
            )
            failures.append(
                f"{name}: 4-worker speedup {fresh_ratio:.2f}x vs recorded "
                f"{ratio:.2f}x (allowed {ratio * (1.0 - tolerance):.2f}x "
                f"on {machine})"
            )
    return failures


#: Minimum warm-run disk hit rate for the dse_warm_cache anchor. A warm
#: replay of an unchanged grid should be served ~entirely from disk;
#: anything below this means the key digest or entry format drifted.
MIN_DISK_HIT_RATE = 0.9


def _warm_cache_failures(recorded: dict, fresh: dict) -> "list[str]":
    """Gate the disk-cache anchor's hit rate (dse_warm_cache).

    Unlike the wall-clock gates, the hit rate is machine-independent:
    a warm directory written and read by the same code must serve at
    least :data:`MIN_DISK_HIT_RATE` of the repeated sweep's lookups, or
    the content-addressed store has silently stopped recognizing its
    own entries (digest instability, schema churn, serialization
    breakage).
    """
    failures = []
    for name, entry in sorted(recorded.items()):
        if "disk_hit_rate" not in entry:
            continue
        fresh_entry = fresh.get(name, {})
        rate = fresh_entry.get("disk_hit_rate")
        if rate is None:
            failures.append(f"{name}: disk hit rate measurement disappeared")
        elif rate < MIN_DISK_HIT_RATE:
            failures.append(
                f"{name}: warm-disk hit rate {rate:.0%} below the "
                f"{MIN_DISK_HIT_RATE:.0%} floor"
            )
    return failures


#: Machine-independent ratio floors, keyed by benchmark name:
#: ``(field, floor, what it proves)``. Unlike the wall-clock gates these
#: compare two measurements from the *same* run, so machine speed
#: cancels out and the floor is absolute.
RATIO_FLOORS = {
    # The window-blocked multi-core engine must stay >=5x over the
    # retained (bit-identical) per-wave reference loop at 300 tiles.
    "multicore_event_blocked_300": (
        "speedup_vs_reference_loop", 5.0,
        "the blocked event engine has degraded toward the per-wave loop",
    ),
    # The cross-cell batched engine must stay well clear of the per-cell
    # scan on the dispatch-bound 48-cell short-stream grid (recorded
    # >=3x; the floor leaves jitter headroom).
    "grid_batched_48": (
        "batched_speedup", 2.2,
        "cross-cell batching has degraded toward per-cell dispatch",
    ),
    # On the paper's real 600-tile Figure 12 workload the runs are
    # work-bound and batching is ~parity (see docs/PERFORMANCE.md for
    # the tile-count decay) — this floor only catches the batched route
    # becoming an outright regression on real sweeps.
    "figure12_batched": (
        "batched_speedup", 0.85,
        "sweep-level batching now slows real workloads down",
    ),
    # N identical concurrent requests to the serve daemon must cost one
    # underlying sweep: every duplicate either coalesces onto the
    # running compute or is served off the warmed cache.
    "serve_coalesced_8x": (
        "coalesced_hit_rate", 0.9,
        "identical concurrent requests no longer coalesce onto one sweep",
    ),
    # A client hanging up after the first row must stop the daemon
    # dispatching the sweep's remaining cells: at least half the grid's
    # pool tasks are never submitted (recorded ~2/3 reclaimed on the
    # 48-cell anchor; detection costs a couple of row sends plus the
    # executor's bounded in-flight window).
    "serve_cancel_reclaim": (
        "reclaimed_fraction", 0.5,
        "cancelling a sweep no longer stops its pool dispatch",
    ),
    # A 48-entry cache delta must group-commit as one pack meaningfully
    # faster than 48 tmp+rename round-trips (recorded >=3x; the floor
    # leaves jitter headroom while still catching the packed path
    # silently degrading to the per-entry loop).
    "disk_delta_commit": (
        "delta_commit_speedup", 2.0,
        "packed delta commits have degraded toward per-entry writes",
    ),
    # Probing a warm directory through the persistent index must beat
    # re-stat-ing the store; below this the attach path has quietly gone
    # back to walking the directory.
    "disk_index_attach": (
        "index_attach_speedup", 1.5,
        "index-backed containment probes no longer beat the stat walk",
    ),
}


def _ratio_floor_failures(recorded: dict, fresh: dict) -> "list[str]":
    """Gate the machine-independent ratio floors (see RATIO_FLOORS)."""
    failures = []
    for name, (field, floor, meaning) in sorted(RATIO_FLOORS.items()):
        if name not in recorded:
            continue
        value = fresh.get(name, {}).get(field)
        if value is None:
            failures.append(f"{name}: {field} measurement disappeared")
        elif value < floor:
            failures.append(
                f"{name}: {field} {value:.2f} below the {floor:.2f} "
                f"floor — {meaning}"
            )
    return failures


#: Machine-independent ratio ceilings, keyed by benchmark name:
#: ``(field, ceiling, what exceeding it proves)``. The mirror image of
#: :data:`RATIO_FLOORS` for overhead ratios measured within one run,
#: where *smaller* is better and machine speed cancels out.
RATIO_CEILINGS = {
    # Dispatching a dispatch-bound grid through 2 loopback socket
    # workers may cost framing/pickling overhead over the fork pool,
    # but must stay within 2x of it — above that the socket transport
    # is re-shipping state per cell instead of amortizing it.
    "remote_dispatch_overhead": (
        "dispatch_overhead_ratio", 2.0,
        "loopback socket dispatch costs more than 2x the fork pool",
    ),
    # A warm replay on live socket workers must ship almost no shard
    # bytes: workers dedup their deltas against the parent's digest
    # set, so re-sending more than 10% of the cold transfer means
    # dedup has silently stopped recognizing entries.
    "remote_delta_dedup": (
        "warm_shard_bytes_ratio", 0.1,
        "warm socket replay re-ships cache shards dedup should skip",
    ),
}


def _ratio_ceiling_failures(recorded: dict, fresh: dict) -> "list[str]":
    """Gate the machine-independent ratio ceilings (see RATIO_CEILINGS)."""
    failures = []
    for name, (field, ceiling, meaning) in sorted(RATIO_CEILINGS.items()):
        if name not in recorded:
            continue
        value = fresh.get(name, {}).get(field)
        if value is None:
            failures.append(f"{name}: {field} measurement disappeared")
        elif value > ceiling:
            failures.append(
                f"{name}: {field} {value:.2f} above the {ceiling:.2f} "
                f"ceiling — {meaning}"
            )
    return failures


#: Hard ceiling for the streamed first-result fraction: at or above 1.0
#: the "stream" waits for the whole sweep, i.e. the incremental join has
#: silently degraded to a barrier.
MAX_FIRST_RESULT_FRACTION = 1.0


def _streaming_failures(
    recorded: dict, fresh: dict, tolerance: float
) -> "list[str]":
    """Gate time-to-first-result (figure12_time_to_first_result).

    ``first_result_fraction`` is first-cell time over full-sweep time
    measured in the same run, so machine speed cancels out. Two checks:
    the machine-independent ceiling (< 1.0 — streaming must beat the
    barrier by construction) and drift against the recorded ratio
    (catches the first cell silently doing a growing share of the
    sweep's work).
    """
    failures = []
    for name, entry in sorted(recorded.items()):
        ratio = entry.get("first_result_fraction")
        if ratio is None:
            continue
        fresh_ratio = fresh.get(name, {}).get("first_result_fraction")
        if fresh_ratio is None:
            failures.append(
                f"{name}: time-to-first-result measurement disappeared"
            )
            continue
        if fresh_ratio >= MAX_FIRST_RESULT_FRACTION:
            failures.append(
                f"{name}: first result arrived at {fresh_ratio:.0%} of the "
                "full sweep — the streamed path no longer emits before "
                "the sweep finishes"
            )
        elif fresh_ratio > ratio * (1.0 + tolerance):
            failures.append(
                f"{name}: first-result fraction {fresh_ratio:.2f} vs "
                f"recorded {ratio:.2f} (allowed "
                f"{ratio * (1.0 + tolerance):.2f})"
            )
    return failures


def compare(
    recorded: dict, fresh: dict, tolerance: float,
    skips: "list[str] | None" = None,
) -> "list[str]":
    """Return a list of human-readable regression descriptions.

    ``skips`` (if given) collects human-readable notes for gates that
    were skipped rather than evaluated (e.g. the parallel scaling gate
    on a single-CPU machine).
    """
    failures = []
    scale = _speed_scale(recorded, fresh)
    for name, entry in sorted(recorded.items()):
        baseline = entry.get("after_s")
        if baseline is None or name in RECORD_ONLY_BENCHMARKS:
            continue
        fresh_entry = fresh.get(name, {})
        current = fresh_entry.get("after_s")
        if current is None:
            failures.append(f"{name}: benchmark disappeared from the harness")
            continue
        if (
            "cpu_count" in entry
            and fresh_entry.get("cpu_count") != entry.get("cpu_count")
        ):
            # Pool-width timings are core-count-bound, not just
            # machine-speed-bound: a 4-worker wall time recorded on a
            # multi-core host is unreachable on a 1-CPU container no
            # matter how fast it is. Only same-shape runs are gated.
            continue
        allowed = baseline * scale * (1.0 + tolerance)
        if current > allowed:
            failures.append(
                f"{name}: {current * 1e6:.1f} us vs recorded "
                f"{baseline * 1e6:.1f} us (allowed {allowed * 1e6:.1f} us "
                f"at machine-speed scale {scale:.2f})"
            )
    failures.extend(
        _parallel_scaling_failures(recorded, fresh, tolerance, skips)
    )
    failures.extend(_warm_cache_failures(recorded, fresh))
    failures.extend(_streaming_failures(recorded, fresh, tolerance))
    failures.extend(_ratio_floor_failures(recorded, fresh))
    failures.extend(_ratio_ceiling_failures(recorded, fresh))
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--report", type=pathlib.Path, default=DEFAULT_OUTPUT,
        help=f"recorded report (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional slowdown before failing (default: 0.25)",
    )
    parser.add_argument(
        "--repeats", type=int, default=10,
        help="timed repetitions per benchmark (default: 10)",
    )
    args = parser.parse_args(argv)
    if not args.report.exists():
        print(
            f"no recorded report at {args.report}; generate one with "
            "benchmarks/perf/run_bench.py"
        )
        return 2
    recorded = json.loads(args.report.read_text())["benchmarks"]
    fresh = run_benchmarks(repeats=args.repeats)
    skips: "list[str]" = []
    failures = compare(recorded, fresh, args.tolerance, skips)
    for skip in skips:
        print(f"skipped gate: {skip}")
    # Machine-readable skip record: CI asserts the skip *reason* off this
    # line instead of grepping the prose above.
    print(json.dumps({"skipped_gates": skips}))
    if failures:
        print("performance regressions detected:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(
        f"all {len(recorded)} benchmarks within +{args.tolerance:.0%} of "
        f"{args.report}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
