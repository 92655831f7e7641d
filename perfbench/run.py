"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep_serial --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload twice for half the time each, first
untraced in a child process and then traced in this one, and reports
the per-layer metrics of the traced half plus the tracing overhead
(traced minus untraced) of each end-to-end timing. It also writes a
Chrome trace-event file, ``.perfbench/traces/<workload>.json``, and prints a
one-line per-layer summary.

The last line of standard output is always the JSON result
``{"correct", "attempted", "failed", "metrics"}``; diagnostics go to
standard error. ``--smoke`` runs every workload briefly in both modes
and checks that each metric named in ``BENCHMARK.json`` appears with
its unit and a direction, and that ``metrics.MOVES`` covers every layer.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from typing import Dict, List

import metrics
from common import (
    ROOT,
    SCRATCH,
    SETUP_REPS,
    BenchError,
    require_sources,
    scrub_repro_env,
)

#: A run must finish within 180 s; past this it stops and fails.
RUN_LIMIT_S = 170

OVERHEAD_TIMINGS = ("setup_s", "latency_p50_s", "latency_p90_s",
                    "first_row_p50_s")


def _on_alarm(_signum, _frame) -> None:
    raise BenchError(f"run exceeded {RUN_LIMIT_S} s")


def _run_workload(workload: str, seed: int, seconds: float, traced: bool,
                  setup_reps: int):
    import tracing
    import workloads

    tag = "traced" if traced else "plain"
    work = SCRATCH / f"{workload}-{seed}-{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Temporary files of this process and of the children it starts
    # without child_env (the loopback workers) stay inside the checkout,
    # and in-process sweeps see the same clean environment as children.
    os.environ["TMPDIR"] = str(work)
    scrub_repro_env(os.environ)
    try:
        return workloads.WORKLOADS[workload](
            seconds, seed, traced, setup_reps, work, tracing.Tracer())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def load_registry() -> dict:
    """``BENCHMARK.json``: every metric's name, unit, direction, bound."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(correct: bool, attempted: int, failed: int,
            values: Dict[str, float], declared: List[dict]) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }


def _report_failures(rec) -> None:
    print(f"failed_ratio: {rec.failed}/{rec.attempted}", file=sys.stderr)
    for what in rec.errors[:5]:
        print(f"  failed: {what}", file=sys.stderr)


def untraced(workload: str, seed: int, seconds: float, setup_reps: int,
             registry: dict) -> dict:
    outcome = _run_workload(workload, seed, seconds, False, setup_reps)
    rec = outcome.rec
    values = outcome.end_to_end()
    print(f"{workload}: {len(rec.latencies)} latency samples "
          f"({len(rec.latencies) // 10} beyond p90), "
          f"{len(outcome.setup_samples)} set-ups", file=sys.stderr)
    _report_failures(rec)
    return _result(rec.failed == 0, rec.attempted, rec.failed, values,
                   registry["end_to_end"])


def _summary_line(workload: str, layers: Dict[str, float]) -> str:
    def ms(name: str) -> str:
        return f"{layers[name] * 1e3:.3f}"

    return (
        f"per-layer [{workload}] import {layers['repro.import_s']:.3f}s"
        f" | ms/req: cli {ms('cli.self_s')}"
        f" report {ms('report.render_s')}"
        f" build {ms('sweepspec.build_s')}"
        f" sweepspec {ms('sweepspec.self_s')}"
        f" pipeline {ms('pipeline.busy_s')}"
        f" ({layers['pipeline.ns_per_tile']:.0f} ns/tile)"
        f" llm {ms('llm.busy_s')}"
        f" disk-load {ms('diskcache.load_s')}"
        f" disk-store {ms('diskcache.store_s')}"
        f" parallel-wait {ms('parallel.wait_s')}"
        f" remote-wait {ms('remote.wait_s')}"
        f" | cache hit {layers['cache.hit_ratio']:.1%}"
        f" | serve admit {ms('serve.admit_s')} ms"
        f" | overhead p50 {ms('overhead.latency_p50_s')} ms"
        f" p90 {ms('overhead.latency_p90_s')} ms"
    )


def traced(workload: str, seed: int, seconds: float, registry: dict) -> dict:
    import tracing

    half = seconds / 2.0
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(half), "--trace", "0",
         "--setup-reps", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    sys.stderr.write(child.stderr)
    if child.returncode != 0:
        raise BenchError(f"untraced half failed (exit {child.returncode})")
    plain = json.loads(child.stdout.strip().splitlines()[-1])
    outcome = _run_workload(workload, seed, half, True, 1)
    timed = outcome.end_to_end()
    extra = dict(outcome.extra)
    for name in OVERHEAD_TIMINGS:
        extra[f"overhead.{name}"] = (
            timed[name] - plain["metrics"][name]["value"])
    declared = registry["per_layer"]
    layers = metrics.layer_metrics(outcome.trace, extra,
                                   [m["name"] for m in declared])
    trace_path = SCRATCH / "traces" / f"{workload}.json"
    tracing.write_chrome_trace(trace_path, outcome.trace)
    print(f"trace: {os.path.relpath(trace_path, ROOT)} "
          f"({len(outcome.trace['events'])} spans kept, "
          f"{outcome.trace['dropped']} dropped)", file=sys.stderr)
    _report_failures(outcome.rec)
    print(_summary_line(workload, layers))
    attempted = outcome.rec.attempted + plain["attempted"]
    failed = outcome.rec.failed + plain["failed"]
    return _result(failed == 0, attempted, failed, layers, declared)


# ---------------------------------------------------------------------------
# Smoke check


def smoke(seconds: float, spec: dict) -> int:
    problems = []
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m.get("better") not in ("lower", "higher"):
            problems.append(f"{m['name']}: no direction")
    for m in spec["per_layer"]:
        if not any(m["name"].startswith(prefix) for prefix in metrics.MOVES):
            problems.append(f"{m['name']}: no entry in metrics.MOVES")
    for workload in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", workload["name"], "--seed", "1",
                 "--seconds", repr(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            label = f"{workload['name']} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: "
                                f"{done.stderr.strip()[-300:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} failed")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics/units differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            print(f"smoke {label}: {len(got)} metrics, "
                  f"{result['attempted']} attempted", file=sys.stderr)
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-reps", type=int, default=SETUP_REPS,
                        help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly, check the metrics")
    args = parser.parse_args(argv)
    try:
        require_sources()
        registry = load_registry()
        if args.smoke:
            return smoke(2.0, registry)
        import workloads

        if args.workload not in workloads.WORKLOADS:
            parser.error(f"--workload must be one of "
                         f"{', '.join(workloads.WORKLOADS)}")
        os.chdir(ROOT)
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(RUN_LIMIT_S)
        if args.trace:
            result = traced(args.workload, args.seed, args.seconds, registry)
        else:
            result = untraced(args.workload, args.seed, args.seconds,
                              args.setup_reps, registry)
        signal.alarm(0)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
