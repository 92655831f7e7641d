"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``experiments [NAME ...]`` — regenerate paper tables/figures (default:
  all of them) and print the comparison tables. ``--list`` enumerates
  the registered sweep scenarios; any registered name runs through the
  declarative sweep engine, with ``--out results.jsonl`` /
  ``--out results.csv`` emitting per-cell rows *incrementally* as
  workers finish (``--stream`` additionally prints each row to stdout,
  ``--progress`` reports per-cell completion on stderr).
* ``simulate`` — simulate compressed GeMM kernels and report interval,
  TFLOPS, utilisation, and optionally an ASCII Gantt window.
* ``llm`` — next-token latency for Llama2-70B or OPT-66B.
* ``dse`` — the (W, L) design-space exploration of Section 9.2.
* ``area`` — the DECA area model for a given (W, L).
* ``formats`` — list the registered quantization formats.
* ``cache prune`` — trim a disk cache directory to a byte budget
  and/or maximum entry age (LRU by last use).
* ``serve`` — run the sweep-serving daemon on a local UNIX socket: one
  shared persistent pool and cache serving many clients, identical
  in-flight requests coalesced onto a single compute, SIGTERM drains
  gracefully (see ``docs/SERVING.md``).
* ``serve-request`` — send one request (a scenario name, ``--inline``
  JSON, ``--status``, or ``--ping``) to a running daemon and stream
  its JSONL rows to stdout.
* ``worker`` — run one socket sweep worker: bind a TCP port (loopback
  by default) and serve cell partitions dispatched by a parent's
  ``--hosts`` / ``REPRO_SWEEP_HOSTS`` sweep (see
  ``docs/DISTRIBUTED.md`` for the operator guide and trust model).

Repeated simulations are served from the process-wide LRU cache
(``repro.sim.cache``), and the sweep-shaped commands (``experiments``,
``simulate`` with several schemes, ``dse``) accept ``--jobs N`` to fan
independent configurations out across a persistent pool of forked
worker processes whose caches are merged incrementally as cells finish
(``--jobs 0`` = one worker per CPU; the pool is reused by every sweep
in the invocation). Workers start with a fork-time copy of the
parent's cache, keep their own entries across sweeps, and read the
shared disk tier lazily, so back-to-back sweeps — e.g. the registered
``figure12+figure13`` composite scenario — stay warm without any
dispatch-time traffic. The same commands accept ``--cache-dir PATH``
(or the ``REPRO_CACHE_DIR`` environment variable) to spill simulation
results to a disk-backed cache that survives process restarts: a
re-run of the same sweep against a warm directory replays from disk
instead of simulating. An unusable directory degrades to memory-only
with a warning, and ``REPRO_CACHE_MAX_BYTES`` bounds the directory
(pruned least-recently-used-first at attach time).
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from typing import List, Optional

from repro.core.schemes import PAPER_SCHEMES, UNCOMPRESSED, parse_scheme
from repro.errors import ConfigurationError
from repro.deca.area import deca_area
from repro.deca.config import DecaConfig
from repro.deca.integration import deca_kernel_timing
from repro.formats.registry import available_formats, get_format
from repro.kernels.libxsmm import (
    software_kernel_timing,
    uncompressed_kernel_timing,
)
from repro.llm.inference import EngineKind, next_token_latency
from repro.llm.models import llama2_70b, opt_66b
from repro.sim.pipeline import simulate_tile_stream
from repro.sim.system import SimSystem, ddr_system, hbm_system
from repro.sim.trace import render_gantt

_EXPERIMENTS = (
    "table1", "figure3", "figure4", "figure5", "figure6", "figure12",
    "figure13", "figure14", "figure15", "figure16", "figure17",
    "table3", "table4", "area", "batch_sweep", "sensitivity",
)


def _system_for(name: str, cores: int) -> SimSystem:
    if name == "hbm":
        return hbm_system(cores)
    return ddr_system(cores)


def _parse_size(text: str) -> int:
    """Parse a byte count with an optional K/M/G suffix (``"256M"``)."""
    text = text.strip()
    multiplier = 1
    suffixes = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}
    if text and text[-1].lower() in suffixes:
        multiplier = suffixes[text[-1].lower()]
        text = text[:-1]
    try:
        value = int(text)
    except ValueError:
        raise ConfigurationError(
            f"cannot parse byte size {text!r}; use an integer with an "
            "optional K/M/G suffix (e.g. 512M)"
        )
    if value < 0:
        raise ConfigurationError(f"byte size must be >= 0, got {value}")
    return value * multiplier


def _configure_cache(args: argparse.Namespace) -> None:
    """Attach the disk cache tier named by ``--cache-dir``/env, if any.

    Runs before any sweep (and before the worker pool forks, so workers
    inherit the configuration). An unusable directory prints a note and
    leaves the run memory-only rather than failing it. With
    ``REPRO_CACHE_MAX_BYTES`` set, the directory is pruned to that
    budget (least-recently-used entries first) at attach time, so the
    disk tier stays bounded across invocations.
    """
    from repro.sim.cache import configure_simulation_cache_dir
    from repro.sim.diskcache import prune_cache_dir

    path = getattr(args, "cache_dir", None) or os.environ.get(
        "REPRO_CACHE_DIR"
    )
    if not path:
        # Unset means memory-only — including for programmatic callers
        # invoking main() repeatedly in one process after an earlier
        # invocation attached a tier.
        configure_simulation_cache_dir(None)
        return
    budget = os.environ.get("REPRO_CACHE_MAX_BYTES")
    if budget:
        report = prune_cache_dir(path, max_bytes=_parse_size(budget))
        if report.removed_entries or report.removed_tmp_files:
            print(
                f"cache budget REPRO_CACHE_MAX_BYTES={budget}: "
                f"{report.describe()}",
                file=sys.stderr,
            )
    with warnings.catch_warnings():
        # open_disk_cache warns for library callers; the CLI prints its
        # own single-line note instead.
        warnings.simplefilter("ignore", RuntimeWarning)
        disk = configure_simulation_cache_dir(path)
    if disk is None:
        print(
            f"warning: cache dir {path!r} is not usable; running with "
            "the in-memory cache only",
            file=sys.stderr,
        )


def _configure_hosts(args: argparse.Namespace) -> None:
    """Apply ``--hosts`` (or revert to ``REPRO_SWEEP_HOSTS``) for sweeps.

    An explicit flag wins over the environment; omitting it leaves the
    environment in charge. Runs before any sweep so every execution
    path (including the serve daemon's runner threads) sees the same
    executor configuration.
    """
    from repro.experiments.remote import configure_sweep_hosts

    configure_sweep_hosts(getattr(args, "hosts", None))


def _print_scenarios() -> None:
    """The ``experiments --list`` table: every registered sweep."""
    from repro.experiments import sweepspec
    from repro.experiments.remote import executor_topology

    scenarios = sweepspec.iter_scenarios()
    width = max(len(s.name) for s in scenarios)
    print("registered sweep scenarios (run with `repro experiments NAME`; "
          "stream rows with --out/--stream):")
    for scenario in sorted(scenarios, key=lambda s: s.name):
        print(f"  {scenario.name:<{width}}  {scenario.summary}")
    topology = executor_topology()
    line = f"executor backend: {topology['backend']}"
    if topology["hosts"]:
        line += " (" + ", ".join(topology["hosts"]) + ")"
    print(line)
    for host, cells in sorted(topology["host_cells"].items()):
        print(f"  {host}: {cells} cells completed")
    if topology["host_cells"]:
        print(f"  delta bytes received: {topology['delta_bytes_received']}")


def _run_scenario(name: str, args: argparse.Namespace, emitter) -> None:
    """Run one registered scenario through the streaming sweep engine."""
    from repro.experiments import sweepspec

    scenario = sweepspec.get_scenario(name)
    spec = scenario.build()
    progress = None
    if args.progress:
        def progress(done: int, total: int) -> None:
            print(f"[{name}] {done}/{total} cells", file=sys.stderr,
                  flush=True)

    on_cell = None
    if args.stream:
        def on_cell(cell) -> None:
            for row in spec.rows_for(cell):
                print(sweepspec.jsonl_line(row), flush=True)

    output = sweepspec.stream_to_emitter(
        spec, emitter, jobs=args.jobs, progress=progress, on_cell=on_cell,
    )
    print(spec.render(output))
    print()


def _cmd_experiments(args: argparse.Namespace) -> int:
    import inspect

    from repro import experiments as exp
    from repro.experiments import sweepspec

    _configure_hosts(args)
    if args.list:
        _print_scenarios()
        return 0
    names = args.names or list(_EXPERIMENTS)
    # Validate every name before touching anything — in particular
    # before --out truncates an existing results file on a typo.
    unknown = [
        name for name in names
        if name not in _EXPERIMENTS and sweepspec.find_scenario(name) is None
    ]
    if unknown:
        known = sorted(set(_EXPERIMENTS) | set(sweepspec.scenario_names()))
        print(f"unknown experiment {unknown[0]!r}; choose from "
              f"{', '.join(known)}", file=sys.stderr)
        return 2
    _configure_cache(args)
    streaming = args.stream or args.out or args.progress
    # One emitter across every streamed scenario in the invocation
    # (prefer .jsonl when mixing scenarios — CSV keeps one header).
    emitter = sweepspec.open_emitter(args.out) if args.out else None
    # --no-batch flips the process-wide default so buffered harnesses
    # (which call the sweep entry points internally) honour it too.
    previous_batching = (
        sweepspec.set_batching_enabled(False) if args.no_batch else None
    )
    try:
        for name in names:
            scenario = sweepspec.find_scenario(name)
            if scenario is not None and (streaming or name not in _EXPERIMENTS):
                # The declarative path: stream cells, emit rows as they
                # land, then print the reduced table.
                _run_scenario(name, args, emitter)
                continue
            if streaming and scenario is None:
                print(f"note: {name!r} is not a registered sweep scenario; "
                      "running buffered (no per-cell rows)", file=sys.stderr)
            module = getattr(exp, name)
            # Sweep-shaped harnesses accept a worker count; the rest run
            # as-is.
            kwargs = {}
            if "jobs" in inspect.signature(module.run).parameters:
                kwargs["jobs"] = args.jobs
            result = module.run(**kwargs)
            if isinstance(result, tuple):
                for part in result:
                    print(part.format_table())
                    print()
            else:
                print(result.format_table())
                print()
    finally:
        if previous_batching is not None:
            sweepspec.set_batching_enabled(previous_batching)
        if emitter is not None:
            emitter.close()
    return 0


def _simulate_timing(task):
    """The kernel timing one ``simulate`` task will request.

    Shared between the report body and the cross-scheme batch seeding,
    so the batched stack lands under exactly the keys the reports look
    up.
    """
    system, scheme, engine, width, luts, _batch, _gantt = task
    if engine == "software":
        if scheme.name == UNCOMPRESSED.name:
            return uncompressed_kernel_timing(system)
        return software_kernel_timing(system, scheme)
    return deca_kernel_timing(
        system, scheme, config=DecaConfig(width=width, lut_count=luts),
    )


def _simulate_report(task) -> str:
    """Simulate one scheme and render its report block (picklable task)."""
    system, scheme, engine, width, luts, batch, gantt = task
    timing = _simulate_timing(task)
    result = simulate_tile_stream(system, timing)
    pct = result.utilization.as_percentages()
    lines = [
        f"{scheme.name} on {system.machine.name} with {engine}:",
        f"  interval: {result.steady_interval_cycles:.1f} cycles/tile",
        f"  rate:     {result.tiles_per_second / 1e9:.2f} G tiles/s",
        f"  FLOPS:    {result.flops(batch) / 1e12:.2f} TFLOPS "
        f"(N={batch})",
        f"  util:     MEM {pct['MEM']}%  TMUL {pct['TMUL']}%  "
        f"DEC {pct['DEC']}%  (bottleneck: "
        f"{result.utilization.bottleneck})",
    ]
    if gantt:
        lines.append("")
        lines.append(render_gantt(result, first_tile=40, tiles=gantt))
    return "\n".join(lines)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.experiments.parallel import parallel_map
    from repro.experiments.sweepspec import batching_enabled

    _configure_cache(args)
    _configure_hosts(args)
    system = _system_for(args.memory, args.cores)
    names = [name.strip() for name in args.scheme.split(",") if name.strip()]
    if not names:
        print(f"--scheme needs at least one scheme name, got "
              f"{args.scheme!r}", file=sys.stderr)
        return 2
    schemes = [parse_scheme(name) for name in names]
    tasks = [
        (system, scheme, args.engine, args.width, args.luts, args.batch,
         args.gantt)
        for scheme in schemes
    ]
    if (
        len(tasks) > 1
        and batching_enabled(False if args.no_batch else None)
    ):
        # Seed the cache with one stacked scan across the schemes; the
        # per-task lookups below (and in forked workers, which inherit
        # the parent cache) then hit warm.
        from repro.sim.pipeline import simulate_tile_stream_batch

        simulate_tile_stream_batch(
            [(system, _simulate_timing(task), 600) for task in tasks],
            resolve_cached=False,
        )
    reports = parallel_map(_simulate_report, tasks, jobs=args.jobs)
    print("\n\n".join(reports))
    return 0


def _cmd_llm(args: argparse.Namespace) -> int:
    system = _system_for(args.memory, args.cores)
    model = llama2_70b() if args.model == "llama2-70b" else opt_66b()
    scheme = parse_scheme(args.scheme)
    engine = {
        "software": EngineKind.SOFTWARE,
        "deca": EngineKind.DECA,
        "uncompressed": EngineKind.UNCOMPRESSED,
    }[args.engine]
    if engine is EngineKind.UNCOMPRESSED:
        scheme = UNCOMPRESSED
    breakdown = next_token_latency(
        model, system, scheme, engine,
        batch=args.batch, input_tokens=args.tokens,
    )
    print(f"{model.name} / {breakdown.scheme_name} / {args.engine} "
          f"(batch {args.batch}, {args.tokens} input tokens, "
          f"{system.machine.name}):")
    print(f"  next-token latency: {breakdown.total_ms:.1f} ms")
    print(f"  FC GeMMs: {breakdown.gemm_seconds * 1e3:.1f} ms "
          f"({breakdown.gemm_fraction:.0%})")
    print(f"  non-GeMM: {breakdown.non_gemm_seconds * 1e3:.1f} ms")
    return 0


def _cmd_dse(args: argparse.Namespace) -> int:
    from repro.experiments.dse import dse_spec

    _configure_cache(args)
    _configure_hosts(args)
    machine = _system_for(args.memory, args.cores).machine
    spec = dse_spec(machine, PAPER_SCHEMES)
    print(spec.render(spec.run(jobs=args.jobs)))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.sim.diskcache import prune_cache_dir

    path = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    if not path:
        print("cache prune needs --cache-dir (or REPRO_CACHE_DIR)",
              file=sys.stderr)
        return 2
    max_bytes = None
    raw_bytes = (
        args.max_bytes
        if args.max_bytes is not None
        else os.environ.get("REPRO_CACHE_MAX_BYTES")
    )
    if raw_bytes is not None:
        max_bytes = _parse_size(str(raw_bytes))
    max_age = args.max_age
    if max_bytes is None and max_age is None:
        print("cache prune needs --max-bytes and/or --max-age (or "
              "REPRO_CACHE_MAX_BYTES)", file=sys.stderr)
        return 2
    report = prune_cache_dir(path, max_bytes=max_bytes, max_age_s=max_age)
    print(f"{path}: {report.describe()}")
    return 0


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    import json as _json
    import warnings

    from repro.sim.diskcache import open_disk_cache

    path = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    if not path:
        print("cache stats needs --cache-dir (or REPRO_CACHE_DIR)",
              file=sys.stderr)
        return 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        disk = open_disk_cache(path)
    if disk is None:
        print(f"cache dir {path!r} is not usable", file=sys.stderr)
        return 2
    snapshot = disk.storage_snapshot()
    if args.json:
        print(_json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    entries = snapshot["loose_entries"] + snapshot["packed_entries"]
    print(f"{snapshot['root']}: {entries} entries, "
          f"{snapshot['total_bytes']} bytes")
    print(f"  schema generation: {snapshot['schema_dir']}")
    print(f"  loose entries: {snapshot['loose_entries']} "
          f"({snapshot['loose_bytes']} bytes)")
    print(f"  packed entries: {snapshot['packed_entries']} in "
          f"{snapshot['pack_files']} pack(s) "
          f"({snapshot['pack_bytes']} bytes)")
    print(f"  index: {snapshot['index_entries']} entries "
          f"({snapshot['index_bytes']} bytes)")
    return 0


def _cmd_area(args: argparse.Namespace) -> int:
    breakdown = deca_area(
        DecaConfig(width=args.width, lut_count=args.luts), pes=args.pes
    )
    print(f"{args.pes} PEs at W={args.width}, L={args.luts}: "
          f"{breakdown.total:.2f} mm^2 "
          f"({breakdown.die_overhead():.3%} of a 1600 mm^2 die)")
    for name, value in breakdown.fractions().items():
        print(f"  {name}: {value:.0%}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    import pathlib

    from repro.core.bord import Bord
    from repro.core.roofsurface import RoofSurface
    from repro.experiments import figure3, figure4, figure5, figure13
    from repro.report.figures import (
        bord_svg,
        roofline_svg,
        speedup_bars_svg,
    )
    from repro.report.surface3d import roofsurface_svg

    out = pathlib.Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    ddr3, hbm3 = figure3.run()
    for result in (ddr3, hbm3):
        svg = roofline_svg(
            result.curve, result.points, f"Figure 3 ({result.memory})"
        )
        (out / f"figure3_{result.memory.lower()}.svg").write_text(svg)
    fig4 = figure4.run()
    model = RoofSurface(hbm_system().machine, batch_rows=4)
    max_m = max(p.aixm for p in fig4.points) * 1.2
    max_v = max(p.aixv for p in fig4.points) * 1.2
    (out / "figure4a.svg").write_text(
        roofsurface_svg(model, fig4.points, max_m, max_v)
    )
    hbm5, ddr5 = figure5.run()
    for result, system in ((hbm5, hbm_system()), (ddr5, ddr_system())):
        svg = bord_svg(
            Bord(system.machine), result.points, 0.012, 0.012,
            f"Figure 5 ({result.memory})",
        )
        (out / f"figure5_{result.memory.lower()}.svg").write_text(svg)
    fig13 = figure13.run()
    labels = [row.scheme.name for row in fig13.speedups]
    (out / "figure13.svg").write_text(
        speedup_bars_svg(
            labels,
            {
                "software": [r.software for r in fig13.speedups],
                "DECA": [r.deca for r in fig13.speedups],
                "optimal": [r.optimal for r in fig13.speedups],
            },
            "Figure 13 (HBM, N=1)",
        )
    )
    written = sorted(p.name for p in out.glob("*.svg"))
    print(f"wrote {len(written)} figures into {out}/: {', '.join(written)}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the sweep-serving daemon until SIGTERM/SIGINT, then drain."""
    import signal
    import threading

    from repro.serve.daemon import ServeDaemon

    _configure_cache(args)
    _configure_hosts(args)
    daemon = ServeDaemon(
        socket_path=args.socket,
        jobs=args.jobs,
        max_active=args.max_active,
        rate_limit=args.rate_limit,
        preload=args.preload,
    )
    stop = threading.Event()

    def _request_stop(_signum, _frame) -> None:
        stop.set()

    # Handlers go in *before* the ready line is printed: a supervisor
    # that reacts to the ready line by signalling immediately must hit
    # the drain path, never the default-action kill.
    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    daemon.start()
    frontend = None
    if args.http_port is not None:
        from repro.serve.http import ServeHttpFrontend

        frontend = ServeHttpFrontend(daemon, port=args.http_port)
        try:
            frontend.start()
        except ConfigurationError:
            daemon.drain()
            raise
    print(
        f"repro serve: listening on {daemon.socket_path} "
        + (f"and {frontend.url} " if frontend is not None else "")
        + f"(pool={daemon.status_snapshot()['pool']['width']}, "
        f"max-active={args.max_active})",
        flush=True,
    )
    stop.wait()
    print("repro serve: draining (finishing in-flight sweeps)", flush=True)
    if frontend is not None:
        frontend.close()
    daemon.drain()
    print("repro serve: drained", flush=True)
    return 0


def _cmd_serve_request(args: argparse.Namespace) -> int:
    """One client request against a running daemon; rows to stdout."""
    import json as _json

    from repro.serve.client import (
        ServeRequestError,
        ServeUnavailableError,
        connect,
    )

    client = connect(args.socket, timeout=args.timeout)
    try:
        if args.ping:
            if not client.ping():
                print("error: daemon did not answer the ping",
                      file=sys.stderr)
                return 2
            print("pong")
            return 0
        if args.status:
            print(_json.dumps(client.status(), indent=2, sort_keys=True))
            return 0
        if args.cancel:
            found = client.cancel(args.cancel)
            if not found:
                print(
                    f"error: no admitted sweep with key {args.cancel}",
                    file=sys.stderr,
                )
                return 2
            print(f"cancelled {args.cancel}")
            return 0
        inline = None
        if args.inline:
            try:
                inline = _json.loads(args.inline)
            except ValueError as error:
                raise ConfigurationError(
                    f"--inline must be a JSON object: {error}"
                )
        if (args.scenario is None) == (inline is None):
            raise ConfigurationError(
                "name a scenario or pass --inline (exactly one of the two)"
            )
        rows = 0
        for line in client.sweep_lines(
            args.scenario, inline=inline, priority=args.priority,
            deadline_s=args.deadline,
        ):
            print(line, flush=True)
            rows += 1
        summary = client.last_summary or {}
        ack = client.last_ack or {}
        served = (
            "cache fast path" if summary.get("fast_path")
            else "coalesced onto a running sweep" if ack.get("coalesced")
            else "computed"
        )
        print(f"{rows} rows ({served})", file=sys.stderr)
        return 0
    except (ServeUnavailableError, ServeRequestError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _cmd_worker(args: argparse.Namespace) -> int:
    """Run one socket sweep worker until SIGTERM/SIGINT.

    Binds ``--host:--port`` (``--port 0`` picks a free port) and prints
    the ready line parents and supervisors parse; then serves cell
    partitions until signalled. The worker uses its *own* cache
    configuration (``--cache-dir`` / ``REPRO_CACHE_DIR``) — parents
    exchange cache state with it only as hash-sharded deltas.
    """
    import signal
    import threading

    from repro.experiments.remote import run_worker_server

    _configure_cache(args)
    stop = threading.Event()

    def _request_stop(_signum, _frame) -> None:
        stop.set()

    # Handlers go in before the ready line, same as `repro serve`: a
    # supervisor reacting to the line by signalling immediately must
    # hit the graceful stop, never the default-action kill.
    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)

    def _ready(host: str, port: int) -> None:
        print(f"repro worker: listening on {host}:{port}", flush=True)

    run_worker_server(
        host=args.host, port=args.port, ready=_ready, stop_event=stop,
    )
    print("repro worker: stopped", flush=True)
    return 0


def _cmd_validate(_args: argparse.Namespace) -> int:
    from repro.experiments import validation

    report = validation.run()
    print(report.format_table())
    return 0 if report.all_passed else 1


def _cmd_formats(_args: argparse.Namespace) -> int:
    for name in available_formats():
        fmt = get_format(name)
        group = (
            f"group {fmt.group_size} (+{fmt.scale_bits}b scale)"
            if fmt.is_grouped
            else "no groups"
        )
        print(f"{name:8s} {fmt.bits:2d} bits  {group:26s} {fmt.description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DECA reproduction toolkit (MICRO 2025)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_jobs(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="fork N workers for independent configurations and merge "
                 "their simulation caches on join (default: 1 = serial, "
                 "0 = one worker per CPU); the pool persists across "
                 "sweeps within one invocation",
        )

    def add_cache_dir(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cache-dir", default=None, metavar="PATH",
            help="spill simulation results to a disk cache at PATH "
                 "(created if missing) and replay them on later runs; "
                 "defaults to $REPRO_CACHE_DIR, unset = memory-only",
        )

    def add_hosts(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--hosts", default=None, metavar="HOST:PORT,...",
            help="dispatch sweep cells to these `repro worker` socket "
                 "workers instead of the local fork pool (comma-"
                 "separated; overrides $REPRO_SWEEP_HOSTS, '' disables); "
                 "the host list replaces --jobs as the parallelism",
        )

    def add_no_batch(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--no-batch", action="store_true",
            help="disable cross-cell batched simulation and run every "
                 "configuration through the per-cell scan (results are "
                 "bit-identical either way; REPRO_NO_BATCH=1 is the "
                 "environment equivalent)",
        )

    p_exp = sub.add_parser(
        "experiments",
        help="regenerate paper results (simulations are cached; sweeps "
             "accept --jobs and stream with --out/--stream)",
    )
    p_exp.add_argument("names", nargs="*", metavar="NAME",
                       help=f"one of: {', '.join(_EXPERIMENTS)} — or any "
                            "registered sweep scenario (see --list)")
    p_exp.add_argument(
        "--list", action="store_true",
        help="list the registered sweep scenarios and exit",
    )
    p_exp.add_argument(
        "--out", default=None, metavar="PATH",
        help="write per-cell result rows to PATH incrementally as cells "
             "finish (.csv = CSV, anything else = JSONL); sweeps only",
    )
    p_exp.add_argument(
        "--stream", action="store_true",
        help="print each cell's result rows (JSONL) to stdout as they "
             "complete, ahead of the final table",
    )
    p_exp.add_argument(
        "--progress", action="store_true",
        help="report per-cell completion progress on stderr",
    )
    add_jobs(p_exp)
    add_cache_dir(p_exp)
    add_no_batch(p_exp)
    add_hosts(p_exp)
    p_exp.set_defaults(func=_cmd_experiments)

    p_sim = sub.add_parser(
        "simulate",
        help="simulate compressed GeMM kernels (results are memoized; "
             "comma-separated schemes fan out with --jobs)",
    )
    p_sim.add_argument(
        "--scheme", default="Q8_20%",
        help="scheme name, or a comma-separated list (e.g. 'Q4,Q8_5%%') "
             "simulated in one cached sweep (default: %(default)s)",
    )
    p_sim.add_argument("--memory", choices=("hbm", "ddr"), default="hbm")
    p_sim.add_argument("--engine", choices=("software", "deca"),
                       default="deca")
    p_sim.add_argument("--cores", type=int, default=56)
    p_sim.add_argument("--batch", type=int, default=1)
    p_sim.add_argument("--width", type=int, default=32)
    p_sim.add_argument("--luts", type=int, default=8)
    p_sim.add_argument("--gantt", type=int, default=0, metavar="TILES",
                       help="render an ASCII Gantt window of TILES tiles")
    add_jobs(p_sim)
    add_cache_dir(p_sim)
    add_no_batch(p_sim)
    add_hosts(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_llm = sub.add_parser("llm", help="LLM next-token latency")
    p_llm.add_argument("--model", choices=("llama2-70b", "opt-66b"),
                       default="llama2-70b")
    p_llm.add_argument("--scheme", default="Q4")
    p_llm.add_argument("--engine",
                       choices=("software", "deca", "uncompressed"),
                       default="deca")
    p_llm.add_argument("--memory", choices=("hbm", "ddr"), default="hbm")
    p_llm.add_argument("--cores", type=int, default=56)
    p_llm.add_argument("--batch", type=int, default=1)
    p_llm.add_argument("--tokens", type=int, default=128)
    p_llm.set_defaults(func=_cmd_llm)

    p_dse = sub.add_parser(
        "dse",
        help="DECA (W, L) design exploration (candidates fan out with "
             "--jobs)",
    )
    p_dse.add_argument("--memory", choices=("hbm", "ddr"), default="hbm")
    p_dse.add_argument("--cores", type=int, default=56)
    add_jobs(p_dse)
    add_cache_dir(p_dse)
    add_hosts(p_dse)
    p_dse.set_defaults(func=_cmd_dse)

    p_area = sub.add_parser("area", help="DECA area model")
    p_area.add_argument("--width", type=int, default=32)
    p_area.add_argument("--luts", type=int, default=8)
    p_area.add_argument("--pes", type=int, default=56)
    p_area.set_defaults(func=_cmd_area)

    p_fmt = sub.add_parser("formats", help="list quantization formats")
    p_fmt.set_defaults(func=_cmd_formats)

    p_cache = sub.add_parser(
        "cache", help="manage the on-disk simulation cache"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_prune = cache_sub.add_parser(
        "prune",
        help="trim a cache directory to a byte budget / maximum age "
             "(least-recently-used entries evicted first)",
    )
    p_prune.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="cache directory to prune (default: $REPRO_CACHE_DIR)",
    )
    p_prune.add_argument(
        "--max-bytes", default=None, metavar="SIZE",
        help="byte budget, with optional K/M/G suffix (default: "
             "$REPRO_CACHE_MAX_BYTES)",
    )
    p_prune.add_argument(
        "--max-age", type=float, default=None, metavar="SECONDS",
        help="evict entries not used for more than SECONDS",
    )
    p_prune.set_defaults(func=_cmd_cache)
    p_stats = cache_sub.add_parser(
        "stats",
        help="print a cache directory's on-disk shape (loose/packed "
             "entry counts, pack and index sizes, total bytes)",
    )
    p_stats.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="cache directory to inspect (default: $REPRO_CACHE_DIR)",
    )
    p_stats.add_argument(
        "--json", action="store_true",
        help="emit the snapshot as JSON instead of human-readable lines",
    )
    p_stats.set_defaults(func=_cmd_cache_stats)

    p_serve = sub.add_parser(
        "serve",
        help="run the sweep-serving daemon on a local UNIX socket "
             "(coalesces identical in-flight requests onto one shared "
             "pool; SIGTERM drains gracefully)",
    )
    p_serve.add_argument(
        "--socket", default=None, metavar="PATH",
        help="UNIX socket path to listen on (default: "
             "$REPRO_SERVE_SOCKET, else a per-user path under "
             "$XDG_RUNTIME_DIR or /tmp)",
    )
    p_serve.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="width of the daemon-owned persistent worker pool, shared "
             "by every request (default: %(default)s, 0 = one per CPU)",
    )
    p_serve.add_argument(
        "--max-active", type=int, default=2, metavar="N",
        help="how many admitted sweeps may run concurrently on the "
             "shared pool (default: %(default)s)",
    )
    p_serve.add_argument(
        "--http-port", type=int, default=None, metavar="PORT",
        help="also serve HTTP/SSE on 127.0.0.1:PORT (GET /sweep, "
             "/status, /ping, /cancel; 0 = pick a free port)",
    )
    p_serve.add_argument(
        "--rate-limit", type=float, default=None, metavar="SWEEPS_PER_S",
        help="per-client token-bucket admission limit in sweeps/s, "
             "covering both transports (default: unlimited)",
    )
    p_serve.add_argument(
        "--preload", action="append", default=None, metavar="SCENARIO",
        help="prefetch this scenario's simulations from the disk cache "
             "into memory at startup (repeatable; needs --cache-dir)",
    )
    add_cache_dir(p_serve)
    add_hosts(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_worker = sub.add_parser(
        "worker",
        help="run one socket sweep worker serving cell partitions "
             "dispatched by a --hosts/REPRO_SWEEP_HOSTS parent "
             "(loopback by default; SIGTERM stops gracefully)",
    )
    p_worker.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="address to bind (default: %(default)s; binding a "
             "routable address is for trusted networks only — the "
             "transport executes pickled payloads by design)",
    )
    p_worker.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="TCP port to bind (default: 0 = pick a free port; the "
             "ready line on stdout reports the actual one)",
    )
    add_cache_dir(p_worker)
    p_worker.set_defaults(func=_cmd_worker)

    p_req = sub.add_parser(
        "serve-request",
        help="send one request to a running serve daemon and stream "
             "its JSONL rows to stdout",
    )
    p_req.add_argument(
        "scenario", nargs="?", default=None,
        help="registered sweep scenario to request "
             "(see `repro experiments --list`)",
    )
    p_req.add_argument(
        "--socket", default=None, metavar="PATH",
        help="daemon socket path (default: $REPRO_SERVE_SOCKET)",
    )
    p_req.add_argument(
        "--inline", default=None, metavar="JSON",
        help="inline sweep parameterization instead of a scenario name "
             "(e.g. '{\"kind\": \"speedups\", \"memory\": \"ddr\"}')",
    )
    p_req.add_argument(
        "--priority", type=int, default=0, metavar="N",
        help="admission priority; lower runs first (default: 0)",
    )
    p_req.add_argument(
        "--timeout", type=float, default=300.0, metavar="SECONDS",
        help="socket timeout per read (default: %(default)s)",
    )
    p_req.add_argument(
        "--status", action="store_true",
        help="print the daemon's health/stats document and exit",
    )
    p_req.add_argument(
        "--ping", action="store_true",
        help="round-trip a ping and exit",
    )
    p_req.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="daemon-side deadline for this sweep: a queued request "
             "past it errors without computing, a running one stops "
             "within one cell (default: none)",
    )
    p_req.add_argument(
        "--cancel", default=None, metavar="KEY",
        help="force-cancel the admitted sweep with this request key "
             "(keys appear in acks and --status) and exit",
    )
    p_req.set_defaults(func=_cmd_serve_request)

    p_val = sub.add_parser(
        "validate", help="check every headline claim of the paper"
    )
    p_val.set_defaults(func=_cmd_validate)

    p_fig = sub.add_parser("figures", help="export key figures as SVG")
    p_fig.add_argument("--output", default="figures")
    p_fig.set_defaults(func=_cmd_figures)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    Configuration mistakes (an unknown scheme, a negative ``--jobs``, a
    malformed byte size) surface as a one-line error and exit status 2
    — never a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed early (`repro serve-request ... | head`).
        # Point stdout at devnull so the interpreter's shutdown flush
        # doesn't raise a second time, and exit like a SIGPIPE'd tool.
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError):
            pass  # stdout is not a real fd (captured/redirected in-process)
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
