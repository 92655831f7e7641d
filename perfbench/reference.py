"""Finite request universes, their recorded reference outputs, and checks.

Every request a workload can generate comes from the finite sets below,
so the reference files under ``perfbench/reference/`` cover every seed.
They were recorded with this module's ``--record`` mode, in a fresh
process with an empty cache::

    PYTHONPATH=src python3 perfbench/reference.py --record

A row matches its reference when every number agrees to
:data:`REL_TOL` relative and everything else is equal; CLI output is
compared the same way, number by number, with the text between the
numbers exact.
"""

from __future__ import annotations

import gzip
import json
import re
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import SCRATCH, REFERENCE_DIR, ROOT, child_env, repro_command

REL_TOL = 1e-9

#: Tile counts of the sweep workloads' grid and inline-speedups requests:
#: 16 steps, roughly geometric, spanning 600-20000. Together they hold
#: well over the memory tier's 512 entries, so the LRU evicts.
SWEEP_TILES: Tuple[int, ...] = (
    600, 750, 950, 1200, 1500, 1900, 2400, 3000, 3800, 4800, 6000, 7500,
    9500, 12000, 15000, 20000,
)
MEMORIES: Tuple[str, ...] = ("ddr", "hbm")

#: Tile counts of the serve workload's inline requests: 256 values, so
#: 512 (memory, tiles) pairs. Each run draws them without replacement,
#: which keeps inline requests cold until a run has sent 512 of them.
#: Short streams keep the disk tier's writes (~25 entries per request)
#: small, so the run measures the daemon rather than the host's disk.
SERVE_TILES: Tuple[int, ...] = tuple(range(100, 612, 2))

#: The registered sweep scenarios (``repro experiments --list``).
SCENARIOS: Tuple[str, ...] = (
    "batch_sweep", "dse", "figure12", "figure12+figure13", "figure13",
    "grid", "sensitivity", "speedups",
)

#: The CLI workload's rotation. ``serve-request`` goes to the run's
#: daemon; its socket argument is appended at run time.
CLI_COMMANDS: Tuple[Tuple[str, ...], ...] = tuple(
    ("experiments", name) for name in SCENARIOS
) + (
    ("validate",),
    ("llm",),
    ("simulate", "--scheme", "Q4,Q8_5%,Q8_20%"),
    ("serve-request", "figure12"),
)

FIXED_SWEEPS: Tuple[str, ...] = (
    "sensitivity", "batch_sweep", "dse", "table3", "table4",
)


def sweep_request_ids() -> List[str]:
    ids = [f"grid/t{t}" for t in SWEEP_TILES]
    ids += [f"speedups/{m}/t{t}" for m in MEMORIES for t in SWEEP_TILES]
    return ids + list(FIXED_SWEEPS)


def serve_request_ids() -> List[str]:
    ids = [f"scenario/{name}" for name in SCENARIOS]
    return ids + [f"inline/{m}/t{t}" for m in MEMORIES for t in SERVE_TILES]


def cli_request_id(command: Sequence[str]) -> str:
    return " ".join(command)


# ---------------------------------------------------------------------------
# Building requests (needs the package imported)


def inline_request(memory: str, tiles: int) -> Dict[str, Any]:
    return {"inline": {"kind": "speedups", "memory": memory,
                       "tiles": tiles}}


def parse_id(request_id: str) -> Tuple[str, Optional[str], Optional[int]]:
    """``"speedups/ddr/t600"`` -> ``("speedups", "ddr", 600)``."""
    parts = request_id.split("/")
    last = parts[-1]
    tiles = (
        int(last[1:]) if len(parts) > 1 and re.fullmatch(r"t\d+", last)
        else None
    )
    memory = parts[1] if len(parts) == 3 else None
    return parts[0], memory, tiles


def build_sweep(request_id: str):
    """The spec (or ``None`` for the table harnesses) behind a sweep id."""
    from repro.experiments import batch_sweep, sensitivity
    from repro.experiments.dse import dse_spec
    from repro.experiments.grid import grid_spec
    from repro.serve.inline import build_request_spec

    kind, memory, tiles = parse_id(request_id)
    if kind == "grid":
        return grid_spec(tiles=tiles)
    if kind == "speedups":
        return build_request_spec(inline_request(memory, tiles))
    if kind == "sensitivity":
        return sensitivity.sweep_spec()
    if kind == "batch_sweep":
        return batch_sweep.sweep_spec()
    if kind == "dse":
        return dse_spec()
    return None


def spec_rows(spec, cell) -> List[Dict[str, Any]]:
    """One cell's emission rows exactly as a JSONL consumer reads them."""
    from repro.experiments.sweepspec import jsonl_line

    return [json.loads(jsonl_line(row)) for row in spec.rows_for(cell)]


def table3_rows(result) -> List[Dict[str, Any]]:
    return [
        {"density": density, "engine": engine, **report.as_percentages()}
        for (density, engine), report in sorted(result.reports.items())
    ]


def table4_rows(result) -> List[Dict[str, Any]]:
    return [
        {"model": model, "batch": batch, "scheme": scheme,
         "engine": engine, "ms": ms}
        for (model, batch, scheme, engine), ms
        in sorted(result.latencies.items())
    ]


def run_table(request_id: str) -> List[Dict[str, Any]]:
    from repro.experiments import table3, table4

    if request_id == "table3":
        return table3_rows(table3.run())
    return table4_rows(table4.run())


# ---------------------------------------------------------------------------
# Comparison


def _same_value(got: Any, want: Any) -> bool:
    if got == want:
        return True
    numbers = (int, float)
    if (isinstance(got, numbers) and isinstance(want, numbers)
            and not isinstance(got, bool) and not isinstance(want, bool)):
        return abs(got - want) <= REL_TOL * max(abs(got), abs(want))
    return False


def same_rows(got: List[Dict[str, Any]], want: List[Dict[str, Any]]) -> bool:
    if got == want:
        return True
    if len(got) != len(want):
        return False
    for row, ref in zip(got, want):
        if row.keys() != ref.keys():
            return False
        if not all(_same_value(row[k], ref[k]) for k in ref):
            return False
    return True


_NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")


def same_text(got: str, want: str) -> bool:
    """Equal text, numbers compared to :data:`REL_TOL` relative."""
    if got == want:
        return True
    got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
    if len(got_parts) != len(want_parts):
        return False
    for index, (a, b) in enumerate(zip(got_parts, want_parts)):
        if index % 2 == 0:
            if a != b:
                return False
        elif not _same_value(float(a), float(b)):
            return False
    return True


def load(name: str) -> Dict[str, Any]:
    with gzip.open(REFERENCE_DIR / f"{name}.json.gz", "rt") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Paper fidelity


_T3 = re.compile(r"worst cell difference: (\d+) points")
_T4 = re.compile(r"worst cell off by (\d+)%")
_CLAIMS = re.compile(r"(\d+)/(\d+) claims reproduced")


def parse_validate(text: str) -> Dict[str, float]:
    """The figures ``repro validate`` prints (rounded as printed)."""
    t3, t4, claims = _T3.search(text), _T4.search(text), _CLAIMS.search(text)
    if not (t3 and t4 and claims):
        raise ValueError("validate output lacks the accuracy lines")
    return {
        "table3_max_pts": int(t3.group(1)),
        "table4_max_rel_err_pct": int(t4.group(1)),
        "claims_passed": int(claims.group(1)),
        "claims_total": int(claims.group(2)),
    }


def accuracy() -> Dict[str, Any]:
    """Table 3/4 error against ``paper_reference`` and the claim tally.

    Computed the way ``repro validate`` computes them (Table 3 from the
    rounded percentages it prints), at full precision; ``printed``
    holds what ``validate`` itself reports, for the agreement check.
    """
    from repro.experiments import table3, table4, validation
    from repro.experiments.paper_reference import (
        TABLE3_UTILIZATION,
        TABLE4_LATENCY_MS,
    )

    t3 = table3.run()
    worst_pts = max(
        abs(t3.reports[key].as_percentages()[column] - paper[column])
        for key, paper in TABLE3_UTILIZATION.items()
        for column in ("MEM", "TMUL", "DEC")
    )
    t4 = table4.run()
    worst_rel = max(
        abs(t4.latencies[key] - paper) / paper
        for key, paper in TABLE4_LATENCY_MS.items()
    )
    report = validation.run()
    return {
        "table3_max_pts": float(worst_pts),
        "table4_max_rel_err": 100.0 * worst_rel,
        "claims_passed": float(sum(c.passed for c in report.checks)),
        "printed": parse_validate(report.format_table()),
    }


def accuracy_agrees(values: Dict[str, Any], printed: Dict[str, float]) -> bool:
    """Whether full-precision figures round to what ``validate`` printed."""
    return (
        values["table3_max_pts"] == printed["table3_max_pts"]
        and f"{values['table4_max_rel_err'] / 100:.0%}"
        == f"{printed['table4_max_rel_err_pct']}%"
        and values["claims_passed"] == printed["claims_passed"]
    )


def accuracy_metrics(values: Dict[str, Any]) -> Dict[str, float]:
    return {
        "accuracy.table4_max_rel_err": values["table4_max_rel_err"],
        "accuracy.table3_max_pts": values["table3_max_pts"],
        "accuracy.claims_passed": values["claims_passed"],
    }


def accuracy_matches_reference(values: Dict[str, Any]) -> bool:
    want = load("sweep")["accuracy"]
    return all(
        _same_value(values[key], want[key])
        for key in ("table3_max_pts", "table4_max_rel_err", "claims_passed")
    ) and values["printed"] == want["printed"]


# ---------------------------------------------------------------------------
# Recording


def _dump(name: str, document: Dict[str, Any]) -> None:
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    # mtime=0 keeps re-recording byte-identical when nothing changed.
    with open(REFERENCE_DIR / f"{name}.json.gz", "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
            handle.write(payload.encode())


def _stream_rows(spec) -> List[Dict[str, Any]]:
    return [row for cell in spec.stream(jobs=1)
            for row in spec_rows(spec, cell)]


def record() -> None:
    """Record every reference output (run from the repository root)."""
    from common import use_sources

    use_sources()
    from repro.experiments.sweepspec import get_scenario
    from repro.serve.inline import build_request_spec

    sweep = {}
    for request_id in sweep_request_ids():
        spec = build_sweep(request_id)
        sweep[request_id] = (
            run_table(request_id) if spec is None else _stream_rows(spec)
        )
    _dump("sweep", {"rows": sweep, "accuracy": accuracy()})

    serve, cells = {}, {}
    for request_id in serve_request_ids():
        kind, memory, tiles = parse_id(request_id)
        spec = (
            get_scenario(request_id.split("/", 1)[1]).build()
            if kind == "scenario"
            else build_request_spec(inline_request(memory, tiles))
        )
        serve[request_id] = _stream_rows(spec)
        cells[request_id] = spec.cell_count
    _dump("serve", {"rows": serve, "cells": cells})

    cli = {}
    SCRATCH.mkdir(exist_ok=True)
    env = child_env(SCRATCH)
    for command in CLI_COMMANDS:
        if command[0] == "serve-request":
            request_id = f"scenario/{command[1]}"
            stdout = "".join(json.dumps(row) + "\n"
                             for row in serve[request_id])
            cell_count = cells[request_id]
        else:
            done = subprocess.run(
                repro_command(*command), cwd=ROOT, env=env,
                capture_output=True, text=True, check=True,
            )
            stdout = done.stdout
            cell_count = (
                cells[f"scenario/{command[1]}"]
                if command[0] == "experiments"
                else len(command[2].split(",")) if command[0] == "simulate"
                else 0
            )
        cli[cli_request_id(command)] = {"stdout": stdout,
                                        "cells": cell_count}
    _dump("cli", {"commands": cli})


def main(argv: List[str]) -> int:
    if argv == ["--record"]:
        record()
        return 0
    print("usage: reference.py --record", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
