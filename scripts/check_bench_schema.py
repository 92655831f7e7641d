#!/usr/bin/env python
"""Validate ``BENCH_perf.json`` against the harness's schema.

The perf report is hand-merged by ``--only`` refreshes and read by the
regression gate, so a malformed entry (a NaN from a degenerate timing
loop, a negative wall time from a clock bug, a stale anchor name after a
rename) could sit in the file unnoticed until the gate mis-fires. This
check pins the contract:

* the document carries ``schema_version``, ``generated_unix``, ``host``,
  ``protocol``, and a non-empty ``benchmarks`` mapping;
* every benchmark name is one the harness can produce
  (``run_bench.KNOWN_BENCHMARKS``) and every known anchor is recorded;
* every entry has a finite, positive ``after_s``;
* anchors whose regression gate reads more fields than ``after_s``
  (``ANCHOR_REQUIRED_FIELDS``) carry all of them;
* every numeric field in every entry is finite and non-negative, and
  coalescing rates stay within [0, 1].

It is wired into tier-1 through ``tests/test_bench_schema.py`` and can
run standalone::

    PYTHONPATH=src python scripts/check_bench_schema.py [REPORT]

Exit status: 0 when the report is valid, 1 when problems are found,
2 when the report is missing or unreadable.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys
from typing import Any, Dict, List

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFAULT_REPORT = REPO_ROOT / "BENCH_perf.json"

#: Top-level keys every report document must carry.
REQUIRED_DOCUMENT_KEYS = (
    "schema_version", "generated_unix", "host", "protocol", "benchmarks",
)

#: Per-anchor fields every benchmark entry must carry.
REQUIRED_ENTRY_KEYS = ("after_s",)

#: Extra required fields for anchors whose gate reads more than
#: ``after_s`` — a partial ``--only`` refresh that drops one of these
#: would quietly disarm the corresponding regression gate.
ANCHOR_REQUIRED_FIELDS: Dict[str, "tuple[str, ...]"] = {
    "serve_coalesced_8x": (
        "serial_s", "coalesced_speedup", "coalesced_hit_rate", "requests",
    ),
    "serve_cancel_reclaim": (
        "full_s", "reclaimed_fraction", "cells",
    ),
    "remote_dispatch_overhead": (
        "fork_s", "dispatch_overhead_ratio", "pairs", "cells",
    ),
    "grid_batched_48": (
        "per_cell_s", "batched_speedup", "pairs", "cells", "tiles",
    ),
    "figure12_batched": ("per_cell_s", "batched_speedup", "pairs"),
    "tepl_stack_24x20000": (
        "before_s", "speedup_vs_reference_loop", "cells", "tiles",
    ),
    "remote_delta_dedup": (
        "cold_s", "cold_delta_bytes", "warm_delta_bytes",
        "warm_shard_bytes_ratio",
    ),
    "e2e_cli_figure12": ("import_s", "import_share"),
}

#: Fields that are rates/fractions of a total and therefore must not
#: exceed 1.0 (the generic numeric check only pins >= 0).
UNIT_INTERVAL_FIELDS = (
    "coalesced_hit_rate", "reclaimed_fraction", "warm_shard_bytes_ratio",
    "import_share",
)


def _known_benchmarks() -> "tuple[str, ...]":
    """The harness's anchor names (imported lazily for standalone runs)."""
    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    from benchmarks.perf.run_bench import KNOWN_BENCHMARKS

    return KNOWN_BENCHMARKS


def validate_document(document: Any) -> List[str]:
    """Return every schema problem in a loaded report (empty = valid)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return [f"report root must be an object, got {type(document).__name__}"]
    for key in REQUIRED_DOCUMENT_KEYS:
        if key not in document:
            problems.append(f"missing top-level key {key!r}")
    benchmarks = document.get("benchmarks")
    if not isinstance(benchmarks, dict) or not benchmarks:
        problems.append("'benchmarks' must be a non-empty object")
        return problems
    known = _known_benchmarks()
    unknown = sorted(set(benchmarks) - set(known))
    for name in unknown:
        problems.append(
            f"{name}: not a benchmark the harness can produce "
            "(stale entry after a rename?)"
        )
    missing = sorted(set(known) - set(benchmarks))
    for name in missing:
        problems.append(
            f"{name}: known anchor missing from the report "
            "(re-record with run_bench.py)"
        )
    for name, entry in sorted(benchmarks.items()):
        problems.extend(_validate_entry(name, entry))
    return problems


def _validate_entry(name: str, entry: Any) -> List[str]:
    """Schema problems in one benchmark entry."""
    if not isinstance(entry, dict):
        return [f"{name}: entry must be an object, got {type(entry).__name__}"]
    problems: List[str] = []
    required = REQUIRED_ENTRY_KEYS + ANCHOR_REQUIRED_FIELDS.get(name, ())
    for key in required:
        if key not in entry:
            problems.append(f"{name}: missing required field {key!r}")
    for field, value in sorted(entry.items()):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(
                f"{name}.{field}: must be a number, got "
                f"{type(value).__name__}"
            )
            continue
        if not math.isfinite(value):
            problems.append(f"{name}.{field}: non-finite value {value!r}")
        elif value < 0.0:
            problems.append(f"{name}.{field}: negative value {value!r}")
        elif field in UNIT_INTERVAL_FIELDS and value > 1.0:
            problems.append(
                f"{name}.{field}: rate above 1.0 ({value!r})"
            )
    after = entry.get("after_s")
    if isinstance(after, (int, float)) and math.isfinite(after) and after <= 0:
        problems.append(f"{name}.after_s: must be positive, got {after!r}")
    return problems


def validate_report(path: pathlib.Path) -> List[str]:
    """Load and validate a report file; unreadable files are a problem."""
    try:
        document = json.loads(path.read_text())
    except FileNotFoundError:
        return [f"no report at {path}; record one with run_bench.py"]
    except (OSError, json.JSONDecodeError) as error:
        return [f"{path} is unreadable: {error}"]
    return validate_document(document)


def main(argv: "List[str] | None" = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    path = pathlib.Path(args[0]) if args else DEFAULT_REPORT
    problems = validate_report(path)
    if problems:
        missing = any("no report at" in p or "unreadable" in p for p in problems)
        print(f"{path}: {len(problems)} schema problem(s):")
        for problem in problems:
            print(f"  {problem}")
        return 2 if missing else 1
    benchmarks = json.loads(path.read_text())["benchmarks"]
    print(f"{path}: schema ok ({len(benchmarks)} benchmarks)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
