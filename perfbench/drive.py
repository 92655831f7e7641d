"""Run one ``repro`` CLI invocation with bench-side tracing.

Usage::

    python perfbench/drive.py SPANS_OUT -- <repro cli arguments>

The traced counterpart of ``python -m repro <arguments>``: it times
``import repro.cli``, wraps the package's entry points (see
``tracing.install``), calls ``repro.cli.main`` under a ``cli.main``
span, and writes the process's spans and counters to ``SPANS_OUT`` as
JSON when ``main`` returns -- for ``serve``, after the daemon drained.
Spans recorded in forked pool workers stay in those workers.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list) -> int:
    spans_out = Path(argv[0])
    if argv[1:2] != ["--"]:
        print("usage: drive.py SPANS_OUT -- ARGS...", file=sys.stderr)
        return 2
    args = argv[2:]

    import tracing

    tracer = tracing.Tracer()
    with tracer.span("repro", "import"):
        import repro.cli
    tracing.install(tracer)
    code = 1
    try:
        if args[:1] == ["serve"]:
            # The daemon's main thread only waits for SIGTERM; its
            # requests run on other threads, outside any cli span.
            code = repro.cli.main(args)
        else:
            with tracer.span("cli", "main"):
                code = repro.cli.main(args)
    finally:
        dump = tracer.dump()
        dump["counters"].update(tracing.process_counters())
        dump["exit_code"] = code
        dump["end_ns"] = time.monotonic_ns()
        spans_out.write_text(json.dumps(dump))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
