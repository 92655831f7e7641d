"""Composite scenarios: several sweeps chained in one streamed run.

The registry's plain scenarios each run one :class:`~repro.experiments.
sweepspec.SweepSpec`. A :class:`~repro.experiments.sweepspec.
CompositeSweep` chains several of them into a single invocation sharing
the persistent worker pool and the simulation cache: the first
sub-sweep's worker results merge into the parent as cells land, and
the next sub-sweep runs on the same warm workers.

``figure12+figure13`` is the registered composite: both DDR and HBM
per-scheme speedup sweeps in one streamed run, with per-spec result
sections. Run it via ``repro experiments figure12+figure13`` (add
``--jobs N`` for the pool, ``--out``/``--stream`` for incremental
rows — each row carries a ``"spec"`` column naming its section).
"""

from __future__ import annotations

from repro.experiments import figure12, figure13
from repro.experiments.sweepspec import CompositeSweep, register_scenario

#: Registry name of the chained Figure 12 + Figure 13 run.
FIGURE12_FIGURE13 = "figure12+figure13"


def figure12_figure13_sweep(batch_rows: int = 1) -> CompositeSweep:
    """Figures 12 and 13 as one chained, pool-sharing streamed sweep."""
    return CompositeSweep(
        FIGURE12_FIGURE13,
        (
            figure12.sweep_spec(batch_rows=batch_rows),
            figure13.sweep_spec(batch_rows=batch_rows),
        ),
        title="Figures 12+13 (DDR then HBM): speedup vs uncompressed BF16",
    )


def run(batch_rows: int = 1, jobs: int = 1):
    """Regenerate Figures 12 and 13 in one chained run.

    Returns a :class:`~repro.experiments.sweepspec.CompositeResult`
    whose ``figure12`` / ``figure13`` sections are bit-identical to the
    standalone ``figure12.run()`` / ``figure13.run()`` outputs.
    """
    return figure12_figure13_sweep(batch_rows=batch_rows).run(jobs=jobs)


register_scenario(
    FIGURE12_FIGURE13,
    "figures 12+13 chained in one streamed run (shared pool and caches)",
    figure12_figure13_sweep,
)
