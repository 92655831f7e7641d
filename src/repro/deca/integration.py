"""DECA system-integration options: the Figure 17 ablation ladder.

Section 9.3 starts from a pessimistic base configuration (DECA reads
compressed tiles via the LLC, writes decompressed tiles to the L2, and is
invoked with stores and fences) and progressively enables:

1. ``+Reads L2``        — fetch through the L2 and its hardware prefetcher,
2. ``+DECA prefetcher`` — DECA's own aggressive tile prefetcher,
3. ``+TOut Regs``       — the core reads TOut registers directly,
4. ``+TEPL``            — out-of-order invocation via the TEPL extension.

Each option maps onto concrete :class:`~repro.sim.pipeline.KernelTiming`
parameters; ``deca_kernel_timing`` performs that mapping.
"""

from __future__ import annotations

import functools as _functools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from repro.core.schemes import CompressionScheme
from repro.deca.config import DecaConfig
from repro.deca.timing import deca_dec_cycles
from repro.errors import ConfigurationError
from repro.sim.pipeline import InvocationMode, KernelTiming
from repro.sim.system import SimSystem
from repro.units import TMUL_CYCLES

#: Outstanding tile fetches for each prefetch discipline.
_WINDOW_DEMAND_ONLY = 2  # just the two Loaders' demand fetches
_WINDOW_L2_PREFETCHER = 8
_WINDOW_DECA_PREFETCHER = 24

#: Extra cycles for the decompressed tile to travel DECA -> L2 -> core
#: when TOut registers are not used (an L2 store-and-reload round trip).
_L2_ROUNDTRIP_EXTRA = 8.0


@dataclass(frozen=True)
class DecaIntegration:
    """Which integration features are enabled (Figure 17)."""

    reads_l2: bool = True
    own_prefetcher: bool = True
    tout_regs: bool = True
    tepl: bool = True
    label: str = "DECA"

    def __post_init__(self) -> None:
        if self.own_prefetcher and not self.reads_l2:
            raise ConfigurationError(
                "DECA's prefetcher targets the L2; enable reads_l2 first"
            )

    @property
    def prefetch_window(self) -> int:
        """Outstanding tile fetches under this discipline."""
        if self.own_prefetcher:
            return _WINDOW_DECA_PREFETCHER
        if self.reads_l2:
            return _WINDOW_L2_PREFETCHER
        return _WINDOW_DEMAND_ONLY

    def exposed_latency(self, system: SimSystem) -> float:
        """Fraction of memory latency each tile fetch leaves visible."""
        if self.own_prefetcher:
            return system.exposed_latency_decapf
        if self.reads_l2:
            return system.exposed_latency_l2pf
        return system.exposed_latency_none

    def handoff_cycles(self, system: SimSystem) -> float:
        """Decompressed-data path from the pipeline to a core tile register."""
        if self.tout_regs:
            return system.tout_read_latency
        return system.l2_latency + _L2_ROUNDTRIP_EXTRA


#: The cumulative ladder evaluated in Figure 17.
INTEGRATION_LADDER: Tuple[DecaIntegration, ...] = (
    DecaIntegration(False, False, False, False, label="Base"),
    DecaIntegration(True, False, False, False, label="+Reads L2"),
    DecaIntegration(True, True, False, False, label="+DECA prefetcher"),
    DecaIntegration(True, True, True, False, label="+TOut Regs"),
    DecaIntegration(True, True, True, True, label="+TEPL (DECA)"),
)

#: The full production configuration used everywhere else.
FULL_INTEGRATION = INTEGRATION_LADDER[-1]


def deca_kernel_timing(
    system: SimSystem,
    scheme: CompressionScheme,
    config: Optional[DecaConfig] = None,
    integration: Optional[DecaIntegration] = None,
    dec_cycles: Optional[Union[float, Sequence[float]]] = None,
    bytes_per_tile: Optional[Union[float, Sequence[float]]] = None,
) -> KernelTiming:
    """Timing descriptor for a DECA-accelerated compressed GeMM.

    ``dec_cycles``/``bytes_per_tile`` default to the scheme's expected
    values; pass per-tile sequences (e.g. from
    :func:`repro.deca.timing.exact_dec_cycles`) for exact-workload runs.

    Default-argument calls are memoized: every input is a frozen
    value-hashable dataclass and the decompression-rate model behind
    ``deca_dec_cycles`` dominates construction, so repeated requests for
    the same configuration (a sweep's cells, the batched executor's
    seeding pass and the tasks behind it) share one ``KernelTiming``.
    """
    config = config if config is not None else DecaConfig()
    integration = integration if integration is not None else FULL_INTEGRATION
    if dec_cycles is None and bytes_per_tile is None:
        try:
            return _default_deca_kernel_timing(
                system, scheme, config, integration
            )
        except TypeError:
            # An unhashable axis value (e.g. a subclass carrying arrays)
            # simply skips the memo.
            pass
    return _build_deca_kernel_timing(
        system, scheme, config, integration, dec_cycles, bytes_per_tile
    )


@_functools.lru_cache(maxsize=256)
def _default_deca_kernel_timing(
    system: SimSystem,
    scheme: CompressionScheme,
    config: DecaConfig,
    integration: DecaIntegration,
) -> KernelTiming:
    """The memoized default-argument construction (frozen, shareable)."""
    return _build_deca_kernel_timing(
        system, scheme, config, integration, None, None
    )


def _build_deca_kernel_timing(
    system: SimSystem,
    scheme: CompressionScheme,
    config: DecaConfig,
    integration: DecaIntegration,
    dec_cycles: Optional[Union[float, Sequence[float]]],
    bytes_per_tile: Optional[Union[float, Sequence[float]]],
) -> KernelTiming:
    if dec_cycles is None:
        dec_cycles = deca_dec_cycles(config, scheme)
    if bytes_per_tile is None:
        bytes_per_tile = scheme.bytes_per_tile()
    if integration.tepl:
        mode = InvocationMode.TEPL
        invoke = system.tepl_issue_latency
        fence = 0.0
    else:
        mode = InvocationMode.SERIALIZED
        invoke = system.mmio_store_latency
        fence = system.fence_drain_cycles
    return KernelTiming(
        bytes_per_tile=bytes_per_tile,
        dec_cycles=dec_cycles,
        mtx_cycles=float(TMUL_CYCLES),
        mode=mode,
        handoff_cycles=integration.handoff_cycles(system),
        invoke_cycles=invoke,
        fence_cycles=fence,
        exposed_latency=integration.exposed_latency(system),
        prefetch_window=integration.prefetch_window,
        n_loaders=config.n_loaders,
        core_overhead_cycles=0.0,
        loader_latency_cycles=system.loader_fill_latency,
        demand_load_cap=None,
        dec_is_avx=False,
    )
