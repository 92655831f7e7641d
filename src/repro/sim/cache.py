"""Memoization for tile-stream simulations.

Every figure and table harness funnels through
:func:`repro.sim.pipeline.simulate_tile_stream`, and experiment sweeps
re-invoke it with identical ``(system, timing, tiles)`` inputs dozens of
times (the same kernel timing appears in a speedup sweep, a utilization
table, and an ablation). This module provides the transparent LRU front
door that makes every repeat a dictionary lookup.

Keying rules
------------

A cache key is built by value, not identity:

* ``SimSystem`` is a frozen dataclass of floats (plus the frozen
  ``MachineSpec``) and is hashed directly — two equal systems share an
  entry regardless of which object the caller constructed.
* ``KernelTiming`` cannot be hashed as-is because ``bytes_per_tile`` /
  ``dec_cycles`` may be NumPy arrays; every field is frozen with
  :func:`_freeze` (arrays and sequences become value tuples, enums become
  their value). The *raw* field value is keyed — a scalar ``300.0`` and a
  600-element array of 300s are distinct keys even though they broadcast
  to the same stream.
* ``tiles`` participates as an int, so the same timing at a different
  stream length recomputes.

Entries are :class:`repro.sim.pipeline.SimResult` objects; their trace
arrays are frozen read-only by the simulator, so sharing one result
object between callers is safe. The cache is bounded LRU
(``maxsize`` results, ~30 KB each with a 600-tile trace) and
thread-safe.

Two tiers
---------

The LRU is the first tier; an optional second, disk-backed tier
(:mod:`repro.sim.diskcache`) survives process restarts. With a cache
directory configured (:func:`configure_simulation_cache_dir`, or the
CLI's ``--cache-dir`` / ``REPRO_CACHE_DIR``), ``get_or_compute`` walks
memory → disk → compute: a disk hit is promoted into the LRU (and
counted in ``CacheStats.disk_hits``), and a computed miss is spilled to
disk on the way out. The disk tier is transparent — entries loaded from
it are re-frozen and bit-identical to freshly computed ones — and
unbounded; only the in-memory tier evicts.

Merging
-------

The parallel sweep executor (:mod:`repro.experiments.parallel`) keeps a
persistent pool of forked worker processes, each of which populates its
own copy of the process-wide cache (kept in sync with the parent's
clear generation and disk configuration). On join the workers' *new*
entries (and their hit/miss/disk-hit deltas) are folded back into the
parent via :func:`merge_simulation_cache`, keyed by the very same
:func:`simulation_key`. Two workers may legitimately compute the same
key (e.g. both partitions contain the shared baseline configuration);
because simulations are pure, the duplicates must be bit-identical —
:func:`results_bit_equal` asserts exactly that in debug mode before the
duplicate is dropped.
"""

from __future__ import annotations

import enum
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.diskcache import DiskCache, open_disk_cache


def _freeze(value: Any) -> Hashable:
    """A hashable, value-based stand-in for one field value."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (np.ndarray, list, tuple)):
        # Normalize to a float64 buffer: a list and an equal array freeze
        # to the same key, and hashing the raw bytes keeps a cache hit on
        # a 600-element per-tile timing ~100x cheaper than a value tuple.
        array = np.ascontiguousarray(value, dtype=float).ravel()
        return ("array", array.tobytes())
    if isinstance(value, np.generic):
        return value.item()
    return value


# timing_key is hot (every cache lookup freezes every timing field); a
# weak memo keyed on the timing object itself makes repeat lookups of
# the same frozen timing a single hash. Timings carrying NumPy arrays
# are unhashable and bypass the memo — they pay the full freeze, which
# hashes the array buffer anyway.
_TIMING_KEY_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def timing_key(timing: Any) -> Tuple[Hashable, ...]:
    """Freeze a ``KernelTiming`` (any frozen dataclass) into a hashable key."""
    if not is_dataclass(timing):
        raise TypeError(f"expected a dataclass timing, got {type(timing)!r}")
    try:
        cached = _TIMING_KEY_MEMO.get(timing)
        memoizable = True
    except TypeError:
        cached = None
        memoizable = False
    if cached is not None:
        return cached
    key = tuple(
        (field.name, _freeze(getattr(timing, field.name)))
        for field in fields(timing)
    )
    if memoizable:
        try:
            _TIMING_KEY_MEMO[timing] = key
        except TypeError:
            pass
    return key


def simulation_key(
    system: Any, timing: Any, tiles: int, extra: Hashable = None
) -> Hashable:
    """The full cache key for one tile-stream simulation.

    ``extra`` carries ambient inputs that feed the simulation without
    living on the system/timing objects — the pipeline passes its
    module-level calibration constants here so transient perturbations
    (e.g. the sensitivity study patching ``DRAM_EFFICIENCY``) key their
    own entries instead of aliasing the nominal ones.
    """
    return (system, timing_key(timing), int(tiles), extra)


def _refreeze_arrays(value: Any) -> None:
    """Re-apply the read-only freeze to every array inside a cached value.

    Cached ``SimResult`` trace arrays are frozen by the simulator, but
    NumPy pickling drops the writeable flag — so entries arriving from a
    forked worker would be silently mutable where the serial path's are
    not. Restore the invariant before the entry becomes shared.
    """
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif is_dataclass(value) and not isinstance(value, type):
        for field in fields(value):
            _refreeze_arrays(getattr(value, field.name))


def results_bit_equal(a: Any, b: Any) -> bool:
    """Structural bit-equality of two cached values.

    Recurses through dataclasses, compares NumPy arrays on their raw
    buffers (so ``-0.0`` vs ``0.0`` or differing NaN payloads count as
    different), and falls back to ``==`` for plain scalars. Used to
    verify that duplicate keys produced by independent workers carry
    identical results — the pure-function contract of the simulator.
    """
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.shape == b.shape
            and a.dtype == b.dtype
            and a.tobytes() == b.tobytes()
        )
    if is_dataclass(a) and is_dataclass(b) and type(a) is type(b):
        return all(
            results_bit_equal(getattr(a, f.name), getattr(b, f.name))
            for f in fields(a)
        )
    return bool(a == b)


@dataclass(frozen=True)
class CacheMergeStats:
    """Outcome of folding one batch of worker entries into a cache."""

    inserted: int
    duplicates: int


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of the process-wide simulation cache.

    ``hits`` counts in-memory LRU hits; ``disk_hits`` counts lookups
    served from the disk tier (zero when no cache directory is
    configured); ``misses`` counts genuinely computed simulations.
    """

    hits: int
    misses: int
    size: int
    maxsize: int
    disk_hits: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from either cache tier."""
        served = self.hits + self.disk_hits
        total = served + self.misses
        return served / total if total else 0.0

    def since(self, before: "CacheStats") -> "CacheStats":
        """The counter movement between ``before`` and this snapshot.

        Hit/miss/disk-hit are counters and subtract; ``size``/``maxsize``
        are levels and carry over from the later snapshot. The serve
        daemon reports one of these per request, so a client can see
        what *its* sweep cost rather than the daemon's lifetime totals.
        """
        return CacheStats(
            hits=self.hits - before.hits,
            misses=self.misses - before.misses,
            size=self.size,
            maxsize=self.maxsize,
            disk_hits=self.disk_hits - before.disk_hits,
        )


class SimulationCache:
    """A bounded, thread-safe LRU mapping simulation keys to results."""

    def __init__(
        self, maxsize: int = 512, disk: Optional[DiskCache] = None
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0
        self._disk = disk
        # Resident keys that were promoted from the disk tier rather
        # than computed here (see new_entries).
        self._from_disk: "set[Hashable]" = set()
        # Bumped on clear(); lets long-lived worker processes detect that
        # the parent reset its cache and drop their own copies in sync
        # (see repro.experiments.parallel).
        self._generation = 0

    @property
    def disk(self) -> Optional[DiskCache]:
        """The disk tier, if one is configured."""
        return self._disk

    def set_disk(self, disk: Optional[DiskCache]) -> None:
        """Attach (or detach, with ``None``) the disk tier."""
        with self._lock:
            self._disk = disk

    def generation(self) -> int:
        """The clear-generation counter (monotonic per process)."""
        with self._lock:
            return self._generation

    def sync_generation(self, generation: int) -> None:
        """Adopt another process's clear generation.

        If it differs from ours, the in-memory entries and counters are
        dropped — the owning process cleared since we last synced, so
        our inherited entries are exactly the ones it discarded. The
        disk tier is untouched (clearing never reaches disk).
        """
        with self._lock:
            if self._generation != generation:
                self._entries.clear()
                self._from_disk.clear()
                self._hits = 0
                self._misses = 0
                self._disk_hits = 0
                self._generation = generation

    def _evict_over_capacity(self) -> None:
        # Caller holds the lock.
        while len(self._entries) > self.maxsize:
            key, _ = self._entries.popitem(last=False)
            self._from_disk.discard(key)

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """The value for ``key``: memory, else disk, else computed."""
        with self._lock:
            if key in self._entries:
                self._hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
            disk = self._disk
        # Disk probe and compute both run outside the lock: simulations
        # are slow and pure, and a rare duplicate computation is cheaper
        # than serializing them all.
        if disk is not None:
            value = disk.load(key)
            if value is not None:
                # Pickling drops NumPy's read-only flag; restore the
                # shared-result invariant before the entry is visible.
                _refreeze_arrays(value)
                with self._lock:
                    if key not in self._entries:
                        self._disk_hits += 1
                        self._entries[key] = value
                        self._from_disk.add(key)
                        self._evict_over_capacity()
                    else:
                        self._hits += 1
                        self._entries.move_to_end(key)
                    return self._entries[key]
        value = compute()
        with self._lock:
            if key not in self._entries:
                self._misses += 1
                self._entries[key] = value
                self._evict_over_capacity()
                computed = True
            else:
                self._hits += 1
                self._entries.move_to_end(key)
                computed = False
            result = self._entries[key]
            disk = self._disk
        if computed and disk is not None:
            disk.store(key, result)
        return result

    def contains(self, key: Hashable) -> bool:
        """Whether ``key`` is resident in memory or present on disk.

        A pure membership probe: no counters move, no disk payload is
        read, and nothing is promoted into the LRU — so probing a cell
        and then looking it up through :meth:`get_or_compute` counts
        exactly one hit, the same as an unprobed lookup. The batched
        simulation entry uses this to exclude already-cached cells from
        a stack without perturbing hit-rate accounting.
        """
        with self._lock:
            if key in self._entries:
                return True
            disk = self._disk
        return disk is not None and disk.contains(key)

    def prefetch(self, key: Hashable) -> bool:
        """Warm ``key`` from the disk tier without moving any counter.

        The serve daemon's ``--preload`` seam: it calls this for keys
        its sweeps are *about* to need, so the later
        :meth:`get_or_compute` lands as a plain memory hit. Counter
        neutrality is the contract — the prefetched entry must be
        indistinguishable from one that was already resident, so
        neither ``disk_hits`` nor the :class:`DiskCacheStats` counters
        move and the LRU position of existing entries is untouched.
        Returns whether an entry was newly promoted into memory.
        """
        with self._lock:
            if key in self._entries:
                return False
            disk = self._disk
        if disk is None:
            return False
        value = disk.load(key, count=False)
        if value is None:
            return False
        _refreeze_arrays(value)
        with self._lock:
            if key in self._entries:
                return False
            self._entries[key] = value
            self._from_disk.add(key)
            self._evict_over_capacity()
            return True

    def insert_results(
        self, items: Sequence[Tuple[Hashable, Any]]
    ) -> List[Any]:
        """Fan a batch of freshly computed results in under one lock.

        Equivalent to calling ``get_or_compute(key, lambda: value)`` per
        pair — each fresh key counts one miss and is spilled to the disk
        tier; a key that landed in memory since the caller probed it
        counts one hit and the resident value wins (simulations are
        pure, so the two are bit-identical). Returns the cached value
        per pair, in order — callers must use these, not their inputs.
        """
        out: List[Any] = []
        spill: List[Tuple[Hashable, Any]] = []
        with self._lock:
            for key, value in items:
                if key in self._entries:
                    self._hits += 1
                    self._entries.move_to_end(key)
                else:
                    self._misses += 1
                    self._entries[key] = value
                    self._evict_over_capacity()
                    spill.append((key, value))
                out.append(self._entries.get(key, value))
            disk = self._disk
        if disk is not None:
            # One group commit for the whole batch: a large delta lands
            # as a single pack append instead of N tmp+rename cycles.
            disk.store_batch(spill)
        return out

    def snapshot(self) -> "list[Tuple[Hashable, Any]]":
        """The current ``(key, value)`` entries, oldest first."""
        with self._lock:
            return list(self._entries.items())

    def new_entries(
        self, baseline: "set[Hashable]"
    ) -> List[Tuple[Hashable, Any]]:
        """Resident entries outside ``baseline`` that were not disk loads.

        A pool worker's per-cell cache delta: ``baseline`` is the key
        set at cell start, and entries the cell promoted from the disk
        tier are skipped — the parent shares that directory, so
        shipping them back would only re-send what it can already load.
        """
        with self._lock:
            return [
                (key, value)
                for key, value in self._entries.items()
                if key not in baseline and key not in self._from_disk
            ]

    def keys(self) -> "set[Hashable]":
        """The current key set (a copy)."""
        with self._lock:
            return set(self._entries)

    def merge_entries(
        self,
        entries: "Sequence[Tuple[Hashable, Any]]",
        hits: int = 0,
        misses: int = 0,
        disk_hits: int = 0,
    ) -> CacheMergeStats:
        """Fold another cache's entries (and counter deltas) into this one.

        Keys already present are kept (both sides computed the same pure
        simulation; in debug mode the duplicate is asserted bit-identical
        via :func:`results_bit_equal` before being dropped). ``hits`` /
        ``misses`` / ``disk_hits`` accumulate a worker's lookup counters
        so the merged stats reflect the whole sweep's cache traffic.
        Freshly inserted entries are also spilled to the disk tier (a
        no-op for entries the worker already wrote — the store is
        content-addressed and skips existing files).
        """
        inserted = 0
        duplicates = 0
        new_entries: List[Tuple[Hashable, Any]] = []
        with self._lock:
            for key, value in entries:
                if key in self._entries:
                    duplicates += 1
                    assert results_bit_equal(self._entries[key], value), (
                        "duplicate simulation key resolved to different "
                        f"results during cache merge: {key!r}"
                    )
                    self._entries.move_to_end(key)
                else:
                    inserted += 1
                    _refreeze_arrays(value)
                    self._entries[key] = value
                    new_entries.append((key, value))
                    self._evict_over_capacity()
            self._hits += hits
            self._misses += misses
            self._disk_hits += disk_hits
            disk = self._disk
        if disk is not None:
            disk.store_batch(new_entries)
        return CacheMergeStats(inserted=inserted, duplicates=duplicates)

    def clear(self) -> None:
        """Drop every in-memory entry and reset the counters.

        The disk tier (if any) is deliberately untouched: clearing
        resets this process's view, not the persistent store. The clear
        generation is bumped so cooperating worker processes drop their
        inherited copies too.
        """
        with self._lock:
            self._entries.clear()
            self._from_disk.clear()
            self._hits = 0
            self._misses = 0
            self._disk_hits = 0
            self._generation += 1

    def stats(self) -> CacheStats:
        """A snapshot of the cache's counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                size=len(self._entries),
                maxsize=self.maxsize,
                disk_hits=self._disk_hits,
            )

    def flush_to_disk(self) -> int:
        """Spill every in-memory entry to the disk tier; entries written.

        A no-op (0) without a disk tier. The store is content-addressed
        and skips files that already exist, so flushing after sweeps
        whose entries spilled as they computed writes nothing new; what
        it catches are entries that only ever lived in memory — e.g.
        merged from workers before the tier was attached, or computed
        while the disk was temporarily unwritable. The serve daemon
        calls this on drain so a restart finds them.
        """
        with self._lock:
            disk = self._disk
            entries = list(self._entries.items())
        if disk is None:
            return 0
        return disk.store_batch(entries)


#: The process-wide cache behind ``simulate_tile_stream``.
_GLOBAL_CACHE = SimulationCache(maxsize=512)


def cached_tile_stream(
    system: Any,
    timing: Any,
    tiles: int,
    compute: Callable[[], Any],
    extra: Hashable = None,
) -> Any:
    """Front door used by :func:`repro.sim.pipeline.simulate_tile_stream`."""
    return _GLOBAL_CACHE.get_or_compute(
        simulation_key(system, timing, tiles, extra), compute
    )


def cached_simulation(key: Hashable, compute: Callable[[], Any]) -> Any:
    """Keyed variant of :func:`cached_tile_stream`.

    The batched engine builds each cell's :func:`simulation_key` once to
    decide stack membership; this front door reuses that key for the
    fan-in instead of freezing the timing a second time. Identical
    lookup/miss/spill behaviour to :func:`cached_tile_stream`.
    """
    return _GLOBAL_CACHE.get_or_compute(key, compute)


def insert_simulation_results(
    items: Sequence[Tuple[Hashable, Any]]
) -> List[Any]:
    """Bulk fan-in into the process-wide cache (one lock acquisition).

    See :meth:`SimulationCache.insert_results`.
    """
    return _GLOBAL_CACHE.insert_results(items)


def prefetch_simulation_keys(
    keys: Sequence[Hashable],
    should_stop: Optional[Callable[[], bool]] = None,
) -> int:
    """Warm the process-wide LRU from disk for a batch of keys.

    Counter-neutral (see :meth:`SimulationCache.prefetch`): the later
    real lookups account for themselves as ordinary memory hits.
    ``should_stop`` is polled between keys so a draining caller (the
    serve daemon's ``--preload``) stops prefetching within one entry.
    Returns how many entries were newly promoted into memory.
    """
    warmed = 0
    for key in keys:
        if should_stop is not None and should_stop():
            break
        if _GLOBAL_CACHE.prefetch(key):
            warmed += 1
    return warmed


def simulation_cache_contains(key: Hashable) -> bool:
    """Whether the process-wide cache already holds ``key`` (either tier).

    See :meth:`SimulationCache.contains` — a counter-neutral probe used
    by :func:`repro.sim.pipeline.simulate_tile_stream_batch` to keep
    cached cells out of the stacked engine pass.
    """
    return _GLOBAL_CACHE.contains(key)


def clear_simulation_cache() -> None:
    """Empty the process-wide simulation cache (tests, benchmarks)."""
    _GLOBAL_CACHE.clear()


def simulation_cache_stats() -> CacheStats:
    """Counters of the process-wide simulation cache."""
    return _GLOBAL_CACHE.stats()


def export_simulation_cache() -> List[Tuple[Hashable, Any]]:
    """The process-wide cache's ``(key, value)`` entries, oldest first."""
    return _GLOBAL_CACHE.snapshot()


def simulation_cache_keys() -> "set[Hashable]":
    """The process-wide cache's current key set (a copy)."""
    return _GLOBAL_CACHE.keys()


def new_simulation_cache_entries(
    baseline: "set[Hashable]",
) -> List[Tuple[Hashable, Any]]:
    """Process-wide entries computed since ``baseline`` was taken.

    See :meth:`SimulationCache.new_entries`: disk-tier loads are left
    out, so a fork pool worker's cell delta carries only fresh work.
    """
    return _GLOBAL_CACHE.new_entries(baseline)


def merge_simulation_cache(
    entries: Sequence[Tuple[Hashable, Any]],
    hits: int = 0,
    misses: int = 0,
    disk_hits: int = 0,
) -> CacheMergeStats:
    """Fold worker-produced entries into the process-wide cache.

    Used by :mod:`repro.experiments.parallel` when joining a process
    pool: each worker ships back the entries it computed (plus its
    hit/miss/disk-hit deltas), and the parent merges them so follow-up
    sweeps in the parent hit warm results. Duplicate keys are asserted
    bit-identical in debug mode; inserted entries are spilled to the
    disk tier when one is configured.
    """
    return _GLOBAL_CACHE.merge_entries(
        entries, hits=hits, misses=misses, disk_hits=disk_hits
    )


def configure_simulation_cache_dir(
    path: "Optional[str]",
) -> Optional[DiskCache]:
    """Attach a disk tier at ``path`` to the process-wide cache.

    ``None`` detaches the disk tier (memory-only, the default). An
    unusable directory warns (``RuntimeWarning``) and leaves the cache
    memory-only — a degraded run, never a failed one. Returns the
    attached :class:`DiskCache`, or ``None``.
    """
    if path is None:
        _GLOBAL_CACHE.set_disk(None)
        return None
    disk = open_disk_cache(path)
    _GLOBAL_CACHE.set_disk(disk)
    return disk


def flush_simulation_cache_to_disk() -> int:
    """Spill the process-wide cache to its disk tier; entries written.

    The serve daemon's drain hook ("persist deltas to disk"); see
    :meth:`SimulationCache.flush_to_disk`.
    """
    return _GLOBAL_CACHE.flush_to_disk()


def simulation_cache_disk() -> Optional[DiskCache]:
    """The process-wide cache's disk tier, if configured."""
    return _GLOBAL_CACHE.disk


def simulation_cache_dir() -> Optional[str]:
    """The configured cache directory as a string, or ``None``."""
    disk = _GLOBAL_CACHE.disk
    return str(disk.root) if disk is not None else None


def simulation_cache_generation() -> int:
    """The process-wide cache's clear-generation counter."""
    return _GLOBAL_CACHE.generation()


def sync_simulation_cache_generation(generation: int) -> None:
    """Adopt a parent process's clear generation (worker-side hook)."""
    _GLOBAL_CACHE.sync_generation(generation)
