"""Disk-backed spill store for the simulation cache.

The in-memory LRU in :mod:`repro.sim.cache` dies with the process, so
every CLI invocation starts cold and a thousand-configuration DSE sweep
re-pays every simulation after a restart. This module is the second
tier: a content-addressed, versioned, on-disk store of ``SimResult``
entries keyed by the very same :func:`repro.sim.cache.simulation_key`.

Layout and entry format
-----------------------

A cache directory is sharded two levels deep::

    <root>/
      v1-<fingerprint>/          one schema generation (see below)
        ab/                      first two hex chars of the key digest
          ab3f...e1.pkl          one pickled entry
          .ab3f...e1.<pid>.tmp   in-flight write (never read)

This is the only entry format: one entry per file, whether it arrives
through :meth:`DiskCache.store` or as part of a sweep delta through
:meth:`DiskCache.store_batch`. Each ``.pkl`` file holds the bytes of
:func:`encode_entry_payload` — a pickle of ``{"format", "fingerprint",
"key", "value"}``. The key is stored alongside the value and compared
on load, so a (vanishingly unlikely) digest collision — or a corrupted
file that still unpickles — degrades to a miss, never a wrong result.
Membership is one ``stat`` of the entry path, and the entry count is
one listing of ``*/*.pkl``; there is no manifest to keep in step with
the files.

Keys are hashed with :func:`key_digest`: a canonical, process-stable
serialization of the nested key tuple (dataclasses by qualified name
and field values, floats by ``float.hex()``, arrays by dtype + shape +
raw buffer) fed through SHA-256. Unlike ``hash()``, the digest is
stable across interpreter runs (no ``PYTHONHASHSEED`` dependence), so
two processes — or two runs a week apart — address the same entry file.

Versioning contract
-------------------

The schema directory name embeds :data:`ENTRY_FORMAT_VERSION` plus a
fingerprint of the dataclass shapes an entry transitively contains
(``SimResult``, ``PipelineTrace``, ``UtilizationReport``, ``SimSystem``,
``MachineSpec``) and of :data:`MODEL_REVISION`. Changing any of those
fields — or bumping the format version or the model revision — changes
the directory name, so stale entries from an older code generation are
simply never looked at; they are invalidated by construction rather
than by deserialization failure.

Concurrency
-----------

Writers are safe against each other and against readers: an entry is
written to a unique temporary file in its final directory and published
with :func:`os.replace` (atomic on POSIX), so a reader only ever sees
absent or complete files. Two processes racing on the same key both
write the same bytes and the second rename wins harmlessly — entries
are content-addressed and simulations are pure. Truncated or otherwise
corrupted files (e.g. a copy of a crashed run's directory) are treated
as misses and cleaned up best-effort.

Garbage collection
------------------

The store is no longer append-only: :func:`prune_cache_dir` trims a
cache directory to a byte budget and/or a maximum entry age, evicting
least-recently-*used* entries first. "Used" is tracked through the
entry file's mtime — :meth:`DiskCache.load` touches the file on every
hit (best-effort), so a warm entry that keeps serving sweeps outlives
a colder, older one even if it was written first. Stale in-flight
``.tmp`` files (crashed writers), entries from *older schema
generations* (whose directory name no longer matches the running code)
and the ``packs/*.pack`` and ``index.repri`` files an older checkout
left behind are reclaimed as part of any prune. The CLI front doors
are ``repro cache prune`` and the ``REPRO_CACHE_MAX_BYTES`` environment
variable, which bounds the directory at attach time on every cached
invocation.

Trust boundary
--------------

Entries are pickled Python objects, and unpickling executes code by
design — the corruption handling above protects against *accidents*,
not adversaries. Point the cache directory only at paths you trust as
much as the code itself (a directory under your home, a project-local
path): a world-writable location shared with untrusted users would let
them plant a pickle that runs arbitrary code in your next sweep.
"""

from __future__ import annotations

import enum
import hashlib
import os
import pickle
import tempfile
import threading
import time
import warnings
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Any, Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

#: Bump when the on-disk entry layout itself changes (the pickle payload
#: shape, the digest algorithm, the shard scheme). Field-level changes to
#: the cached dataclasses are caught by the schema fingerprint instead.
ENTRY_FORMAT_VERSION = 1

#: Bump when the model computes different numbers for the same key (a
#: changed formula, constant, or numerical evaluation, even at the
#: 1e-15 level) while the cached dataclass shapes stay the same.
#: Without a bump a warm cache would replay old-model results beside
#: freshly computed ones. Revision 2: the binomial bubble expectation
#: (``repro.core.bubbles``) is an exact-coefficient ``math.comb`` sum
#: instead of floating-point CDF differences.
MODEL_REVISION = 2

#: Pickle protocol for entries. Protocol 4 is the newest one supported by
#: every Python this package targets; pinning it keeps an entry written
#: by a newer interpreter readable by an older one.
_PICKLE_PROTOCOL = 4

def _update_hash(hasher: "hashlib._Hash", value: Any) -> None:
    """Feed one key component into ``hasher``, canonically.

    Every branch writes a distinct tag byte plus a length-prefixed or
    fixed-width payload, so structurally different keys can never
    serialize to the same byte stream (``("ab", "c")`` vs ``("a", "bc")``).
    """
    if value is None:
        hasher.update(b"N")
    elif isinstance(value, bool):
        hasher.update(b"B1" if value else b"B0")
    elif isinstance(value, int):
        data = str(value).encode()
        hasher.update(b"I%d:" % len(data) + data)
    elif isinstance(value, float):
        # float.hex() is exact and round-trippable, and spells nan/inf
        # deterministically (-0.0 and 0.0 also differ, as wanted).
        data = value.hex().encode()
        hasher.update(b"F%d:" % len(data) + data)
    elif isinstance(value, str):
        data = value.encode("utf-8")
        hasher.update(b"S%d:" % len(data) + data)
    elif isinstance(value, bytes):
        hasher.update(b"Y%d:" % len(value) + value)
    elif isinstance(value, enum.Enum):
        hasher.update(b"E")
        _update_hash(hasher, type(value).__qualname__)
        _update_hash(hasher, value.value)
    elif is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        hasher.update(b"D")
        _update_hash(hasher, f"{cls.__module__}.{cls.__qualname__}")
        for field in fields(value):
            _update_hash(hasher, field.name)
            _update_hash(hasher, getattr(value, field.name))
    elif isinstance(value, (tuple, list)):
        hasher.update(b"T%d:" % len(value))
        for item in value:
            _update_hash(hasher, item)
    elif isinstance(value, np.ndarray):
        hasher.update(b"A")
        _update_hash(hasher, value.dtype.str)
        _update_hash(hasher, list(value.shape))
        hasher.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, np.generic):
        _update_hash(hasher, value.item())
    else:
        raise TypeError(
            f"cannot canonically serialize {type(value)!r} for a disk "
            "cache digest"
        )


def _compute_digest(key: Hashable) -> str:
    hasher = hashlib.sha256()
    _update_hash(hasher, key)
    return hasher.hexdigest()


#: Digest memo keyed by object identity, NOT equality: Python collapses
#: ``1 == 1.0 == True`` but their canonical serializations differ, so an
#: equality-keyed cache would hand back the wrong digest. Entries hold a
#: strong reference to the key, so an id can't be recycled while its
#: memo entry is alive.
_DIGEST_MEMO_MAX = 4096
_digest_memo: Dict[int, Tuple[Any, str]] = {}
_digest_memo_lock = threading.Lock()

#: Guards every :class:`DiskCache`'s diagnostic counters. File
#: operations themselves are safe via atomic rename, but SimulationCache
#: calls load()/store() outside its own lock.
_counter_lock = threading.Lock()

# A sweep worker forked while another thread holds one of these locks
# would inherit it held forever; hold them across every fork instead.
if hasattr(os, "register_at_fork"):
    def _acquire_fork_locks() -> None:
        _digest_memo_lock.acquire()
        _counter_lock.acquire()

    def _release_fork_locks() -> None:
        _counter_lock.release()
        _digest_memo_lock.release()

    os.register_at_fork(
        before=_acquire_fork_locks,
        after_in_parent=_release_fork_locks,
        after_in_child=_release_fork_locks,
    )


def key_digest(key: Hashable) -> str:
    """SHA-256 hex digest of a simulation key, stable across processes.

    The canonical serialization walks the whole key structure, which is
    the dominant cost of a containment probe, so digests are memoized by
    key identity (sweeps probe the same key objects many times: cache
    dicts and entry batches keep them alive). An unserializable key
    raises ``TypeError``, which callers treat as memory-only.
    """
    memo = _digest_memo.get(id(key))
    if memo is not None and memo[0] is key:
        return memo[1]
    digest = _compute_digest(key)
    with _digest_memo_lock:
        if len(_digest_memo) >= _DIGEST_MEMO_MAX:
            _digest_memo.clear()
        _digest_memo[id(key)] = (key, digest)
    return digest


_SCHEMA_FINGERPRINT: Optional[str] = None


def schema_fingerprint() -> str:
    """A short fingerprint of the result schema a cached entry belongs to.

    Hashes every field name and annotation of ``SimResult`` and the
    types it transitively embeds, plus :data:`MODEL_REVISION`. Adding,
    removing, renaming, or re-typing a field, or bumping the model
    revision, changes the fingerprint — and with it the schema
    directory name and a sweep worker's hello frame — so old entries
    are invalidated wholesale without ever being read. (Imports are
    local to dodge the import cycle: ``pipeline`` imports ``cache``
    which imports this module.)
    """
    global _SCHEMA_FINGERPRINT
    if _SCHEMA_FINGERPRINT is None:
        from repro.core.machine import MachineSpec
        from repro.sim.pipeline import PipelineTrace, SimResult
        from repro.sim.stats import UtilizationReport
        from repro.sim.system import SimSystem

        parts = []
        for cls in (
            SimResult, PipelineTrace, UtilizationReport, SimSystem,
            MachineSpec,
        ):
            shape = ",".join(
                f"{field.name}:{field.type}" for field in fields(cls)
            )
            parts.append(f"{cls.__qualname__}({shape})")
        parts.append(f"model-revision:{MODEL_REVISION}")
        blob = ";".join(parts).encode("utf-8")
        _SCHEMA_FINGERPRINT = hashlib.sha256(blob).hexdigest()[:12]
    return _SCHEMA_FINGERPRINT


def encode_entry_payload(key: Hashable, value: Any) -> bytes:
    """One entry serialized in the on-disk payload format.

    These bytes are exactly the contents of an entry's ``.pkl`` file
    (:meth:`DiskCache.store` writes them). Raises
    ``pickle.PicklingError`` for unpicklable values.
    """
    return pickle.dumps(
        {
            "format": ENTRY_FORMAT_VERSION,
            "fingerprint": schema_fingerprint(),
            "key": key,
            "value": value,
        },
        protocol=_PICKLE_PROTOCOL,
    )


def decode_entry_payload(payload: bytes) -> Tuple[Hashable, Any]:
    """The ``(key, value)`` inside one encoded entry payload.

    Validates payload shape, format version and schema fingerprint,
    and raises ``ValueError`` on any mismatch, so a foreign or stale
    entry file degrades to recompute instead of poisoning the cache.
    """
    obj = pickle.loads(payload)
    if (
        not isinstance(obj, dict)
        or obj.get("format") != ENTRY_FORMAT_VERSION
        or obj.get("fingerprint") != schema_fingerprint()
        or "key" not in obj
        or "value" not in obj
    ):
        raise ValueError("unrecognized entry payload")
    return obj["key"], obj["value"]


@dataclass(frozen=True)
class DiskCacheStats:
    """Counters of one :class:`DiskCache` instance (this process only).

    ``stores`` counts every persisted entry, whether it came through
    :meth:`DiskCache.store` or :meth:`DiskCache.store_batch`;
    ``pack_commits`` counts the ``store_batch`` calls that wrote at
    least one entry (one per committed sweep delta).
    """

    hits: int
    misses: int
    errors: int
    stores: int
    skipped_stores: int
    pack_commits: int = 0

    def since(self, before: "DiskCacheStats") -> "DiskCacheStats":
        """The counter movement between ``before`` and this snapshot
        (every field is a counter; per-request reporting in the serve
        daemon)."""
        return DiskCacheStats(
            hits=self.hits - before.hits,
            misses=self.misses - before.misses,
            errors=self.errors - before.errors,
            stores=self.stores - before.stores,
            skipped_stores=self.skipped_stores - before.skipped_stores,
            pack_commits=self.pack_commits - before.pack_commits,
        )


class DiskCache:
    """One directory of content-addressed simulation entries.

    Raises ``OSError`` if the directory cannot be created or written
    (callers wanting the warn-and-degrade behavior use
    :func:`open_disk_cache`).
    """

    def __init__(self, root: "Path | str") -> None:
        self.root = Path(root)
        self._dir = (
            self.root / f"v{ENTRY_FORMAT_VERSION}-{schema_fingerprint()}"
        )
        self._dir.mkdir(parents=True, exist_ok=True)
        # Probe writability up front so an unwritable mount degrades at
        # configuration time, not in the middle of a sweep.
        probe_fd, probe_path = tempfile.mkstemp(
            prefix=".probe.", suffix=".tmp", dir=self._dir
        )
        os.close(probe_fd)
        os.unlink(probe_path)
        self._hits = 0
        self._misses = 0
        self._errors = 0
        self._stores = 0
        self._skipped_stores = 0
        self._pack_commits = 0

    def _count(self, counter: str) -> None:
        with _counter_lock:
            setattr(self, counter, getattr(self, counter) + 1)

    @property
    def schema_dir(self) -> Path:
        """The versioned directory current-generation entries live in."""
        return self._dir

    def entry_path(self, key: Hashable) -> Path:
        """Where ``key``'s entry lives (whether or not it exists yet)."""
        digest = key_digest(key)
        return self._dir / digest[:2] / f"{digest}.pkl"

    def contains(self, key: Hashable) -> bool:
        """Whether an entry for ``key`` exists (one ``stat``; no load,
        no counters).

        A stale ``True`` (a corrupt file) is harmless: the cell simply
        takes the normal per-cell lookup path, which detects the
        corruption and recomputes.
        """
        try:
            return self.entry_path(key).is_file()
        except TypeError:
            # Same contract as load(): a key the canonical serializer
            # can't digest lives memory-only.
            return False

    def load(self, key: Hashable, count: bool = True) -> Optional[Any]:
        """The stored value for ``key``, or ``None``.

        Any failure mode — missing file, truncated pickle, foreign
        payload, key mismatch after a digest collision — is a miss, and
        corrupt files are removed best-effort. ``count=False`` performs
        the same load without moving the hit/miss counters — the
        prefetch path, which warms entries *ahead* of lookups and must
        not make one lookup count twice.
        """
        try:
            path = self.entry_path(key)
        except TypeError:
            # A hashable key component the canonical serializer doesn't
            # know (possible through the public `extra` slot): such keys
            # live memory-only rather than failing the lookup.
            if count:
                self._count("_misses")
            return None
        try:
            stored_key, value = decode_entry_payload(path.read_bytes())
            if stored_key != key:
                raise ValueError("entry key does not match its digest")
        except FileNotFoundError:
            if count:
                self._count("_misses")
            return None
        except Exception:
            # A torn copy, a truncated write from a crashed run, or a
            # hand-edited file: recompute rather than crash the sweep.
            if count:
                self._count("_errors")
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        try:
            # LRU bookkeeping for prune_cache_dir: a hit refreshes the
            # entry's mtime so recently *used* entries outlive recently
            # *written* ones under a byte budget. Best-effort — a
            # read-only directory still serves hits, it just ages.
            os.utime(path, None)
        except OSError:
            pass
        if count:
            self._count("_hits")
        return value

    def store(self, key: Hashable, value: Any) -> bool:
        """Persist ``value`` under ``key``; returns whether bytes moved.

        Entries are immutable (pure-function results), so an existing
        entry is left alone. The write lands in a unique temp file next
        to its final path and is published with an atomic rename, so
        concurrent writers and readers never observe partial entries.
        """
        try:
            path = self.entry_path(key)
        except TypeError:
            # Same contract as load(): a key the canonical serializer
            # can't digest stays memory-only.
            self._count("_errors")
            return False
        if path.is_file():
            self._count("_skipped_stores")
            return False
        try:
            payload = encode_entry_payload(key, value)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                prefix=f".{path.stem}.{os.getpid()}.", suffix=".tmp",
                dir=path.parent,
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp_path, path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PicklingError):
            # A full disk or an unpicklable stowaway must not kill the
            # sweep; the entry simply stays memory-only.
            self._count("_errors")
            return False
        self._count("_stores")
        return True

    def store_batch(self, items: Sequence[Tuple[Hashable, Any]]) -> int:
        """Persist a delta of ``(key, value)`` pairs; entries written.

        Duplicate keys inside the delta are written once; every entry
        then goes through :meth:`store`, so entries already on disk are
        skipped exactly as a single store skips them.
        """
        written = 0
        seen: Set[str] = set()
        for key, value in items:
            try:
                digest = key_digest(key)
            except TypeError:
                self._count("_errors")
                continue
            if digest in seen:
                continue
            seen.add(digest)
            written += self.store(key, value)
        if written:
            self._count("_pack_commits")
        return written

    def entry_count(self) -> int:
        """Number of complete entries in the current schema generation."""
        return sum(1 for _ in self._dir.glob("*/*.pkl"))

    def storage_snapshot(self) -> Dict[str, Any]:
        """On-disk shape of the current schema generation (one listing).

        The observability surface behind ``repro cache stats`` and the
        serve daemon's status report.
        """
        entries = total_bytes = 0
        for path in self._dir.glob("*/*.pkl"):
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue
            entries += 1
        return {
            "root": str(self.root),
            "schema_dir": str(self._dir),
            "entries": entries,
            "total_bytes": total_bytes,
        }

    def stats(self) -> DiskCacheStats:
        """A snapshot of this instance's counters."""
        return DiskCacheStats(
            hits=self._hits,
            misses=self._misses,
            errors=self._errors,
            stores=self._stores,
            skipped_stores=self._skipped_stores,
            pack_commits=self._pack_commits,
        )


#: In-flight writes live seconds; a ``.tmp`` file older than this is a
#: crashed writer's leftover and safe to reclaim.
STALE_TMP_AGE_S = 3600.0


def _is_retired_format_file(path: Path) -> bool:
    """A pack file or manifest an older checkout of the disk tier wrote.

    The running code never reads them, so they would otherwise sit
    outside the byte budget forever.
    """
    return path.name == "index.repri" or (
        path.suffix == ".pack" and path.parent.name == "packs"
    )


@dataclass(frozen=True)
class PruneReport:
    """What one :func:`prune_cache_dir` pass scanned and removed."""

    scanned_entries: int
    scanned_bytes: int
    removed_entries: int
    removed_bytes: int
    #: Stale in-flight ``.tmp`` files plus retired-format leftovers
    #: (pack files and manifests an older checkout wrote).
    removed_tmp_files: int
    kept_entries: int
    kept_bytes: int

    def describe(self) -> str:
        """One human-readable summary line."""
        return (
            f"pruned {self.removed_entries} of {self.scanned_entries} "
            f"entries ({self.removed_bytes} of {self.scanned_bytes} bytes)"
            f"{f' + {self.removed_tmp_files} stale file(s)' if self.removed_tmp_files else ''}; "
            f"{self.kept_entries} entries / {self.kept_bytes} bytes kept"
        )


def _remove_empty_dirs(root: Path) -> None:
    """Best-effort removal of shard/schema dirs a prune emptied out."""
    for directory in sorted(
        (d for d in root.rglob("*") if d.is_dir()),
        key=lambda d: len(d.parts),
        reverse=True,
    ):
        try:
            directory.rmdir()  # fails (harmlessly) unless empty
        except OSError:
            pass


def prune_cache_dir(
    root: "Path | str",
    max_bytes: Optional[int] = None,
    max_age_s: Optional[float] = None,
    now: Optional[float] = None,
) -> PruneReport:
    """Trim a cache directory to a byte budget and/or a maximum age.

    Eviction is LRU by last use, never by write order: entries older
    than ``max_age_s`` go first unconditionally, then the oldest
    remaining entries are removed until the directory fits
    ``max_bytes``. The recency signal is the entry file's mtime, which
    loads refresh. All schema generations under ``root`` are considered
    — entries from an older code generation are unreachable anyway and
    age out naturally (their mtime stops refreshing). Stale in-flight
    ``.tmp`` files and retired-format leftovers (pack files and
    ``index.repri`` manifests) are always reclaimed.

    Every removal is best-effort: a file that vanishes mid-prune (a
    concurrent prune, a cleanup) is skipped, and a nonexistent ``root``
    yields an all-zero report. Returns a :class:`PruneReport`; the
    directory itself is never deleted, so a pruned cache keeps
    accepting new entries.
    """
    if max_bytes is not None and max_bytes < 0:
        raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
    if max_age_s is not None and max_age_s < 0:
        raise ValueError(f"max_age_s must be >= 0, got {max_age_s}")
    root = Path(root)
    if now is None:
        now = time.time()
    removed_tmp = 0
    entries: List[Tuple[float, int, Path]] = []  # (mtime, size, path)
    if root.is_dir():
        for path in root.rglob("*"):
            try:
                if not path.is_file():
                    continue
                stat = path.stat()
            except OSError:
                continue
            if path.name.endswith(".tmp"):
                stale = now - stat.st_mtime > STALE_TMP_AGE_S
            else:
                stale = _is_retired_format_file(path)
            if stale:
                try:
                    path.unlink()
                    removed_tmp += 1
                except OSError:
                    pass
            elif path.suffix == ".pkl":
                entries.append((stat.st_mtime, stat.st_size, path))
    entries.sort(key=lambda item: item[0])  # oldest (least recent) first
    scanned = len(entries)
    scanned_bytes = sum(size for _, size, _ in entries)
    kept_bytes = scanned_bytes
    removed = removed_bytes = 0
    for mtime, size, path in entries:
        too_old = max_age_s is not None and now - mtime > max_age_s
        over_budget = max_bytes is not None and kept_bytes > max_bytes
        if not (too_old or over_budget):
            continue
        try:
            path.unlink()
        except OSError:
            continue
        removed += 1
        removed_bytes += size
        kept_bytes -= size
    if removed or removed_tmp:
        _remove_empty_dirs(root)
    return PruneReport(
        scanned_entries=scanned,
        scanned_bytes=scanned_bytes,
        removed_entries=removed,
        removed_bytes=removed_bytes,
        removed_tmp_files=removed_tmp,
        kept_entries=scanned - removed,
        kept_bytes=scanned_bytes - removed_bytes,
    )


def open_disk_cache(root: "Path | str") -> Optional[DiskCache]:
    """Open (creating if needed) a disk cache, degrading to ``None``.

    An unusable directory — unwritable, a file in the way, a read-only
    mount — emits a ``RuntimeWarning`` and returns ``None`` so callers
    fall back to memory-only caching instead of failing the run.
    """
    try:
        return DiskCache(root)
    except OSError as error:
        warnings.warn(
            f"simulation cache directory {str(root)!r} is not usable "
            f"({error}); continuing with the in-memory cache only",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
