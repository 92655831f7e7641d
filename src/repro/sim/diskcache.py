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

Each ``.pkl`` file is a pickle of ``{"format", "fingerprint", "key",
"value"}``. The key is stored alongside the value and compared on load,
so a (vanishingly unlikely) digest collision — or a corrupted file that
still unpickles — degrades to a miss, never a wrong result.

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
``.tmp`` files (crashed writers) and entries from *older schema
generations* (whose directory name no longer matches the running code)
are reclaimed as part of any prune. The CLI front doors are
``repro cache prune`` and the ``REPRO_CACHE_MAX_BYTES`` environment
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
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.diskindex import (
    INDEX_NAME,
    DiskCacheIndex,
    pack_dir,
    read_pack_payload,
    scan_pack,
    write_pack,
)

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

#: :meth:`DiskCache.store_batch` group-commits into a pack only when at
#: least this many *new* entries are in the delta; smaller deltas take
#: the per-entry path (a pack per two entries would fragment the store
#: without amortizing anything).
PACK_MIN_ENTRIES = 8

#: Environment escape hatch: any value other than empty or ``"0"``
#: routes every delta commit through the per-entry path (mirrors
#: ``REPRO_NO_BATCH``).
PACK_DISABLE_ENV = "REPRO_NO_PACK"


def packing_enabled() -> bool:
    """Whether delta commits may use the pack format."""
    env = os.environ.get(PACK_DISABLE_ENV, "")
    return not env or env == "0"


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
    directory name and the socket executor's handshake — so old entries
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
    """One entry serialized in the exact on-disk payload format.

    These bytes are what :meth:`DiskCache.store_batch` writes into pack
    files and what :meth:`DiskCache.store` pickles into loose ``.pkl``
    entries — so they can travel over any transport (the socket
    executor ships them verbatim as hash-sharded deltas) and land on a
    remote host's disk tier without re-encoding. Raises
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

    Validates the same invariants :meth:`DiskCache.load` checks —
    payload shape, format version, schema fingerprint — and raises
    ``ValueError`` on any mismatch, so a foreign or stale shard
    received over the wire degrades to recompute instead of poisoning
    the cache.
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

    ``stores`` counts every persisted entry regardless of route;
    ``pack_commits`` counts group commits (one per pack file written)
    and ``packed_stores`` the entries that travelled inside them, so
    ``stores - packed_stores`` is the per-entry ``tmp+rename`` traffic.
    """

    hits: int
    misses: int
    errors: int
    stores: int
    skipped_stores: int
    pack_commits: int = 0
    packed_stores: int = 0

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
            packed_stores=self.packed_stores - before.packed_stores,
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
        # Counter lock only: file operations themselves are safe via
        # atomic rename, but SimulationCache calls load()/store()
        # outside its own lock, so the diagnostics need their own.
        self._counter_lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._errors = 0
        self._stores = 0
        self._skipped_stores = 0
        self._pack_commits = 0
        self._packed_stores = 0
        # The persistent manifest: loaded once here instead of stat-ing
        # per entry, appended on store, rebuilt from a directory walk
        # when absent or corrupt. Advisory throughout — every consumer
        # below falls back to the directory when it disagrees.
        self._index = DiskCacheIndex.attach(self._dir, schema_fingerprint())

    def _count(self, counter: str) -> None:
        with self._counter_lock:
            setattr(self, counter, getattr(self, counter) + 1)

    @property
    def schema_dir(self) -> Path:
        """The versioned directory current-generation entries live in."""
        return self._dir

    @property
    def index(self) -> DiskCacheIndex:
        """The persistent manifest (advisory; the store is the truth)."""
        return self._index

    def entry_path(self, key: Hashable) -> Path:
        """Where ``key``'s *loose* entry lives (whether or not it exists
        yet; the entry may instead live inside a pack — see
        :meth:`store_batch`)."""
        digest = key_digest(key)
        return self._dir / digest[:2] / f"{digest}.pkl"

    def contains(self, key: Hashable) -> bool:
        """Whether an entry for ``key`` exists (no load, no counters).

        Resolved against the in-memory index first (a dictionary probe,
        no I/O); a negative answer re-reads the manifest tail once (a
        concurrent process may have stored since) and finally falls
        back to the loose-file ``stat`` the pre-index code used, so a
        lost index record degrades to the old cost, never to a wrong
        ``False`` for a loose entry. A stale ``True`` (e.g. a corrupt
        file behind an index record) is harmless: the excluded cell
        simply takes the normal per-cell lookup path, which detects the
        corruption and recomputes.
        """
        try:
            digest = key_digest(key)
        except TypeError:
            # Same contract as load(): a key the canonical serializer
            # can't digest lives memory-only.
            return False
        return self._contains_digest(digest)

    def _contains_digest(self, digest: str) -> bool:
        if self._index.contains(digest):
            return True
        self._index.refresh()
        if self._index.contains(digest):
            return True
        return (self._dir / digest[:2] / f"{digest}.pkl").is_file()

    def load(self, key: Hashable, count: bool = True) -> Optional[Any]:
        """The stored value for ``key``, or ``None``.

        Packed entries are read straight out of their pack segment (one
        seek + read); loose entries from their ``.pkl`` file. Any
        failure mode — missing file, truncated pickle, foreign payload,
        key mismatch after a digest collision — is a miss; corrupt
        loose files are removed best-effort, corrupt pack records are
        dropped from the index, and a packed read that fails falls back
        to the loose path before giving up. ``count=False`` performs
        the same load without moving the hit/miss counters — the
        prefetch path, which warms entries *ahead* of lookups and must
        not make one lookup count twice.
        """
        try:
            digest = key_digest(key)
        except TypeError:
            # A hashable key component the canonical serializer doesn't
            # know (possible through the public `extra` slot): such keys
            # live memory-only rather than failing the lookup.
            if count:
                self._count("_misses")
            return None
        record = self._index.get(digest)
        if record is not None and record.packed:
            try:
                payload = pickle.loads(
                    read_pack_payload(
                        self._dir, record.pack, record.offset, record.length
                    )
                )
                value = self._validate_payload(payload, key)
            except Exception:
                # Damaged pack region (or a pack another process
                # compacted away): drop the record and try loose.
                if count:
                    self._count("_errors")
                self._index.record_remove(digest)
            else:
                self._index.record_touch(digest, time.time())
                if count:
                    self._count("_hits")
                return value
        path = self._dir / digest[:2] / f"{digest}.pkl"
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
            value = self._validate_payload(payload, key)
        except FileNotFoundError:
            if record is not None and not record.packed:
                self._index.record_remove(digest)  # stale manifest line
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
            self._index.record_remove(digest)
            return None
        try:
            # LRU bookkeeping for prune_cache_dir: a hit refreshes the
            # entry's mtime so recently *used* entries outlive recently
            # *written* ones under a byte budget. Best-effort — a
            # read-only directory still serves hits, it just ages.
            os.utime(path, None)
        except OSError:
            pass
        self._index.record_touch(digest, time.time())
        if count:
            self._count("_hits")
        return value

    @staticmethod
    def _validate_payload(payload: Any, key: Hashable) -> Any:
        """The value inside one unpickled entry payload (or raise)."""
        if (
            not isinstance(payload, dict)
            or payload.get("format") != ENTRY_FORMAT_VERSION
            or payload.get("fingerprint") != schema_fingerprint()
        ):
            raise ValueError("unrecognized entry payload")
        if payload["key"] != key:
            raise ValueError("entry key does not match its digest")
        return payload["value"]

    def store(self, key: Hashable, value: Any) -> bool:
        """Persist ``value`` under ``key``; returns whether bytes moved.

        Entries are immutable (pure-function results), so an existing
        entry — loose or packed — is left alone. The write lands in a
        unique temp file next to its final path and is published with
        an atomic rename, so concurrent writers and readers never
        observe partial entries; the manifest learns about it with one
        appended line.
        """
        try:
            digest = key_digest(key)
        except TypeError:
            # Same contract as load(): a key the canonical serializer
            # can't digest stays memory-only.
            self._count("_errors")
            return False
        if self._contains_digest(digest):
            self._count("_skipped_stores")
            return False
        path = self._dir / digest[:2] / f"{digest}.pkl"
        payload = {
            "format": ENTRY_FORMAT_VERSION,
            "fingerprint": schema_fingerprint(),
            "key": key,
            "value": value,
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                prefix=f".{path.stem}.{os.getpid()}.", suffix=".tmp",
                dir=path.parent,
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(payload, handle, protocol=_PICKLE_PROTOCOL)
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
        try:
            stat = path.stat()
            self._index.record_store(digest, stat.st_size, stat.st_mtime)
        except OSError:
            pass  # advisory — the next attach rebuilds from the walk
        self._count("_stores")
        return True

    def store_batch(self, items: Sequence[Tuple[Hashable, Any]]) -> int:
        """Group-commit a delta of ``(key, value)`` pairs; entries written.

        Entries already on disk (either format) are skipped exactly as
        :meth:`store` skips them. When enough new entries remain
        (:data:`PACK_MIN_ENTRIES`) and packing is not disabled
        (:data:`PACK_DISABLE_ENV`), the whole delta lands as **one**
        pack file — one buffered write, one ``fsync``, one rename, one
        manifest append — instead of N ``tmp+rename`` round-trips.
        Small deltas, disabled packing, or a pack-write failure fall
        back to the per-entry path; either way the loaded-back bytes
        are identical (the pack payload *is* the loose pickle).
        """
        fresh: List[Tuple[str, Hashable, Any]] = []
        seen: set = set()
        for key, value in items:
            try:
                digest = key_digest(key)
            except TypeError:
                self._count("_errors")
                continue
            if digest in seen:
                continue
            seen.add(digest)
            if self._contains_digest(digest):
                self._count("_skipped_stores")
                continue
            fresh.append((digest, key, value))
        if not fresh:
            return 0
        if len(fresh) < PACK_MIN_ENTRIES or not packing_enabled():
            return sum(
                1 for _digest, key, value in fresh if self.store(key, value)
            )
        try:
            payloads = [
                (digest, encode_entry_payload(key, value))
                for digest, key, value in fresh
            ]
            pack_name, locations = write_pack(self._dir, payloads)
        except (OSError, pickle.PicklingError):
            # Same degradation as store(): a failed group commit must
            # not lose the delta — retry entry by entry.
            return sum(
                1 for _digest, key, value in fresh if self.store(key, value)
            )
        self._index.record_pack(pack_name, locations, time.time())
        with self._counter_lock:
            self._stores += len(fresh)
            self._packed_stores += len(fresh)
            self._pack_commits += 1
        return len(fresh)

    def entry_count(self) -> int:
        """Number of complete entries in the current schema generation
        (loose and packed; resolved through the manifest)."""
        self._index.refresh()
        return self._index.entry_count()

    def storage_snapshot(self) -> Dict[str, Any]:
        """On-disk shape of the current schema generation (one walk).

        The observability surface behind ``repro cache stats`` and the
        serve daemon's status report: loose/packed entry counts, pack
        and index file counts and sizes, and total bytes. Counts come
        from the directory (the truth), not the manifest — the
        ``index_entries`` field lets the two be compared.
        """
        self._index.refresh()
        loose_entries = loose_bytes = 0
        for path in self._dir.glob("*/*.pkl"):
            try:
                loose_bytes += path.stat().st_size
            except OSError:
                continue
            loose_entries += 1
        pack_files = pack_bytes = packed_entries = 0
        packs = pack_dir(self._dir)
        if packs.is_dir():
            for path in packs.glob("*.pack"):
                try:
                    pack_bytes += path.stat().st_size
                except OSError:
                    continue
                pack_files += 1
                packed_entries += sum(1 for _ in scan_pack(path))
        try:
            index_bytes = self._index.path.stat().st_size
        except OSError:
            index_bytes = 0
        return {
            "root": str(self.root),
            "schema_dir": str(self._dir),
            "loose_entries": loose_entries,
            "loose_bytes": loose_bytes,
            "pack_files": pack_files,
            "packed_entries": packed_entries,
            "pack_bytes": pack_bytes,
            "index_entries": self._index.entry_count(),
            "index_bytes": index_bytes,
            "total_bytes": loose_bytes + pack_bytes + index_bytes,
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
            packed_stores=self._packed_stores,
        )


#: In-flight writes live seconds; a ``.tmp`` file older than this is a
#: crashed writer's leftover and safe to reclaim.
STALE_TMP_AGE_S = 3600.0


@dataclass(frozen=True)
class PruneReport:
    """What one :func:`prune_cache_dir` pass scanned and removed."""

    scanned_entries: int
    scanned_bytes: int
    removed_entries: int
    removed_bytes: int
    removed_tmp_files: int
    kept_entries: int
    kept_bytes: int
    #: Pack files rewritten to drop evicted entries (a pack whose every
    #: entry was evicted is simply unlinked and not counted here).
    compacted_packs: int = 0

    def describe(self) -> str:
        """One human-readable summary line."""
        return (
            f"pruned {self.removed_entries} of {self.scanned_entries} "
            f"entries ({self.removed_bytes} of {self.scanned_bytes} bytes)"
            f"{f' + {self.removed_tmp_files} stale tmp file(s)' if self.removed_tmp_files else ''}"
            f"{f' + {self.compacted_packs} pack(s) compacted' if self.compacted_packs else ''}; "
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


def _schema_fingerprint_of(directory: Path) -> str:
    """The fingerprint embedded in a schema directory's name."""
    name = directory.name
    return name.split("-", 1)[1] if "-" in name else ""


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
    ``max_bytes``. The recency signal is the entry file's mtime for
    loose entries (loads refresh it) and the index's last-access time
    for packed entries (pack reads cannot touch a per-entry file — the
    manifest's touch records stand in). All schema generations under
    ``root`` are considered — entries from an older code generation are
    unreachable anyway and age out naturally (their recency stops
    refreshing). Stale in-flight ``.tmp`` files are always reclaimed.

    Packs participate entry-by-entry: a pack whose every entry is
    evicted is unlinked whole; a partially evicted pack is *compacted*
    — its surviving entries are rewritten into a fresh pack and the old
    file removed — so the byte budget is actually honored, not merely
    promised. Each touched schema generation's manifest is rebuilt
    afterwards (and deleted when the generation empties out).

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
    # One work item per entry: (recency, size, descriptor); a
    # descriptor is ("loose", path) or ("packed", schema_dir, pack
    # name, offset, length).
    entries: List[Tuple[float, int, Tuple]] = []
    indexes: Dict[Path, DiskCacheIndex] = {}
    if root.is_dir():
        for path in root.rglob("*"):
            try:
                if not path.is_file():
                    continue
                stat = path.stat()
            except OSError:
                continue
            if path.name.endswith(".tmp"):
                if now - stat.st_mtime > STALE_TMP_AGE_S:
                    try:
                        path.unlink()
                        removed_tmp += 1
                    except OSError:
                        pass
                continue
            if path.suffix == ".pkl":
                entries.append(
                    (stat.st_mtime, stat.st_size, ("loose", path))
                )
        for schema_dir in sorted(p for p in root.iterdir() if p.is_dir()):
            packs = pack_dir(schema_dir)
            if not packs.is_dir():
                continue
            index = DiskCacheIndex(
                schema_dir, _schema_fingerprint_of(schema_dir)
            )
            index.load()  # best-effort; atimes default to pack mtime
            indexes[schema_dir] = index
            for path in sorted(packs.glob("*.pack")):
                try:
                    pack_mtime = path.stat().st_mtime
                except OSError:
                    continue
                for digest, offset, length in scan_pack(path):
                    record = index.get(digest)
                    atime = (
                        record.atime
                        if record is not None and record.atime > pack_mtime
                        else pack_mtime
                    )
                    entries.append(
                        (
                            atime,
                            length,
                            ("packed", schema_dir, path.name, offset, length),
                        )
                    )
    entries.sort(key=lambda item: item[0])  # oldest (least recent) first
    scanned = len(entries)
    scanned_bytes = sum(size for _, size, _ in entries)
    victims = []
    survivors = []
    for recency, size, descriptor in entries:
        if max_age_s is not None and now - recency > max_age_s:
            victims.append((size, descriptor))
        else:
            survivors.append((size, descriptor))
    if max_bytes is not None:
        kept_bytes = sum(size for size, _ in survivors)
        index_pos = 0  # survivors are still oldest-first
        while kept_bytes > max_bytes and index_pos < len(survivors):
            size, descriptor = survivors[index_pos]
            victims.append((size, descriptor))
            kept_bytes -= size
            index_pos += 1
        survivors = survivors[index_pos:]
    removed = removed_bytes = 0
    touched_dirs: set = set()
    # Loose victims: plain unlinks.
    packed_victims: Dict[Tuple[Path, str], set] = {}
    for size, descriptor in victims:
        if descriptor[0] == "loose":
            _kind, path = descriptor
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
            removed_bytes += size
            # .../<schema_dir>/<shard>/<digest>.pkl
            touched_dirs.add(path.parent.parent)
        else:
            _kind, schema_dir, pack_name, offset, _length = descriptor
            packed_victims.setdefault((schema_dir, pack_name), set()).add(
                offset
            )
    # Packed victims: unlink fully dead packs, compact the rest.
    compacted = 0
    for (schema_dir, pack_name), dead_offsets in packed_victims.items():
        path = pack_dir(schema_dir) / pack_name
        records = list(scan_pack(path))
        dead = [r for r in records if r[1] in dead_offsets]
        keep = [r for r in records if r[1] not in dead_offsets]
        try:
            if keep:
                payloads = [
                    (
                        digest,
                        read_pack_payload(schema_dir, pack_name, offset, length),
                    )
                    for digest, offset, length in keep
                ]
                write_pack(schema_dir, payloads)
                compacted += 1
            path.unlink()
        except OSError:
            continue  # pack left whole; its entries simply survive
        removed += len(dead)
        removed_bytes += sum(length for _, _, length in dead)
        touched_dirs.add(schema_dir)
    # Rebuild each touched generation's manifest from the new on-disk
    # truth (preserving known access times); an emptied generation
    # drops its manifest so the directory tree can be cleaned fully.
    for schema_dir in sorted(touched_dirs):
        index = indexes.get(schema_dir)
        if index is None:
            if not (schema_dir / INDEX_NAME).is_file():
                continue  # pre-index legacy dir: nothing to maintain
            index = DiskCacheIndex(
                schema_dir, _schema_fingerprint_of(schema_dir)
            )
            index.load()
        if index.rebuild() == 0:
            try:
                index.path.unlink()
            except OSError:
                pass
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
        compacted_packs=compacted,
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
