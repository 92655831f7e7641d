"""Tests for disk-cache garbage collection (``prune_cache_dir``).

The disk tier used to be append-only; these tests pin the eviction
contract: LRU by *use* (loads refresh mtime), age and byte budgets,
stale-tmp and retired-format reclamation, and the CLI/env front doors.
"""

import os
import time

import pytest

from repro.sim.diskcache import (
    DiskCache,
    PruneReport,
    STALE_TMP_AGE_S,
    prune_cache_dir,
)


def _age(path, seconds):
    """Backdate a file's mtime by ``seconds``."""
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


def _make_entries(root, count, payload_size=100):
    """Store ``count`` distinct entries; returns their file paths."""
    cache = DiskCache(root)
    paths = []
    for i in range(count):
        key = ("prune-test", i)
        assert cache.store(key, "x" * payload_size)
        paths.append(cache.entry_path(key))
    return cache, paths


def _plant_retired_format_files(schema_dir):
    """Files the retired pack format left in a schema generation."""
    packs = schema_dir / "packs"
    packs.mkdir()
    pack = packs / "0123abcd.pack"
    pack.write_bytes(b"RPAK" + b"\x00" * 200)
    index = schema_dir / "index.repri"
    index.write_bytes(b"repri 1 000000000000\n")
    return [pack, index]


class TestPruneCacheDir:
    def test_missing_root_yields_zero_report(self, tmp_path):
        report = prune_cache_dir(tmp_path / "never-created", max_bytes=0)
        assert report == PruneReport(0, 0, 0, 0, 0, 0, 0)

    def test_max_bytes_zero_empties_the_store(self, tmp_path):
        _make_entries(tmp_path, 3)
        report = prune_cache_dir(tmp_path, max_bytes=0)
        assert report.scanned_entries == 3
        assert report.removed_entries == 3
        assert report.kept_entries == 0
        assert report.kept_bytes == 0
        assert not list(tmp_path.rglob("*.pkl"))
        # The directory itself survives and keeps accepting entries.
        cache = DiskCache(tmp_path)
        assert cache.store(("fresh",), "value")

    def test_oldest_entries_evicted_first(self, tmp_path):
        _, paths = _make_entries(tmp_path, 3)
        _age(paths[0], 300)
        _age(paths[1], 200)
        _age(paths[2], 100)
        total = sum(p.stat().st_size for p in paths)
        budget = total - 1  # forces out exactly the oldest entry
        report = prune_cache_dir(tmp_path, max_bytes=budget)
        assert report.removed_entries == 1
        assert not paths[0].exists()
        assert paths[1].exists() and paths[2].exists()
        assert report.kept_bytes <= budget

    def test_max_age_evicts_unconditionally(self, tmp_path):
        _, paths = _make_entries(tmp_path, 3)
        _age(paths[0], 9000)
        _age(paths[1], 9000)
        report = prune_cache_dir(tmp_path, max_age_s=3600)
        assert report.removed_entries == 2
        assert paths[2].exists()

    def test_load_refreshes_mtime_so_hot_entries_survive(self, tmp_path):
        cache, paths = _make_entries(tmp_path, 2)
        _age(paths[0], 500)
        _age(paths[1], 100)
        # Entry 0 is older on disk — but a hit marks it recently used.
        assert cache.load(("prune-test", 0)) is not None
        total = sum(p.stat().st_size for p in paths)
        report = prune_cache_dir(tmp_path, max_bytes=total - 1)
        assert report.removed_entries == 1
        assert paths[0].exists()      # hot entry survived
        assert not paths[1].exists()  # cold one was evicted

    def test_stale_tmp_files_reclaimed(self, tmp_path):
        cache, _ = _make_entries(tmp_path, 1)
        shard = cache.schema_dir / "ab"
        shard.mkdir(exist_ok=True)
        stale = shard / ".deadbeef.123.tmp"
        stale.write_bytes(b"partial")
        _age(stale, STALE_TMP_AGE_S + 10)
        fresh = shard / ".cafef00d.456.tmp"
        fresh.write_bytes(b"in flight")
        report = prune_cache_dir(tmp_path)
        assert report.removed_tmp_files == 1
        assert not stale.exists()
        assert fresh.exists()  # a live writer's file is left alone
        assert report.removed_entries == 0  # no budget given, no eviction

    def test_emptied_shard_dirs_are_cleaned(self, tmp_path):
        cache, paths = _make_entries(tmp_path, 1)
        shard_dir = paths[0].parent
        prune_cache_dir(tmp_path, max_bytes=0)
        assert not shard_dir.exists()
        assert tmp_path.exists()

    def test_negative_limits_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            prune_cache_dir(tmp_path, max_bytes=-1)
        with pytest.raises(ValueError):
            prune_cache_dir(tmp_path, max_age_s=-0.5)

    def test_report_describe_is_one_line(self, tmp_path):
        _make_entries(tmp_path, 2)
        report = prune_cache_dir(tmp_path, max_bytes=0)
        text = report.describe()
        assert "\n" not in text
        assert "2 of 2" in text

    def test_recently_read_batch_entry_survives_byte_budget(self, tmp_path):
        # Commit a delta in one store_batch call, then age every entry.
        cache = DiskCache(tmp_path)
        keys = [("prune-batch", i) for i in range(8)]
        assert cache.store_batch([(k, "x" * 100) for k in keys]) == 8
        assert cache.stats().pack_commits == 1
        for key in keys:
            _age(cache.entry_path(key), 500)
        # A fresh handle reading one entry marks it recently used.
        fresh = DiskCache(tmp_path)
        assert fresh.load(keys[3]) is not None
        size = fresh.entry_path(keys[3]).stat().st_size
        report = prune_cache_dir(tmp_path, max_bytes=size)
        assert report.removed_entries == 7
        survivor = DiskCache(tmp_path)
        assert survivor.load(keys[3]) is not None
        assert all(not survivor.contains(k) for k in keys if k != keys[3])

    def test_fully_dead_pack_is_unlinked_whole(self, tmp_path):
        # A pack an older checkout wrote is never read by this code, so
        # a prune removes the whole file along with the evicted entries.
        cache, _ = _make_entries(tmp_path, 2)
        pack = _plant_retired_format_files(cache.schema_dir)[0]
        report = prune_cache_dir(tmp_path, max_bytes=0)
        assert report.removed_entries == 2
        assert not pack.exists()
        assert not list(tmp_path.rglob("*.pack"))
        assert not list(tmp_path.rglob("index.repri"))

    def test_retired_pack_and_index_files_are_reclaimed(self, tmp_path):
        # Without any budget, leftovers of the retired pack format go
        # while every loose entry stays.
        cache, paths = _make_entries(tmp_path, 2)
        leftovers = _plant_retired_format_files(cache.schema_dir)
        report = prune_cache_dir(tmp_path)
        assert report.removed_tmp_files == len(leftovers)
        assert report.removed_entries == 0
        assert report.kept_entries == 2
        assert not any(path.exists() for path in leftovers)
        assert not (cache.schema_dir / "packs").exists()
        assert all(path.exists() for path in paths)
        assert DiskCache(tmp_path).entry_count() == 2

    def test_old_schema_generations_age_out(self, tmp_path):
        # A directory from an older code generation is unreachable by
        # the running code; its entries stop being touched and fall to
        # the age budget like any cold entry.
        _make_entries(tmp_path, 1)
        legacy = tmp_path / "v0-deadbeef0000" / "aa"
        legacy.mkdir(parents=True)
        old_entry = legacy / "aa00.pkl"
        old_entry.write_bytes(b"legacy pickle")
        _age(old_entry, 9000)
        report = prune_cache_dir(tmp_path, max_age_s=3600)
        assert not old_entry.exists()
        assert not legacy.exists()
        assert report.removed_entries == 1
