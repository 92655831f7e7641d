"""Tests for the disk-backed simulation cache tier.

The load-bearing invariant (ISSUE 3): entries that round-trip through
the on-disk store must be *bit-identical* to freshly computed results —
for every shape a ``KernelTiming`` field can take — and a damaged entry
file must degrade to a recompute, never a crash or a wrong answer.
"""

import pickle

import numpy as np
import pytest

from repro.core.schemes import parse_scheme
from repro.experiments.grid import run_grid
from repro.sim import diskcache
from repro.sim.cache import (
    SimulationCache,
    clear_simulation_cache,
    configure_simulation_cache_dir,
    results_bit_equal,
    simulation_cache_dir,
    simulation_cache_disk,
    simulation_cache_stats,
    simulation_key,
)
from repro.sim.diskcache import (
    DiskCache,
    key_digest,
    open_disk_cache,
    schema_fingerprint,
)
from repro.sim.pipeline import (
    DRAM_EFFICIENCY,
    InvocationMode,
    KernelTiming,
    simulate_tile_stream,
)
from repro.sim.system import ddr_system, hbm_system


@pytest.fixture(autouse=True)
def _memory_only_after():
    """Detach any disk tier a test attached to the process-wide cache."""
    yield
    configure_simulation_cache_dir(None)
    clear_simulation_cache()


def _timing_cases():
    """One KernelTiming per field shape the cache key must survive."""
    return {
        "scalar": KernelTiming(bytes_per_tile=300.0, dec_cycles=20.0),
        "list": KernelTiming(
            bytes_per_tile=[300.0, 280.0, 310.0], dec_cycles=20.0
        ),
        "ndarray": KernelTiming(
            bytes_per_tile=np.linspace(250.0, 350.0, 16), dec_cycles=20.0
        ),
        "zero_d_array": KernelTiming(
            bytes_per_tile=np.float64(300.0), dec_cycles=np.array(20.0)
        ),
        "enum": KernelTiming(
            bytes_per_tile=300.0, dec_cycles=20.0,
            mode=InvocationMode.SERIALIZED, invoke_cycles=20.0,
            fence_cycles=10.0, handoff_cycles=12.0,
            loader_latency_cycles=10.0,
        ),
        "no_decompress": KernelTiming(bytes_per_tile=300.0, dec_cycles=0.0),
    }


class TestRoundTrip:
    @pytest.mark.parametrize("shape", sorted(_timing_cases()))
    def test_every_field_shape_survives_disk(self, tmp_path, hbm, shape):
        """serialize -> deserialize is bit-exact for each field shape."""
        timing = _timing_cases()[shape]
        configure_simulation_cache_dir(str(tmp_path))
        clear_simulation_cache()
        computed = simulate_tile_stream(hbm, timing, tiles=64)
        # Drop the memory tier; the only way back is through the disk.
        clear_simulation_cache()
        reloaded = simulate_tile_stream(hbm, timing, tiles=64)
        assert results_bit_equal(computed, reloaded)
        stats = simulation_cache_stats()
        assert (stats.misses, stats.disk_hits) == (0, 1)
        assert stats.hit_rate == 1.0

    @pytest.mark.parametrize("shape", sorted(_timing_cases()))
    def test_reloaded_traces_are_frozen(self, tmp_path, hbm, shape):
        timing = _timing_cases()[shape]
        configure_simulation_cache_dir(str(tmp_path))
        clear_simulation_cache()
        simulate_tile_stream(hbm, timing, tiles=64)
        clear_simulation_cache()
        reloaded = simulate_tile_stream(hbm, timing, tiles=64)
        for array in (reloaded.trace.mtx_done, reloaded.trace.fetch_issue):
            assert not array.flags.writeable

    def test_equal_keys_share_one_entry_across_value_kinds(self, tmp_path):
        # The freeze rules make an equal list and array the same key, and
        # two equal systems the same key; the disk digest must agree.
        disk = DiskCache(tmp_path)
        timing_list = KernelTiming(
            bytes_per_tile=[300.0, 280.0], dec_cycles=20.0
        )
        timing_array = KernelTiming(
            bytes_per_tile=np.array([300.0, 280.0]), dec_cycles=20.0
        )
        key_a = simulation_key(hbm_system(), timing_list, 64)
        key_b = simulation_key(hbm_system(), timing_array, 64)
        assert key_a == key_b
        assert key_digest(key_a) == key_digest(key_b)
        assert disk.entry_path(key_a) == disk.entry_path(key_b)

    def test_distinct_keys_get_distinct_paths(self, tmp_path):
        disk = DiskCache(tmp_path)
        base = KernelTiming(bytes_per_tile=300.0, dec_cycles=20.0)
        keys = [
            simulation_key(hbm_system(), base, 64),
            simulation_key(ddr_system(), base, 64),
            simulation_key(hbm_system(), base, 65),
            simulation_key(hbm_system(), base, 64, extra=DRAM_EFFICIENCY),
            simulation_key(
                hbm_system(),
                KernelTiming(bytes_per_tile=300.0, dec_cycles=21.0),
                64,
            ),
        ]
        paths = {disk.entry_path(key) for key in keys}
        assert len(paths) == len(keys)

    def test_digest_is_structure_sensitive(self):
        # Length-prefixed serialization: regrouping bytes across fields
        # must not collide.
        assert key_digest(("ab", "c")) != key_digest(("a", "bc"))
        assert key_digest((1.0,)) != key_digest((1,))
        assert key_digest(None) != key_digest((None,))


class TestCorruption:
    def _entry_path(self, hbm, timing, tmp_path):
        configure_simulation_cache_dir(str(tmp_path))
        clear_simulation_cache()
        simulate_tile_stream(hbm, timing, tiles=64)
        disk = simulation_cache_disk()
        key = simulation_key(hbm, timing, 64, extra=DRAM_EFFICIENCY)
        path = disk.entry_path(key)
        assert path.exists()
        return disk, path

    @pytest.mark.parametrize(
        "damage",
        ["garbage", "truncated", "empty", "wrong_payload"],
    )
    def test_damaged_entry_recomputes(self, tmp_path, hbm, damage):
        timing = KernelTiming(bytes_per_tile=300.0, dec_cycles=20.0)
        disk, path = self._entry_path(hbm, timing, tmp_path)
        reference = simulate_tile_stream(hbm, timing, tiles=64)
        if damage == "garbage":
            path.write_bytes(b"\x00not a pickle")
        elif damage == "truncated":
            path.write_bytes(path.read_bytes()[:-20])
        elif damage == "empty":
            path.write_bytes(b"")
        else:
            path.write_bytes(pickle.dumps({"surprise": 1}))
        clear_simulation_cache()
        recomputed = simulate_tile_stream(hbm, timing, tiles=64)
        assert results_bit_equal(reference, recomputed)
        stats = simulation_cache_stats()
        assert (stats.misses, stats.disk_hits) == (1, 0)
        assert disk.stats().errors >= 1

    def test_key_mismatch_is_a_miss(self, tmp_path, hbm):
        # A digest collision (or renamed file) unpickles fine but carries
        # another key; the stored-key check must reject it.
        timing = KernelTiming(bytes_per_tile=300.0, dec_cycles=20.0)
        other = KernelTiming(bytes_per_tile=301.0, dec_cycles=20.0)
        disk, path = self._entry_path(hbm, timing, tmp_path)
        other_key = simulation_key(hbm, other, 64, extra=DRAM_EFFICIENCY)
        other_path = disk.entry_path(other_key)
        other_path.parent.mkdir(parents=True, exist_ok=True)
        other_path.write_bytes(path.read_bytes())
        assert disk.load(other_key) is None

    def test_undigestable_key_stays_memory_only(self, tmp_path, hbm):
        # `extra` is typed Hashable: a component the canonical
        # serializer doesn't know must degrade to memory-only caching,
        # not crash the sweep.
        configure_simulation_cache_dir(str(tmp_path))
        clear_simulation_cache()
        timing = KernelTiming(bytes_per_tile=300.0, dec_cycles=20.0)
        from repro.sim.cache import cached_tile_stream

        exotic = frozenset({1.0})
        first = cached_tile_stream(
            hbm, timing, 64,
            lambda: simulate_tile_stream(hbm, timing, 64, use_cache=False),
            extra=exotic,
        )
        again = cached_tile_stream(
            hbm, timing, 64,
            lambda: simulate_tile_stream(hbm, timing, 64, use_cache=False),
            extra=exotic,
        )
        assert results_bit_equal(first, again)
        stats = simulation_cache_stats()
        assert (stats.misses, stats.hits) == (1, 1)  # memory tier works
        assert simulation_cache_disk().entry_count() == 0

    def test_damaged_entry_is_replaced(self, tmp_path, hbm):
        timing = KernelTiming(bytes_per_tile=300.0, dec_cycles=20.0)
        disk, path = self._entry_path(hbm, timing, tmp_path)
        path.write_bytes(b"garbage")
        clear_simulation_cache()
        simulate_tile_stream(hbm, timing, tiles=64)
        clear_simulation_cache()
        reloaded = simulate_tile_stream(hbm, timing, tiles=64)
        assert simulation_cache_stats().disk_hits == 1
        assert reloaded.tiles == 64


class TestVersioning:
    def test_schema_directory_embeds_fingerprint(self, tmp_path):
        disk = DiskCache(tmp_path)
        assert disk.schema_dir.name == f"v1-{schema_fingerprint()}"

    def test_foreign_schema_generation_is_ignored(self, tmp_path, hbm):
        # Entries from a hypothetical older code generation live in a
        # sibling directory and are never read.
        stale = tmp_path / "v1-000000000000" / "ab" / ("a" * 64 + ".pkl")
        stale.parent.mkdir(parents=True)
        stale.write_bytes(b"stale generation")
        configure_simulation_cache_dir(str(tmp_path))
        clear_simulation_cache()
        timing = KernelTiming(bytes_per_tile=300.0, dec_cycles=20.0)
        simulate_tile_stream(hbm, timing, tiles=64)
        assert simulation_cache_stats().misses == 1
        assert stale.exists()  # untouched

    def test_previous_model_revision_entries_are_not_served(
        self, tmp_path, hbm, monkeypatch
    ):
        # A cache warmed by the previous model revision lives under the
        # old fingerprint directory; the current code must recompute
        # every cell instead of replaying old-model results.
        schemes = (parse_scheme("Q4"), parse_scheme("Q8_5%"))
        with monkeypatch.context() as old_model:
            old_model.setattr(diskcache, "_SCHEMA_FINGERPRINT", None)
            old_model.setattr(
                diskcache, "MODEL_REVISION", diskcache.MODEL_REVISION - 1
            )
            old_dir = f"v1-{schema_fingerprint()}"
            configure_simulation_cache_dir(str(tmp_path))
            clear_simulation_cache()
            run_grid(systems=(hbm,), schemes=schemes, tiles=64)
            old_entries = simulation_cache_disk().entry_count()
            configure_simulation_cache_dir(None)
        assert old_entries > 0

        configure_simulation_cache_dir(str(tmp_path))
        clear_simulation_cache()
        warm = run_grid(systems=(hbm,), schemes=schemes, tiles=64)
        stats = simulation_cache_stats()
        assert stats.disk_hits == 0
        assert stats.misses > 0
        disk = simulation_cache_disk()
        assert disk.schema_dir.name == f"v1-{schema_fingerprint()}"
        assert disk.schema_dir.name != old_dir
        assert (tmp_path / old_dir).is_dir()
        assert disk.entry_count() == old_entries

        configure_simulation_cache_dir(None)
        clear_simulation_cache()
        cold = run_grid(systems=(hbm,), schemes=schemes, tiles=64)
        assert warm == cold

    def test_tampered_fingerprint_field_is_rejected(self, tmp_path, hbm):
        timing = KernelTiming(bytes_per_tile=300.0, dec_cycles=20.0)
        configure_simulation_cache_dir(str(tmp_path))
        clear_simulation_cache()
        simulate_tile_stream(hbm, timing, tiles=64)
        disk = simulation_cache_disk()
        key = simulation_key(hbm, timing, 64, extra=DRAM_EFFICIENCY)
        path = disk.entry_path(key)
        payload = pickle.loads(path.read_bytes())
        payload["fingerprint"] = "feedfacecafe"
        path.write_bytes(pickle.dumps(payload))
        assert disk.load(key) is None


class TestTiering:
    def test_eviction_falls_back_to_disk(self, tmp_path, hbm):
        # An entry evicted from a tiny LRU is still one disk read away.
        disk = DiskCache(tmp_path)
        cache = SimulationCache(maxsize=1, disk=disk)
        calls = []

        def compute(tag):
            def body():
                calls.append(tag)
                return {"tag": tag}
            return body

        assert cache.get_or_compute("a", compute("a")) == {"tag": "a"}
        assert cache.get_or_compute("b", compute("b")) == {"tag": "b"}
        # "a" was evicted from memory but lives on disk.
        assert cache.get_or_compute("a", compute("a2")) == {"tag": "a"}
        assert calls == ["a", "b"]
        stats = cache.stats()
        assert (stats.misses, stats.disk_hits, stats.size) == (2, 1, 1)

    def test_merge_spills_inserted_entries_to_disk(self, tmp_path):
        disk = DiskCache(tmp_path)
        cache = SimulationCache(maxsize=8, disk=disk)
        cache.merge_entries([("k1", {"v": 1}), ("k2", {"v": 2})])
        assert disk.entry_count() == 2
        assert disk.load("k1") == {"v": 1}

    def test_store_skips_existing_entries(self, tmp_path):
        disk = DiskCache(tmp_path)
        assert disk.store("k", {"v": 1}) is True
        assert disk.store("k", {"v": 1}) is False
        assert disk.stats().skipped_stores == 1
        assert disk.entry_count() == 1

    def test_clear_keeps_disk(self, tmp_path, hbm):
        configure_simulation_cache_dir(str(tmp_path))
        clear_simulation_cache()
        timing = KernelTiming(bytes_per_tile=300.0, dec_cycles=20.0)
        simulate_tile_stream(hbm, timing, tiles=64)
        disk = simulation_cache_disk()
        clear_simulation_cache()
        assert simulation_cache_stats().size == 0
        assert disk.entry_count() == 1


class TestConfiguration:
    def test_unusable_path_warns_and_degrades(self, tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("not a directory")
        with pytest.warns(RuntimeWarning, match="in-memory cache only"):
            disk = open_disk_cache(blocker / "cache")
        assert disk is None

    def test_configure_unusable_path_is_memory_only(self, tmp_path, hbm):
        blocker = tmp_path / "a-file"
        blocker.write_text("not a directory")
        with pytest.warns(RuntimeWarning):
            assert configure_simulation_cache_dir(str(blocker)) is None
        assert simulation_cache_dir() is None
        timing = KernelTiming(bytes_per_tile=300.0, dec_cycles=20.0)
        clear_simulation_cache()
        simulate_tile_stream(hbm, timing, tiles=64)
        assert simulation_cache_stats().misses == 1

    def test_configure_none_detaches(self, tmp_path):
        configure_simulation_cache_dir(str(tmp_path))
        assert simulation_cache_dir() == str(tmp_path)
        assert configure_simulation_cache_dir(None) is None
        assert simulation_cache_dir() is None
