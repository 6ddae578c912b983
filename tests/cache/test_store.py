"""The two cache tiers and their facade: bounds, degradation, counters.

The disk tier's clock is injected so stale-temp reaping is tested
deterministically; disk-tier robustness (corrupt entries, unwritable
roots, unpicklable values) must always degrade to a miss, never to an
exception or a wrong value.
"""

from __future__ import annotations

import dataclasses
import inspect
import os

import pytest

from repro import obs
from repro.cache.config import CACHE_DIR_ENV, CacheConfig, default_cache_dir
from repro.cache.store import DiskTier, MemoryTier, ResultCache
from repro.util.atomic import TMP_PREFIX
from repro.util.errors import CacheError


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now


class TestConfig:
    def test_validation(self):
        with pytest.raises(CacheError, match="memory_entries"):
            CacheConfig(memory_entries=-1)
        with pytest.raises(CacheError, match="disk_bytes"):
            CacheConfig(disk_bytes=-1)

    def test_settable_values(self):
        # sizes and a location only: no expiry, no key salt
        assert [f.name for f in dataclasses.fields(CacheConfig)] == [
            "enabled", "memory_entries", "disk_bytes", "path", "use_disk",
        ]
        assert list(inspect.signature(MemoryTier).parameters) == ["capacity"]
        assert list(inspect.signature(DiskTier).parameters) == [
            "root", "max_bytes", "clock",
        ]

    def test_tier_switches(self):
        assert not CacheConfig(enabled=False).wants_memory
        assert not CacheConfig(enabled=False).wants_disk
        assert not CacheConfig(memory_entries=0).wants_memory
        assert not CacheConfig(use_disk=False).wants_disk
        assert not CacheConfig(disk_bytes=0).wants_disk
        assert CacheConfig().wants_memory and CacheConfig().wants_disk

    def test_default_dir_honors_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "here"))
        assert default_cache_dir() == str(tmp_path / "here")
        assert CacheConfig().resolved_path() == str(tmp_path / "here")
        assert CacheConfig(path="/explicit").resolved_path() == "/explicit"


class TestMemoryTier:
    def test_lru_eviction_order(self):
        tier = MemoryTier(capacity=2)
        assert tier.put("a", 1) == 0
        assert tier.put("b", 2) == 0
        assert tier.get("a") == (True, 1)  # refreshes "a"
        assert tier.put("c", 3) == 1  # evicts "b", the least recent
        assert tier.get("b") == (False, None)
        assert tier.get("a") == (True, 1)
        assert tier.get("c") == (True, 3)
        assert len(tier) == 2

    def test_overwrite_same_key(self):
        tier = MemoryTier(capacity=2)
        tier.put("k", 1)
        tier.put("k", 2)
        assert tier.get("k") == (True, 2)
        assert len(tier) == 1

    def test_none_is_a_value(self):
        tier = MemoryTier(capacity=2)
        tier.put("k", None)
        assert tier.get("k") == (True, None)
        assert tier.delete("k") and not tier.delete("k")


class TestDiskTier:
    def test_roundtrip_and_fanout(self, tmp_path):
        tier = DiskTier(str(tmp_path), max_bytes=1 << 20)
        key = "ab" + "0" * 62
        assert tier.get(key) == (False, None)
        tier.put(key, {"x": [1, 2, 3]})
        assert tier.get(key) == (True, {"x": [1, 2, 3]})
        assert (tmp_path / "ab").is_dir()  # two-level fan-out
        assert len(tier) == 1 and tier.size_bytes() > 0

    def test_corrupt_entry_is_discarded_as_miss(self, tmp_path):
        def truncate(stored: bytes) -> bytes:
            return stored[:3]

        def flip_one_byte(stored: bytes) -> bytes:
            # inside the pickled string: it still unpickles, to "valte"
            damaged = bytearray(stored)
            damaged[-4] ^= 0x01
            return bytes(damaged)

        tier = DiskTier(str(tmp_path), max_bytes=1 << 20)
        key = "cd" + "1" * 62
        for damage in (truncate, flip_one_byte):
            tier.put(key, "value")
            path = tier._path(key)
            path.chmod(0o644)
            path.write_bytes(damage(path.read_bytes()))
            recorder = obs.enable(obs.Recorder())
            try:
                assert tier.get(key) == (False, None), damage.__name__
            finally:
                obs.disable()
            assert not path.exists()  # corrupt file removed
            assert recorder.counter_total("cache.corrupt") == 1
            # and the key is writable again
            tier.put(key, "value2")
            assert tier.get(key) == (True, "value2")

    def test_eviction_to_byte_budget_is_mtime_lru(self, tmp_path):
        tier = DiskTier(str(tmp_path), max_bytes=1 << 20)
        old_key = "aa" + "3" * 62
        new_key = "bb" + "4" * 62
        tier.put(old_key, b"x" * 64)
        # budget: exactly one entry fits
        tier.max_bytes = tier._path(old_key).stat().st_size + 8
        assert tier._path(old_key).exists()
        os.utime(tier._path(old_key), (1.0, 1.0))  # make it stale
        evicted = tier.put(new_key, b"y" * 64)
        # oldest-mtime-first: the stale entry goes, the new one stays
        assert evicted == 1
        assert not tier._path(old_key).exists()
        assert tier.get(new_key) == (True, b"y" * 64)

    def test_a_read_refreshes_recency(self, tmp_path):
        tier = DiskTier(str(tmp_path), max_bytes=1 << 20)
        a, b, c = ("a1" + "0" * 62), ("b1" + "0" * 62), ("c1" + "0" * 62)
        tier.put(a, b"a" * 64)
        tier.put(b, b"b" * 64)
        # budget: exactly two entries fit
        tier.max_bytes = 2 * tier._path(a).stat().st_size + 8
        # written in that order, a clearly before b
        os.utime(tier._path(a), (1.0, 1.0))
        os.utime(tier._path(b), (2.0, 2.0))
        assert tier.get(a) == (True, b"a" * 64)  # a is now the most recent
        assert tier.put(c, b"c" * 64) == 1
        # least recently *used* goes: b, not the just-read a
        assert not tier._path(b).exists()
        assert tier.get(a) == (True, b"a" * 64)
        assert tier.get(c) == (True, b"c" * 64)

    def test_an_entry_that_cannot_be_touched_still_serves(self, tmp_path, monkeypatch):
        tier = DiskTier(str(tmp_path), max_bytes=1 << 20)
        key = "ef" + "2" * 62
        tier.put(key, "value")

        def refuse(*_args, **_kwargs):
            raise PermissionError("read-only tier")

        monkeypatch.setattr(os, "utime", refuse)
        assert tier.get(key) == (True, "value")

    def test_stale_tmp_files_are_reaped(self, tmp_path):
        clock = FakeClock()
        tier = DiskTier(str(tmp_path), max_bytes=1 << 20, clock=clock)
        debris = tmp_path / f"{TMP_PREFIX}deadwriter"
        debris.write_bytes(b"partial")
        os.utime(debris, (clock.now - 1000.0, clock.now - 1000.0))
        fresh = tmp_path / f"{TMP_PREFIX}inflight"
        fresh.write_bytes(b"partial")
        os.utime(fresh, (clock.now, clock.now))
        tier.put("ab" + "5" * 62, 1)  # triggers the budget/reap pass
        assert not debris.exists()  # stale debris reaped
        assert fresh.exists()  # in-flight writer untouched

    def test_unpicklable_value_degrades_to_no_store(self, tmp_path):
        tier = DiskTier(str(tmp_path), max_bytes=1 << 20)
        recorder = obs.enable(obs.Recorder())
        try:
            assert tier.put("ab" + "6" * 62, lambda: None) == 0
        finally:
            obs.disable()
        assert len(tier) == 0
        assert recorder.counter_total("cache.unpicklable") == 1

    def test_tmp_files_never_visible_as_entries(self, tmp_path):
        tier = DiskTier(str(tmp_path), max_bytes=1 << 20)
        (tmp_path / f"{TMP_PREFIX}whatever").write_bytes(b"junk")
        assert list(tier.entries()) == []


class TestResultCache:
    def cfg(self, tmp_path, **kw):
        kw.setdefault("path", str(tmp_path / "cache"))
        return CacheConfig(**kw)

    def test_two_tier_promotion(self, tmp_path):
        cache = ResultCache(self.cfg(tmp_path, memory_entries=4))
        cache.put("k" * 64, 42)
        cache.memory.clear()  # simulate a fresh process: disk only
        found, value = cache.get("k" * 64)
        assert (found, value) == (True, 42)
        # promoted: now served from memory even with the disk gone
        cache.disk.clear()
        assert cache.get("k" * 64) == (True, 42)
        assert cache.hits == 2 and cache.misses == 0

    def test_memory_only_and_disk_only(self, tmp_path):
        mem_only = ResultCache(self.cfg(tmp_path, use_disk=False))
        assert mem_only.disk is None and mem_only.memory is not None
        disk_only = ResultCache(self.cfg(tmp_path, memory_entries=0))
        assert disk_only.memory is None and disk_only.disk is not None
        disk_only.put("a" * 64, "v")
        assert disk_only.get("a" * 64) == (True, "v")

    def test_stats_and_counters(self, tmp_path):
        recorder = obs.enable(obs.Recorder())
        try:
            cache = ResultCache(self.cfg(tmp_path))
            cache.get("m" * 64, site="test")
            cache.put("m" * 64, 1, site="test")
            cache.get("m" * 64, site="test")
            stats = cache.stats()
            assert stats["hits"] == 1 and stats["misses"] == 1
            assert stats["memory_entries"] == 1 and stats["disk_entries"] == 1
            assert recorder.counter_total("cache.misses") == 1
            assert recorder.counter_total("cache.hits") == 1
            lookups = [
                k for k in recorder.histograms if k.name == "cache.lookup.seconds"
            ]
            stores = [k for k in recorder.histograms if k.name == "cache.store.seconds"]
            assert lookups and stores
        finally:
            obs.disable()

    def test_eviction_counter(self, tmp_path):
        recorder = obs.enable(obs.Recorder())
        try:
            cache = ResultCache(self.cfg(tmp_path, memory_entries=1, use_disk=False))
            cache.put("a" * 64, 1)
            cache.put("b" * 64, 2)
            assert cache.evictions == 1
            assert recorder.counter_total("cache.evictions") == 1
            # a disk hit promoted into a full memory tier evicts too
            two_tier = ResultCache(self.cfg(tmp_path, memory_entries=1))
            two_tier.put("a" * 64, 1)
            two_tier.put("b" * 64, 2)  # memory drops "a", disk keeps both
            assert two_tier.get("a" * 64) == (True, 1)  # promotion drops "b"
            assert two_tier.evictions == 2
            assert recorder.counter_total("cache.evictions") == 3
        finally:
            obs.disable()

    def test_disabled_config_builds_no_tiers(self, tmp_path):
        cache = ResultCache(CacheConfig(enabled=False, path=str(tmp_path)))
        assert cache.memory is None and cache.disk is None
        cache.put("x" * 64, 1)
        assert cache.get("x" * 64) == (False, None)
        assert not any(tmp_path.iterdir())

    def test_entries_survive_pickle_of_numpy(self, tmp_path):
        import numpy as np

        cache = ResultCache(self.cfg(tmp_path, memory_entries=0))
        arr = np.ma.MaskedArray(np.arange(12.0).reshape(3, 4), mask=False)
        arr[1, 1] = np.ma.masked
        cache.put("n" * 64, {"out": arr})
        found, value = cache.get("n" * 64)
        assert found
        restored = value["out"]
        assert isinstance(restored, np.ma.MaskedArray)
        assert np.array_equal(restored.filled(0), arr.filled(0))
        assert np.array_equal(np.ma.getmaskarray(restored), np.ma.getmaskarray(arr))


class TestUnreadableRoot:
    def test_unwritable_root_degrades_to_miss(self, tmp_path):
        root = tmp_path / "ro"
        tier = DiskTier(str(root), max_bytes=1 << 20)
        root.chmod(0o555)
        try:
            if os.access(str(root / "probe"), os.W_OK):
                pytest.skip("running as a user unaffected by directory modes")
            try:
                assert tier.put("ab" + "7" * 62, 1) == 0  # no raise
            finally:
                pass
        finally:
            root.chmod(0o755)
