"""The resilient chunk reader: verification, retries, quarantine, and no cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro import cache, obs
from repro.cdms.storage import read_cdz
from repro.data.catalog import synthetic_reanalysis
from repro.resilience import faults
from repro.streaming.config import StreamingConfig
from repro.streaming.dataset import StreamingSource
from repro.util.errors import ChunkCorruptionError, StreamingError


FAST = StreamingConfig(retry_base_delay=0.0, prefetch=False)


@pytest.fixture()
def reader(v2_path):
    return StreamingSource(v2_path, FAST).reader("ta")


class TestHappyPath:
    def test_chunks_concatenate_to_eager(self, reader, v1_path):
        _, _, [eager] = read_cdz(v1_path)
        layout = reader.layout
        raw = np.concatenate(
            [reader.read_chunk(c) for c in layout.chunks], axis=layout.chunk_axis
        )
        assert raw.tobytes() == eager.filled().tobytes()

    def test_counters(self, reader):
        obs.enable()
        reader.read_chunk(reader.layout.chunks[0])
        recorder = obs.get_recorder()
        assert recorder.counter_total("streaming.chunks.read") == 1
        assert recorder.counter_total("streaming.chunks.verified") == 1
        assert recorder.counter_total("streaming.chunks.corrupt") == 0


class TestFaultSites:
    def test_transient_read_fault_retried(self, reader):
        obs.enable()
        faults.arm("streaming.read", "raise", match={"chunk": 2}, times=2)
        chunk = reader.layout.chunks[2]
        value = reader.read_chunk(chunk)
        assert value.shape == reader.layout.chunk_shape(chunk)
        assert obs.get_recorder().counter_total("streaming.chunks.retried") == 2
        assert not reader.is_quarantined(2)

    def test_exhausted_retries_quarantine(self, reader):
        faults.arm("streaming.read", "raise", match={"chunk": 1}, times=0)
        with pytest.raises(StreamingError):
            reader.read_chunk(reader.layout.chunks[1])
        assert reader.is_quarantined(1)

    def test_corrupt_fault_fails_verification(self, reader):
        faults.arm("streaming.verify", "corrupt", match={"chunk": 0}, times=0)
        with pytest.raises(ChunkCorruptionError):
            reader.read_chunk(reader.layout.chunks[0])

    def test_decode_fault_site(self, reader):
        faults.arm("streaming.decode", "raise", match={"chunk": 4}, times=0)
        with pytest.raises(StreamingError):
            reader.read_chunk(reader.layout.chunks[4])

    def test_heals_after_disarm(self, reader, v1_path):
        faults.arm("streaming.read", "raise", match={"chunk": 3}, times=0)
        with pytest.raises(StreamingError):
            reader.read_chunk(reader.layout.chunks[3])
        assert reader.is_quarantined(3)
        faults.disarm()
        _, _, [eager] = read_cdz(v1_path)
        value = reader.read_chunk(reader.layout.chunks[3])
        assert value.tobytes() == eager.filled()[3:4].tobytes()
        assert not reader.is_quarantined(3)


class TestLowres:
    def test_lowres_verified_and_shaped(self, reader):
        chunk = reader.layout.chunks[0]
        full = reader.read_lowres(chunk)
        assert full.shape == reader.layout.chunk_shape(chunk)
        # nearest-neighbour substitution: values come from the true chunk
        true = reader.read_chunk(chunk)
        assert np.isin(full, true).all()

    def test_lowres_missing_raises_typed(self, tmp_path, variable):
        from repro.cdms.storage import write_cdz

        path = tmp_path / "nolr.cdz"
        write_cdz(path, [variable], version=2, lowres_factor=1)
        reader = StreamingSource(path, FAST).reader("ta")
        with pytest.raises(StreamingError, match="no low-resolution"):
            reader.read_lowres(reader.layout.chunks[0])


class TestResultCache:
    def test_disabled_cache_never_touched(self, tmp_path):
        """Enabled or not, the result cache never sees a chunk: an eager
        read under an enabled disk-tier cache stores nothing, and with
        every disk entry damaged a re-read still returns the container's
        values (the container is the one source of chunk bytes)."""
        path = tmp_path / "reanalysis.cdz"
        synthetic_reanalysis(nlat=8, nlon=12, nlev=3).save(path)
        _, _, expected = read_cdz(path)
        with cache.use_config(cache.CacheConfig(path=str(tmp_path / "c"))):
            cache.reset_cache()
            ambient = cache.get_cache()
            read_cdz(path)
            for entry in list(ambient.disk.entries()):
                stored = bytearray(entry.read_bytes())
                stored[len(stored) // 2] ^= 0xFF
                entry.chmod(0o644)
                entry.write_bytes(bytes(stored))
            ambient.memory.clear()
            _, _, again = read_cdz(path)
            stats = ambient.stats()
        cache.reset_cache()
        assert len(again) == len(expected) == 5
        for got, want in zip(again, expected):
            assert got.filled().tobytes() == want.filled().tobytes(), got.id
        assert stats == {
            "hits": 0, "misses": 0, "evictions": 0,
            "memory_entries": 0, "disk_entries": 0,
        }
