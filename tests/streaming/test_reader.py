"""The resilient chunk reader: verification, retries and quarantine."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.cdms.storage import read_cdz
from repro.resilience import faults
from repro.streaming.config import StreamingConfig
from repro.streaming.dataset import StreamingSource
from repro.util.errors import ChunkCorruptionError, StreamingError


FAST = StreamingConfig(retry_base_delay=0.0)


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
