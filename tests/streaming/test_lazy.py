"""Lazy variable proxy: indexing equivalence, slab iteration, degradation."""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.cdms.dataset import open_dataset
from repro.cdms.lazy import LazyVariable
from repro.cdms.storage import mask_missing, read_cdz, write_cdz
from repro.resilience import faults
from repro.streaming.config import StreamingConfig
from repro.streaming.dataset import StreamingSource
from repro.streaming.format import decimate, upsample
from repro.util.errors import CDMSError, StreamingError

from .conftest import make_variable


FAST = StreamingConfig(retry_base_delay=0.0)


@pytest.fixture()
def pair(v1_path, v2_path):
    _, _, [eager] = read_cdz(v1_path)
    dataset = open_dataset(v2_path, streaming="on", streaming_config=FAST)
    return eager, dataset.get_variable("ta")


class TestOpenModes:
    def test_on_yields_lazy(self, v2_path):
        dataset = open_dataset(v2_path, streaming="on")
        assert isinstance(dataset.get_variable("ta"), LazyVariable)
        assert dataset.is_streaming
        dataset.close()

    def test_on_loads_v1_whole(self, v1_path):
        """A v1 container has no chunks to hand out lazily."""
        with open_dataset(v1_path, streaming="on") as dataset:
            assert not isinstance(dataset.get_variable("ta"), LazyVariable)
            assert not dataset.is_streaming

    def test_auto_is_rejected(self, v2_path):
        with pytest.raises(CDMSError, match="'on'/'off'"):
            open_dataset(v2_path, streaming="auto")

    def test_off_is_eager_even_on_v2(self, v2_path):
        dataset = open_dataset(v2_path, streaming="off")
        assert not isinstance(dataset.get_variable("ta"), LazyVariable)

    def test_bad_mode(self, v2_path):
        with pytest.raises(CDMSError, match="streaming"):
            open_dataset(v2_path, streaming="sometimes")


class TestIndexingEquivalence:
    @pytest.mark.parametrize(
        "key",
        [
            np.s_[:],
            np.s_[0],
            np.s_[3],
            np.s_[-1],
            np.s_[2:6],
            np.s_[1:8:2],
            np.s_[::3, 1:3],
            np.s_[5, :, 2:7, ::2],
        ],
    )
    def test_getitem_matches_eager(self, pair, key):
        eager, lazy = pair
        expected = eager[key]
        got = lazy[key]
        assert got.shape == expected.shape
        assert got.filled().tobytes() == expected.filled().tobytes()
        assert np.array_equal(
            np.ma.getmaskarray(got.data), np.ma.getmaskarray(expected.data)
        )

    def test_empty_slice_raises_like_eager(self, pair):
        eager, lazy = pair
        with pytest.raises(CDMSError, match="selects no points"):
            eager[0:0]
        with pytest.raises(CDMSError, match="selects no points"):
            lazy[0:0]

    def test_metadata_matches(self, pair):
        eager, lazy = pair
        assert lazy.shape == eager.shape
        assert lazy.dtype == eager.dtype
        assert [a.id for a in lazy.axes] == [a.id for a in eager.axes]
        assert lazy.finite_range() == eager.finite_range()

    def test_full_materialization_counted_once(self, pair):
        _, lazy = pair
        obs.enable()
        lazy._data
        lazy._data
        assert (
            obs.get_recorder().counter_total("streaming.materialize.full") == 1
        )


@pytest.fixture()
def three_step_chunks(tmp_path, variable):
    """*variable* in chunks of 3 timesteps: partly masked, full, partly masked."""
    path = tmp_path / "three.cdz"
    write_cdz(path, [variable], chunk_timesteps=3)
    dataset = open_dataset(path, streaming="on", streaming_config=FAST)
    lazy = dataset.get_variable("ta")
    chunk_size = lazy.size // lazy.shape[0] * 3
    assert [c.stat_valid == chunk_size for c in lazy.layout.chunks] == [False, True, False]
    yield variable, lazy
    dataset.close()


def assert_same_slab(got, expected):
    assert got.shape == expected.shape
    assert got.filled().tobytes() == expected.filled().tobytes()
    assert np.ma.getmaskarray(got.data).tobytes() == expected.mask.tobytes()


def lowres_twin(variable, chunk):
    """The in-memory equivalent of *chunk*'s upsampled low-res companion."""
    raw = variable.filled()[chunk.start : chunk.stop]
    factor = chunk.lowres_factor
    return upsample(decimate(raw, 0, factor), raw.shape, 0, factor)


class TestIndexPaths:
    """Eager == streamed through every way a request meets the chunk table."""

    @pytest.mark.parametrize(
        "key",
        [
            np.s_[::2],
            np.s_[1:8:2],
            np.s_[::-1],
            np.s_[7:0:-1],
            np.s_[6:1:-2],
            np.s_[-1::-3],
            np.s_[::-1, ::-1, 2:7, ::3],
            np.s_[4],
            np.s_[-1],
            np.s_[0, 0],
            np.s_[0:6],  # partly masked chunk, then a full one (nomask)
            np.s_[3:8],  # a full chunk, then a partly masked one
            np.s_[2:4],
        ],
    )
    def test_matches_in_memory(self, three_step_chunks, key):
        variable, lazy = three_step_chunks
        assert_same_slab(lazy[key], variable[key])

    def test_full_chunk_then_masked_chunk_concatenate(self, three_step_chunks):
        variable, lazy = three_step_chunks
        assert lazy[3:6].data.mask is np.ma.nomask
        slab = lazy[3:8]
        assert np.ma.getmaskarray(slab.data).sum() == 1
        assert slab.data.fill_value == lazy.missing_value
        assert_same_slab(slab, variable[3:8])

    def test_degraded_read_of_a_full_chunk(self, three_step_chunks):
        variable, lazy = three_step_chunks
        chunk = lazy.layout.chunks[1]
        faults.arm("streaming.read", "raise", match={"chunk": 1}, times=0)
        with lazy.degraded():
            slab = lazy[3:6]
        assert slab.filled().tobytes() == lowres_twin(variable, chunk).tobytes()
        assert not np.ma.getmaskarray(slab.data).any()

    def test_degraded_read_masks_from_the_payload_not_the_manifest(self, three_step_chunks):
        """A low-resolution fallback never inherits the full chunk's statistic."""
        variable, lazy = three_step_chunks
        chunk = lazy.layout.chunks[0]
        full_claim = replace(chunk, stat_valid=lazy.size // lazy.shape[0] * 3)
        lazy.layout = replace(lazy.layout, chunks=(full_claim,) + lazy.layout.chunks[1:])
        assert lazy[0:3].data.mask is np.ma.nomask  # trusted for the verified chunk
        faults.arm("streaming.read", "raise", match={"chunk": 0}, times=0)
        with lazy.degraded():
            slab = lazy[0:3]
        expected = mask_missing(lowres_twin(variable, chunk), lazy.missing_value)
        # decimation by 2 keeps two of the three masked longitudes, each
        # upsampled back to 2 x 2 x 2 cells
        assert np.ma.getmaskarray(expected).sum() == 16
        assert slab.filled().tobytes() == expected.filled().tobytes()
        assert np.array_equal(np.ma.getmaskarray(slab.data), np.ma.getmaskarray(expected))

    def test_nan_and_inf_payloads(self, tmp_path):
        variable = make_variable(ntime=6, masked=True)
        variable.data[1, 0, 0, 0] = np.nan
        variable.data[2, 1, 2, 3] = np.inf
        variable.data[4, 2, 3, 4] = -np.inf
        path = tmp_path / "nonfinite.cdz"
        write_cdz(path, [variable], chunk_timesteps=2)
        with open_dataset(path, streaming="on", streaming_config=FAST) as dataset:
            lazy = dataset.get_variable("ta")
            row = lazy.size // lazy.shape[0]
            assert all(c.stat_valid < c.extent * row for c in lazy.layout.chunks)
            for key in (np.s_[:], np.s_[1:5], np.s_[::-1], np.s_[2]):
                assert_same_slab(lazy[key], variable[key])
            assert np.isnan(lazy[1].data[0, 0, 0, 0])
            assert not np.ma.getmaskarray(lazy[1].data)[0, 0, 0, 0]


class TestSlabIteration:
    def test_slab_count(self, pair):
        eager, lazy = pair
        assert eager.slab_count() == 1
        assert lazy.slab_count() == 8

    def test_slabs_concatenate_to_eager(self, pair):
        eager, lazy = pair
        slabs = list(lazy.iter_slabs())
        assert len(slabs) == lazy.slab_count()
        whole = np.ma.concatenate(slabs, axis=0)
        assert whole.filled(eager.missing_value).tobytes() == eager.filled().tobytes()
        assert np.array_equal(np.ma.getmaskarray(whole), eager.mask)


class TestDegradation:
    def test_degraded_context_substitutes_lowres(self, v2_path):
        obs.enable()
        dataset = open_dataset(v2_path, streaming="on", streaming_config=FAST)
        lazy = dataset.get_variable("ta")
        faults.arm("streaming.read", "raise", match={"chunk": 2}, times=0)
        with pytest.raises(StreamingError):
            lazy[2]
        with lazy.degraded():
            slab = lazy[2]
        assert slab.shape == (1,) + lazy.shape[1:]
        recorder = obs.get_recorder()
        assert recorder.counter_total("streaming.slabs.degraded") == 1
        assert recorder.counter_total("streaming.chunks.lowres") == 1

    def test_a_faulting_cursor_read_raises_then_heals(self, pair):
        eager, lazy = pair
        faults.arm("streaming.read", "raise", match={"chunk": 1}, times=0)
        lazy[0]
        with pytest.raises(StreamingError):
            lazy[1]
        faults.disarm()
        assert lazy[1].filled().tobytes() == eager[1].filled().tobytes()
        assert not lazy.source.reader("ta").is_quarantined(1)

    def test_degraded_exits_cleanly(self, pair):
        _, lazy = pair
        with lazy.degraded():
            pass
        assert lazy._degraded_depth == 0


class TestMemoryBudget:
    """A variable whose largest chunk exceeds ``memory_budget_bytes`` is
    refused where it is handed out, so no read path takes that chunk."""

    @pytest.fixture()
    def tight(self, v2_path) -> StreamingConfig:
        chunk = StreamingSource(v2_path).layout("ta").max_chunk_nbytes()
        return StreamingConfig(memory_budget_bytes=chunk - 1)

    def test_chunk_over_budget_rejected(self, v2_path, tight):
        with pytest.raises(StreamingError, match="budget"):
            open_dataset(v2_path, streaming="on", streaming_config=tight)

    def test_a_scan_over_budget_raises_and_reads_nothing(self, v2_path, tight):
        source = StreamingSource(v2_path, tight)
        obs.enable()
        with pytest.raises(StreamingError, match="budget"):
            list(LazyVariable(source, source.layout("ta")).iter_slabs())
        assert obs.get_recorder().counter_total("streaming.chunks.read") == 0

    def test_a_chunk_at_the_budget_streams(self, v2_path):
        chunk = StreamingSource(v2_path).layout("ta").max_chunk_nbytes()
        config = StreamingConfig(memory_budget_bytes=chunk)
        with open_dataset(v2_path, streaming="on", streaming_config=config) as dataset:
            assert dataset.get_variable("ta")[0].shape[0] == 1


class TestPickle:
    def test_round_trip(self, pair):
        eager, lazy = pair
        clone = pickle.loads(pickle.dumps(lazy))
        assert isinstance(clone, LazyVariable)
        assert clone.id == "ta"
        assert clone[1:3].filled().tobytes() == eager[1:3].filled().tobytes()
