"""Lazy variable proxy: indexing equivalence, slab iteration, degradation."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import obs
from repro.cdms.dataset import open_dataset
from repro.cdms.lazy import LazyVariable
from repro.cdms.storage import read_cdz
from repro.resilience import faults
from repro.streaming.config import StreamingConfig
from repro.util.errors import CDMSError, StreamingError


FAST = StreamingConfig(retry_base_delay=0.0, prefetch=False)


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


class TestSlabIteration:
    def test_slab_count(self, pair):
        eager, lazy = pair
        assert eager.slab_count() == 1
        assert lazy.slab_count() == 8

    def test_slabs_concatenate_to_eager(self, pair):
        eager, lazy = pair
        slabs = list(lazy.iter_slabs())
        assert len(slabs) == lazy.slab_count()
        whole = np.ma.concatenate([s.data for s in slabs], axis=0)
        assert whole.filled(eager.missing_value).tobytes() == eager.filled().tobytes()


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

    def test_degraded_exits_cleanly(self, pair):
        _, lazy = pair
        with lazy.degraded():
            pass
        assert lazy._degraded_depth == 0


class TestPickle:
    def test_round_trip(self, pair):
        eager, lazy = pair
        clone = pickle.loads(pickle.dumps(lazy))
        assert isinstance(clone, LazyVariable)
        assert clone.id == "ta"
        assert clone[1:3].filled().tobytes() == eager[1:3].filled().tobytes()
