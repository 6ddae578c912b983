"""An eager load is the chunk reader.

``read_cdz`` / ``open_dataset(streaming=False)`` of a v2 container go
through ``StreamingSource`` + ``ChunkReader.read_chunk`` — the loop that
streaming uses — so they retry, verify and fail the way a streamed read
does, and "streamed == eager" is one loop agreeing with itself.  What is
pinned here is what that promise adds: retries reach an eager load, a
failure is typed and whole, nothing is left running or open, it is not
counted as a materialization, and the bytes are the ones the parent of
PR 19 (which had a second, ``zipfile``-based eager loop) produced.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro import obs
from repro.cache.keys import digest
from repro.cdms.dataset import open_dataset
from repro.cdms.storage import read_cdz, write_cdz
from repro.resilience import faults
from repro.util.errors import StreamingError

#: ``digest(make_variable())`` as commit 5c5af7e (PR 19's parent) computed
#: it from containers it wrote itself — ``write_cdz(version=2)`` with
#: ``chunk_timesteps`` 1 and 3, read eagerly, streamed and streamed then
#: sliced whole — and from the v1 file now committed as the legacy
#: fixture; all seven were this value.  Pinned from that run: the v2
#: writer is untouched since, so a container written here has the
#: parent's member bytes.
PARENT_DIGEST = "308e114515ae91c5a36ae2b7b24a14a188392cae21e7e098e58a30fe7f2126c5"


class TestEagerLoadIsTheReader:
    def test_transient_read_fault_is_retried(self, v2_path):
        _, _, [clean] = read_cdz(v2_path)
        obs.enable()
        faults.arm("streaming.read", "raise", match={"chunk": 2}, times=1)
        _, _, [loaded] = read_cdz(v2_path)
        assert obs.get_recorder().counter_total("streaming.chunks.retried") == 1
        assert loaded.filled().tobytes() == clean.filled().tobytes()
        assert np.array_equal(
            np.ma.getmaskarray(loaded.data), np.ma.getmaskarray(clean.data)
        )

    @pytest.mark.parametrize("site", ["streaming.read", "streaming.verify", "streaming.decode"])
    def test_persistent_fault_is_typed_never_partial(self, v2_path, site):
        action = "corrupt" if site == "streaming.verify" else "raise"
        faults.arm(site, action, match={"chunk": 5}, times=0)
        with pytest.raises(StreamingError):
            read_cdz(v2_path)
        with pytest.raises(StreamingError):
            open_dataset(v2_path, streaming=False)

    def test_counts_chunk_reads_not_materializations(self, v2_path):
        obs.enable()
        dataset = open_dataset(v2_path, streaming="off")
        recorder = obs.get_recorder()
        assert not dataset.is_streaming
        assert recorder.counter_total("streaming.chunks.verified") == 8
        assert recorder.counter_total("streaming.materialize.full") == 0
        assert recorder.counter_total("cdat.materialize") == 0

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_leaves_no_thread_and_no_descriptor(self, v2_path):
        read_cdz(v2_path)  # first use pays any lazy module-level descriptors
        threads = threading.active_count()
        descriptors = len(os.listdir("/proc/self/fd"))
        for _ in range(20):
            read_cdz(v2_path)
            assert threading.active_count() == threads
        assert len(os.listdir("/proc/self/fd")) == descriptors


class TestParentBytes:
    @pytest.mark.parametrize("chunk_timesteps", [1, 3])
    def test_v2_digest_unchanged_eager_and_streamed(self, tmp_path, variable, chunk_timesteps):
        path = tmp_path / "parent.cdz"
        write_cdz(path, [variable], chunk_timesteps=chunk_timesteps)
        _, _, [eager] = read_cdz(path)
        assert digest(eager) == PARENT_DIGEST
        with open_dataset(path, streaming=True) as dataset:
            assert digest(dataset("ta")) == PARENT_DIGEST  # hashed slab by slab
            assert digest(dataset("ta")[()]) == PARENT_DIGEST

    @pytest.mark.parametrize("streaming", [False, True])
    def test_legacy_v1_digest_unchanged(self, v1_path, streaming):
        with open_dataset(v1_path, streaming=streaming) as dataset:
            assert digest(dataset("ta")) == PARENT_DIGEST
