"""A two-pass fold reads each chunk once, and every read is verified.

``variance`` (``fold_moments``), ``anomalies`` and ``composite_analysis``
walk their input twice.  Over a streamed variable that fits its
streaming budget, the second walk replays the blocks the first walk
read, so ``streaming.chunks.read`` equals the chunk count; over one
four times its budget, the second walk reads every chunk again.  Each
chunk that does come off disk still passes the reader's sha256 check,
and a corrupt chunk met on the first walk fails the fold and is
quarantined exactly as a single-pass read of it would be.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.cache.keys import digest
from repro.cdat.climatology import anomalies
from repro.cdat.composites import composite_analysis
from repro.cdat.statistics import variance
from repro.cdms.axis import level_axis, time_axis, uniform_latitude, uniform_longitude
from repro.cdms.dataset import open_dataset
from repro.cdms.storage import write_cdz
from repro.cdms.variable import Variable
from repro.resilience import faults
from repro.streaming.config import StreamingConfig
from repro.util.errors import ChunkCorruptionError

NTIME, NLEV, NLAT, NLON = 24, 3, 6, 8


def make_field() -> Variable:
    rng = np.random.default_rng(13)
    data = np.ma.MaskedArray(rng.normal(280.0, 12.0, size=(NTIME, NLEV, NLAT, NLON)))
    data[4, 0, :2, :] = np.ma.masked
    axes = (
        time_axis(np.arange(NTIME) * (365.0 / 12) + 15.0, calendar="noleap"),
        level_axis([1000.0, 500.0, 200.0]),
        uniform_latitude(NLAT),
        uniform_longitude(NLON),
    )
    return Variable(data, axes, id="ta", units="K")


def make_index() -> Variable:
    rng = np.random.default_rng(2)
    axis = time_axis(np.arange(NTIME) * (365.0 / 12) + 15.0, calendar="noleap")
    return Variable(rng.normal(size=NTIME), [axis], id="pc1")


KERNELS = {
    "variance": lambda var: variance(var, "time"),
    "anomalies": anomalies,
    "composite_analysis": lambda var: composite_analysis(var, make_index()).difference,
}


@pytest.fixture(autouse=True)
def recording():
    faults.disarm()
    obs.set_recorder(obs.Recorder())
    obs.enable()
    yield obs.get_recorder()
    faults.disarm()
    obs.disable()
    obs.set_recorder(obs.Recorder())


@pytest.fixture()
def container(tmp_path):
    path = tmp_path / "field.cdz"
    write_cdz(path, [make_field()], chunk_timesteps=1)
    return path


def quarter_budget(path) -> StreamingConfig:
    """A config whose budget is a quarter of the variable's payload."""
    with open_dataset(path, streaming="on") as probe:
        layout = probe.streaming_source.layout("ta")
    assert layout.total_nbytes() >= 4 * layout.max_chunk_nbytes()
    return StreamingConfig(memory_budget_bytes=layout.total_nbytes() // 4)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_a_fold_that_fits_reads_each_chunk_once(container, recording, kernel):
    eager = open_dataset(container, streaming="off").get_variable("ta")
    expected = KERNELS[kernel](eager)
    recording.counters.clear()
    with open_dataset(container, streaming="on") as dataset:
        lazy = dataset.get_variable("ta")
        got = KERNELS[kernel](lazy)
        slabs = lazy.slab_count()
    read = recording.counter_total("streaming.chunks.read")
    assert slabs == NTIME
    assert read == slabs
    assert recording.counter_total("streaming.chunks.verified") == read
    assert digest(got) == digest(expected)


def test_a_fold_over_budget_reads_each_chunk_twice(container, recording):
    config = quarter_budget(container)
    with open_dataset(container, streaming="on", streaming_config=config) as dataset:
        lazy = dataset.get_variable("ta")
        variance(lazy, "time")
        slabs = lazy.slab_count()
    read = recording.counter_total("streaming.chunks.read")
    assert read == 2 * slabs
    assert recording.counter_total("streaming.chunks.verified") == read


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_a_corrupt_chunk_on_the_first_pass_fails_and_is_quarantined(container, recording, kernel):
    faults.arm("streaming.verify", "corrupt", match={"chunk": 5}, times=0)
    with open_dataset(container, streaming="on") as dataset:
        lazy = dataset.get_variable("ta")
        reader = dataset.streaming_source.reader("ta")
        with pytest.raises(ChunkCorruptionError):
            KERNELS[kernel](lazy)
        assert set(reader.quarantined()) == {5}
        retries = reader.config.read_retries
        assert recording.counter_total("streaming.chunks.corrupt") == retries
        assert recording.counter_total("streaming.chunks.retried") == retries - 1
        assert recording.counter_total("streaming.chunks.quarantined") == 1
        assert recording.counter_total("streaming.chunks.read") == 5  # chunks 0-4

        # the chunk heals once the fault clears, and the fold reads it afresh
        faults.disarm()
        recording.counters.clear()
        KERNELS[kernel](lazy)
        assert reader.quarantined() == {}
        assert recording.counter_total("streaming.chunks.read") == NTIME


def test_kept_blocks_count_as_resident(container, recording):
    with open_dataset(container, streaming="on") as dataset:
        payload = dataset.streaming_source.layout("ta").total_nbytes()
        variance(dataset.get_variable("ta"), "time")
    (peak,) = (v for k, v in recording.gauges.items()
               if k.name == "cdat.peak_resident.bytes")
    assert peak >= payload  # every chunk, held for the second pass
