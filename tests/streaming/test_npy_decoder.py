"""The one ``.npy`` decoder: ``np.load``'s arrays and refusals, one header parse per shape."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.cdms import storage
from repro.cdms.dataset import open_dataset
from repro.cdms.storage import _npy_load, write_cdz
from repro.resilience import faults
from repro.streaming import reader as reader_module
from repro.streaming.config import StreamingConfig
from repro.streaming.dataset import StreamingSource
from repro.util.errors import ChunkCorruptionError, StreamingError

from .conftest import make_variable


FAST = StreamingConfig(retry_base_delay=0.0)


def npy(array: np.ndarray, version=(1, 0), allow_pickle: bool = False) -> bytes:
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, version=version, allow_pickle=allow_pickle)
    return buffer.getvalue()


def arrays():
    rng = np.random.default_rng(33)
    for dtype in ("<f4", "<f8", ">f8", "<i8", "|b1"):
        for shape in ((), (0,), (1, 8, 32, 48)):
            values = rng.normal(0.0, 1e3, size=shape)
            yield f"{dtype}{shape}", np.asarray(values).astype(dtype)
    yield "fortran", np.asfortranarray(rng.normal(size=(3, 5, 7)))


@pytest.mark.parametrize("version", [(1, 0), (2, 0)])
@pytest.mark.parametrize("name, array", list(arrays()))
def test_same_array_as_np_load(name, array, version):
    blob = npy(array, version)
    expected = np.load(io.BytesIO(blob), allow_pickle=False)
    decoded = _npy_load(blob)
    assert decoded.dtype == expected.dtype
    assert decoded.shape == expected.shape
    assert decoded.flags.f_contiguous == expected.flags.f_contiguous
    assert decoded.tobytes() == expected.tobytes()
    assert not decoded.flags.writeable
    with pytest.raises(ValueError):
        decoded[...] = 0


def refused():
    good = npy(np.arange(24.0).reshape(2, 3, 4))
    yield "bad magic", b"\x93NUMPX" + good[6:]
    yield "unknown version", good[:6] + b"\x09\x00" + good[8:]
    yield "object dtype", npy(np.array([{"a": 1}, None], dtype=object), allow_pickle=True)
    yield "truncated payload", good[:-3]
    yield "trailing bytes", good + b"\x00" * 8
    yield "truncated header", good[:20]


@pytest.mark.parametrize("name, blob", list(refused()))
def test_refuses_what_np_load_refuses_and_trailing_bytes(name, blob):
    with pytest.raises(ValueError):
        _npy_load(blob)
    if name == "trailing bytes":  # the one payload np.load let through
        np.load(io.BytesIO(blob), allow_pickle=False)
    else:
        with pytest.raises(ValueError):
            np.load(io.BytesIO(blob), allow_pickle=False)


@pytest.mark.parametrize("name, blob", list(refused()))
def test_chunk_reader_turns_a_refusal_into_streaming_error(v2_path, monkeypatch, name, blob):
    reader = StreamingSource(v2_path, FAST).reader("ta")
    # the digest would stop a bad payload first; this asks what decode does with one
    monkeypatch.setattr(reader.source, "read_stored", lambda member: blob)
    monkeypatch.setattr(reader_module, "verify_digest", lambda *args: None)
    with pytest.raises(StreamingError, match="failed to decode"):
        reader.read_chunk(reader.layout.chunks[0])


def test_corrupt_payload_is_caught_by_sha256_before_any_decode(v2_path, monkeypatch):
    decoded = []
    monkeypatch.setattr(
        reader_module, "_npy_load", lambda blob: decoded.append(blob) or _npy_load(blob)
    )
    reader = StreamingSource(v2_path, FAST).reader("ta")
    faults.arm("streaming.verify", "corrupt", match={"chunk": 0}, times=0)
    with pytest.raises(ChunkCorruptionError):
        reader.read_chunk(reader.layout.chunks[0])
    assert decoded == []
    faults.disarm()
    reader.read_chunk(reader.layout.chunks[0])
    assert len(decoded) == 1


@pytest.mark.parametrize("chunk_timesteps, parses", [(1, 1), (5, 2)])
def test_a_full_scan_parses_one_header_per_chunk_shape(
    tmp_path, monkeypatch, chunk_timesteps, parses
):
    """24 timesteps: 24 chunks of one shape, or 5 chunks of two shapes."""
    path = tmp_path / "scan.cdz"
    write_cdz(path, [make_variable(ntime=24)], chunk_timesteps=chunk_timesteps)
    calls = []
    for version, (length_field, read_header) in list(storage._NPY_VERSIONS.items()):
        counted = lambda fp, read_header=read_header: calls.append(1) or read_header(fp)
        monkeypatch.setitem(storage._NPY_VERSIONS, version, (length_field, counted))
    dataset = open_dataset(path, streaming="on")
    try:
        variable = dataset.get_variable("ta")
        # what opening parsed (the axes) is not the scan
        storage._npy_header.cache_clear()
        calls.clear()
        slabs = list(variable.iter_slabs())
    finally:
        dataset.close()
        storage._npy_header.cache_clear()
    assert sum(slab.shape[0] for slab in slabs) == 24
    assert len(calls) == parses
