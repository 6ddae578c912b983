"""The ``.cdz`` self-contained dataset container.

The real CDMS reads NetCDF; with no NetCDF library available offline we
define an equivalent self-describing container: a ZIP archive holding

* ``manifest.json`` — dataset id, global attributes, axis and variable
  metadata (units, calendars, attributes, dimension lists) and, per
  variable, a table of digest-pinned chunks;
* ``axes/<name>.npy`` and ``axes/<name>.bounds.npy`` — axis coordinate
  and bounds arrays;
* ``chunks/v<i>/c<j>.npy`` — variable payloads split along time, with
  masked elements encoded as the variable's ``missing_value``.

That is **format version 2** (:mod:`repro.streaming.format` has the
layout in full), the one format :func:`write_cdz` writes.  There is one
read path too: :func:`open_cdz` opens the archive once, parses the
manifest once and hands every variable out as a chunk-backed
:class:`~repro.cdms.lazy.LazyVariable`; :func:`read_cdz` (an eager
load) indexes each of them whole through the same
:class:`~repro.streaming.reader.ChunkReader` — positioned read, sha256
verification, shape check, fault sites, retry — that streaming uses.

**Format version 1** (whole deflated arrays, ``vars/<name>.npy``) is
read-only legacy: files that exist keep loading, eagerly, through
:func:`_read_all_v1`; nothing writes them.

Writes are crash-safe: the archive is assembled in a same-directory
temporary file, fsynced, and atomically renamed into place
(:func:`repro.util.atomic.atomic_publish`), so a writer killed
mid-write can never leave a torn ``.cdz`` visible at the target path.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import struct
import sys
import zipfile
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.cdms.axis import Axis
from repro.cdms.variable import Variable
from repro.resilience import faults
from repro.util.atomic import atomic_publish
from repro.util.errors import CDMSError, StreamingError

if TYPE_CHECKING:  # repro.streaming imports this module: annotations only
    from repro.streaming.config import StreamingConfig
    from repro.streaming.dataset import StreamingSource

PathLike = Union[str, Path]


def _npy_bytes(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(array), allow_pickle=False)
    return buffer.getvalue()


#: ``.npy`` magic, and per known version the header-length field that
#: follows the two version bytes and numpy's reader of the header
_NPY_MAGIC = b"\x93NUMPY"
_NPY_VERSIONS = {
    (1, 0): (struct.Struct("<H"), np.lib.format.read_array_header_1_0),
    (2, 0): (struct.Struct("<I"), np.lib.format.read_array_header_2_0),
}


@functools.lru_cache(maxsize=64)
def _npy_header(header: bytes) -> Tuple[Tuple[int, ...], bool, np.dtype]:
    """``(shape, fortran_order, dtype)`` of one ``.npy`` header.

    *header* is the whole prelude: magic, version, length field and the
    header text.  The text goes through numpy's own header reader, so it
    is refused exactly as ``np.load`` refuses it; the result is a pure
    function of the bytes, memoised because every chunk of one shape
    carries the same header.
    """
    read_header = _NPY_VERSIONS[(header[6], header[7])][1]
    shape, fortran_order, dtype = read_header(io.BytesIO(header[8:]))
    if dtype.hasobject:
        raise ValueError("object arrays cannot be decoded without pickle")
    return shape, fortran_order, dtype


def _npy_load(blob: bytes) -> np.ndarray:
    """The array a ``.npy`` payload holds: a read-only view of *blob*.

    The one ``.npy`` decoder (chunks, low-res companions, axes and
    bounds).  The prelude is read with ``struct`` and the header text
    parsed once per distinct header (:func:`_npy_header`), so a chunk
    costs a view of its payload, not a header parse and a copy.  Like
    ``np.load(allow_pickle=False)`` it refuses bad magic, a version
    other than 1.0 or 2.0 (3.0 is only written for non-Latin-1 field
    names, which no container holds) and object dtypes; unlike it, a
    payload whose length is not header plus ``count × itemsize`` is
    refused both when short and when long.  Every refusal is a
    ``ValueError``.
    """
    if len(blob) < 8 or blob[:6] != _NPY_MAGIC:
        raise ValueError("not a .npy payload (bad magic)")
    version = (blob[6], blob[7])
    if version not in _NPY_VERSIONS:
        raise ValueError(f"unsupported .npy format version {version}")
    length_field = _NPY_VERSIONS[version][0]
    prelude = 8 + length_field.size
    if len(blob) < prelude:
        raise ValueError("truncated .npy header")
    (header_length,) = length_field.unpack_from(blob, 8)
    offset = prelude + header_length
    shape, fortran_order, dtype = _npy_header(blob[:offset])
    count = math.prod(shape)
    if len(blob) != offset + count * dtype.itemsize:
        raise ValueError(
            f".npy payload is {len(blob) - offset} bytes, "
            f"header says {count * dtype.itemsize}"
        )
    array = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
    return array.reshape(shape, order="F" if fortran_order else "C")


def mask_missing(raw: np.ndarray, missing: float) -> np.ma.MaskedArray:
    """*raw* with every value within ``rtol=1e-6`` of *missing* masked.

    The one missing-value rule of a stored payload: the v1 reader, the
    streamed slab and the v2 writer's chunk statistics all apply it, so
    a chunk the manifest counts as wholly valid and finite is one this
    masks nothing in.  The result shares *raw*'s memory; its mask is
    ``nomask`` when nothing matched and ``NaN`` is never masked.
    """
    return np.ma.masked_values(raw, missing, rtol=1e-6, atol=0.0, copy=False)


def _axis_manifest(axis: Axis) -> Dict[str, object]:
    return {
        "id": axis.id,
        "units": axis.units,
        "calendar": axis.calendar.name,
        "attributes": axis.attributes,
        "has_bounds": axis.get_bounds() is not None,
    }


def _shared_axes(variables: List[Variable]) -> Dict[str, Axis]:
    axes: Dict[str, Axis] = {}
    for var in variables:
        for axis in var.axes:
            existing = axes.get(axis.id)
            if existing is not None and existing != axis:
                raise CDMSError(
                    f"write_cdz: conflicting definitions of axis {axis.id!r} "
                    f"across variables"
                )
            axes[axis.id] = axis
    return axes


def write_cdz(
    path: PathLike,
    variables: List[Variable],
    dataset_id: str = "dataset",
    attributes: Dict[str, object] | None = None,
    version: int = 2,
    chunk_timesteps: Optional[int] = None,
    lowres_factor: Optional[int] = None,
) -> None:
    """Write *variables* (sharing axes by id) to a ``.cdz`` file.

    *chunk_timesteps* is the number of coordinate points per chunk and
    *lowres_factor* the decimation of the fallback companions (1
    disables them); ``None`` takes :mod:`repro.streaming.format`'s
    defaults.  *version* names the format written; ``2`` is its one
    legal value — v1 is read-only.
    """
    from repro.streaming.format import FORMAT_VERSION, write_archive_v2

    if not variables:
        raise CDMSError("write_cdz: no variables to write")
    if version != FORMAT_VERSION:
        raise CDMSError(
            f"write_cdz: cannot write format version {version!r}: "
            f"v{FORMAT_VERSION} is the only writable format (v1 is read-only)"
        )
    for var in variables:
        if var.ndim == 0:
            raise CDMSError(
                f"write_cdz: variable {var.id!r} is rank-0; a stored variable "
                "needs at least one axis"
            )
    axes = _shared_axes(variables)
    path = Path(path)
    with atomic_publish(
        path, before_rename=lambda: faults.check("storage.write", path=str(path))
    ) as handle:
        with zipfile.ZipFile(handle, "w", compression=zipfile.ZIP_DEFLATED) as archive:
            write_archive_v2(
                archive, variables, axes, dataset_id, attributes, chunk_timesteps, lowres_factor
            )


def read_member(archive: zipfile.ZipFile, member: str) -> bytes:
    """Read one archive member, raising typed errors instead of ``KeyError``."""
    try:
        return archive.read(member)
    except KeyError:
        raise StreamingError(
            f"{archive.filename}: archive member {member!r} is missing"
        ) from None
    except (zipfile.BadZipFile, zlib.error, OSError) as exc:
        raise StreamingError(
            f"{archive.filename}: archive member {member!r} unreadable: {exc}"
        ) from exc


@contextlib.contextmanager
def opened_container(path: Path) -> Iterator[Tuple[zipfile.ZipFile, Dict[str, object]]]:
    """``(archive, manifest)`` of the container at *path*, open for the block.

    The one place a ``.cdz`` is opened for reading and its manifest
    decoded.  Every way that can fail is a :class:`StreamingError`, and
    so is a ``BadZipFile`` or ``OSError`` the archive raises inside the
    block.
    """
    if not path.exists():
        raise StreamingError(f"no such .cdz container: {path}")
    try:
        with zipfile.ZipFile(path, "r") as archive:
            try:
                manifest = json.loads(read_member(archive, "manifest.json"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise StreamingError(
                    f"{path}: manifest.json is not valid JSON: {exc}"
                ) from exc
            if not isinstance(manifest, dict):
                raise StreamingError(f"{path}: manifest.json is not an object")
            yield archive, manifest
    except (zipfile.BadZipFile, OSError) as exc:
        raise StreamingError(f"{path} is not a readable archive: {exc}") from exc


@contextlib.contextmanager
def typed_manifest_errors(path: Path) -> Iterator[None]:
    """Type what a well-formed-JSON manifest of the wrong shape raises.

    A manifest is outside input: a missing field, a list where an object
    belongs or an unknown dtype name would otherwise escape the code
    that interprets it as a bare ``KeyError``, ``AttributeError``,
    ``TypeError`` or ``ValueError``.
    """
    try:
        yield
    except (KeyError, AttributeError, TypeError, ValueError) as exc:
        raise StreamingError(
            f"{path}: malformed manifest ({type(exc).__name__}: {exc})"
        ) from exc


def _member_array(archive: zipfile.ZipFile, name: str) -> np.ndarray:
    try:
        return _npy_load(read_member(archive, name))
    except ValueError as exc:
        raise CDMSError(
            f"{archive.filename}: archive member {name!r} corrupt: {exc}"
        ) from exc


def _read_all_v1(
    archive: zipfile.ZipFile, manifest: Dict[str, object]
) -> tuple[str, Dict[str, object], List[Variable]]:
    """Load a legacy v1 container: whole deflated arrays, no digests."""
    names = set(archive.namelist())
    axes: Dict[str, Axis] = {}
    for meta in manifest.get("axes", []):
        axis_id = meta["id"]
        values = _member_array(archive, f"axes/{axis_id}.npy")
        bounds = None
        if meta.get("has_bounds") and f"axes/{axis_id}.bounds.npy" in names:
            bounds = _member_array(archive, f"axes/{axis_id}.bounds.npy")
        axes[axis_id] = Axis(
            axis_id,
            values,
            units=meta.get("units", ""),
            bounds=bounds,
            calendar=meta.get("calendar", "standard"),
            attributes=meta.get("attributes", {}),
        )
    variables: List[Variable] = []
    for meta in manifest.get("variables", []):
        var_id = meta["id"]
        # the decoded member is a read-only view; an eager variable owns its data
        raw = _member_array(archive, f"vars/{var_id}.npy").copy()
        missing = float(meta.get("missing_value", 1.0e20))
        data = mask_missing(raw, missing)
        dimensions = meta["dimensions"]
        try:
            var_axes = [axes[dim] for dim in dimensions]
        except KeyError as exc:
            raise CDMSError(
                f"variable {var_id!r} references unknown axis {exc.args[0]!r}"
            ) from None
        variables.append(
            Variable(
                data,
                var_axes,
                id=var_id,
                missing_value=missing,
                attributes=meta.get("attributes", {}),
            )
        )
    dataset_id = manifest.get("id")
    if not isinstance(dataset_id, str):
        raise CDMSError("manifest has no dataset id")
    return dataset_id, manifest.get("attributes", {}), variables


def open_cdz(
    path: PathLike, config: Optional[StreamingConfig] = None
) -> Tuple[str, Dict[str, object], List[Variable], Optional[StreamingSource]]:
    """Open a ``.cdz`` → ``(dataset_id, attributes, variables, source)``.

    The archive is opened once, the manifest parsed once, and its
    ``format_version`` dispatched on once.  A v2 container comes back
    as lazy variables over an open
    :class:`~repro.streaming.dataset.StreamingSource` (*config* is its
    :class:`~repro.streaming.config.StreamingConfig`), which the caller
    closes; a legacy v1 container has no chunks to hand out, so its
    variables come back loaded and *source* is ``None``.
    """
    from repro.cdms.lazy import LazyVariable
    from repro.streaming.dataset import StreamingSource

    path = Path(path)
    with opened_container(path) as (archive, manifest):
        if manifest.get("format_version") == 1:
            with typed_manifest_errors(path):
                return (*_read_all_v1(archive, manifest), None)
        # any other version is the source's to take or to reject
        source = StreamingSource(path, config, opened=(archive, manifest))
    variables = [LazyVariable(source, layout) for layout in source.layouts]
    return source.dataset_id, source.attributes, variables, source


def read_cdz(path: PathLike) -> tuple[str, Dict[str, object], List[Variable]]:
    """Read a ``.cdz`` file whole → ``(dataset_id, attributes, variables)``.

    An eager load is the streaming reader: every variable
    :func:`open_cdz` hands out is indexed whole, so each
    chunk takes the positioned read, digest verification, shape check
    and retries of :meth:`~repro.streaming.reader.ChunkReader.read_chunk`,
    and the source is closed before returning.  All corruption —
    truncation, missing members, bad payloads, a manifest of the wrong
    shape — surfaces as :class:`CDMSError` (or its
    :class:`~repro.util.errors.StreamingError` subclass), never as a
    bare ``KeyError`` or ``zipfile`` traceback, and never as a partial
    dataset.  The variables own writable arrays: a one-chunk variable,
    which indexing hands out as a read-only view of the verified chunk,
    is copied once.  It holds every chunk at once by design, so it sets
    no chunk budget.
    """
    from repro.streaming.config import StreamingConfig

    dataset_id, attributes, variables, source = open_cdz(
        path, StreamingConfig(memory_budget_bytes=sys.maxsize)
    )
    if source is not None:
        with source:
            variables = [variable[()] for variable in variables]
        variables = [
            var if var.data.flags.writeable else var.clone() for var in variables
        ]
    return dataset_id, attributes, variables
