"""The ``.cdz`` container format (version 2, the one format written).

Layout of a container (a ZIP archive):

* ``manifest.json`` — dataset id, attributes, axis metadata, and per
  variable a **chunk table**: the chunked dimension, each chunk's
  coordinate range, its archive member name, its content digest
  (``sha256:<hex>`` over the member's raw bytes), its stored size, and
  summary statistics (finite-value min/max/count) so scalar ranges are
  known without touching payload data;
* ``axes/<name>.npy`` (+ ``.bounds.npy``) — axis arrays, digest-pinned
  by the manifest;
* ``chunks/v<i>/c<j>.npy`` — one ``.npy`` payload per chunk, stored
  **uncompressed** (``ZIP_STORED``) so byte ranges on disk are the
  payload bytes the digest covers;
* ``chunks/v<i>/c<j>.lr.npy`` — an optional low-resolution companion
  per chunk (strided decimation of the spatial dimensions), the
  degraded-serving fallback when the full chunk is unreadable.

Chunks split the variable along its **time dimension** (or the leading
dimension when there is no time axis), ``chunk_timesteps`` coordinate
points per chunk — the per-timestep/per-slab granularity the animation
cursor consumes.  Masked elements are encoded as the variable's
``missing_value`` — what the read-only legacy v1 format
(:mod:`repro.cdms.storage`: whole deflated arrays, no digests) stored
too, so the same variable reads byte-identically from either.

This module is the format only: the manifest model, the writer
(:func:`write_archive_v2`) and the manifest parser.  Bytes become
arrays in exactly one place, :mod:`repro.streaming.reader`, for eager
and streamed loads alike.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cdms.axis import Axis
from repro.cdms.storage import (
    _axis_manifest,
    _npy_bytes,
    _npy_load,
    mask_missing,
    read_member,
)
from repro.cdms.variable import Variable
from repro.util.errors import ChunkCorruptionError, StreamingError

FORMAT_VERSION = 2

#: default number of coordinate points (timesteps) per chunk
DEFAULT_CHUNK_TIMESTEPS = 1
#: default decimation factor of the low-resolution fallback companions
DEFAULT_LOWRES_FACTOR = 2


def content_digest(payload: bytes) -> str:
    """The canonical chunk digest: ``sha256:<hex>`` over raw bytes."""
    return "sha256:" + hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# manifest model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChunkMeta:
    """One chunk's manifest row."""

    index: int
    start: int
    stop: int
    member: str
    digest: str
    stored_bytes: int
    stat_min: Optional[float]
    stat_max: Optional[float]
    stat_valid: int
    lowres_member: Optional[str]
    lowres_digest: Optional[str]
    lowres_factor: int

    @property
    def extent(self) -> int:
        return self.stop - self.start


_chunk_start = attrgetter("start")


@dataclass(frozen=True)
class VariableLayout:
    """One variable's manifest entry: metadata plus its chunk table."""

    index: int
    id: str
    dimensions: Tuple[str, ...]
    attributes: Dict[str, object]
    missing_value: float
    dtype: np.dtype
    chunk_axis: int
    shape: Tuple[int, ...]
    chunks: Tuple[ChunkMeta, ...]

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)

    def chunk_shape(self, chunk: ChunkMeta) -> Tuple[int, ...]:
        shape = list(self.shape)
        shape[self.chunk_axis] = chunk.extent
        return tuple(shape)

    def chunk_nbytes(self, chunk: ChunkMeta) -> int:
        return int(np.prod(self.chunk_shape(chunk), dtype=np.int64)) * self.dtype.itemsize

    def max_chunk_nbytes(self) -> int:
        # a chunk's bytes grow with its extent alone: size only the longest
        if not self.chunks:
            return 0
        return self.chunk_nbytes(max(self.chunks, key=lambda c: c.extent))

    def total_nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * self.dtype.itemsize

    def chunk_of(self, coordinate_index: int) -> ChunkMeta:
        """The chunk covering one index along the chunked dimension."""
        n = self.shape[self.chunk_axis]
        if not 0 <= coordinate_index < n:
            raise StreamingError(
                f"variable {self.id!r}: index {coordinate_index} outside "
                f"chunked dimension of extent {n}"
            )
        # parse_layouts proved the table tiles the dimension in order
        position = bisect_right(self.chunks, coordinate_index, key=_chunk_start) - 1
        if position >= 0 and self.chunks[position].stop > coordinate_index:
            return self.chunks[position]
        raise StreamingError(
            f"variable {self.id!r}: no chunk covers index {coordinate_index} "
            "(corrupt chunk table)"
        )

    def finite_range(self) -> Optional[Tuple[float, float]]:
        """Dataset-wide finite min/max from the chunk statistics."""
        mins = [c.stat_min for c in self.chunks if c.stat_valid > 0]
        maxs = [c.stat_max for c in self.chunks if c.stat_valid > 0]
        if not mins:
            return None
        return float(min(mins)), float(max(maxs))


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------


def _chunk_stats(raw: np.ndarray, missing: float) -> Tuple[Optional[float], Optional[float], int]:
    """Finite-value (min, max, count) as a reader would compute them.

    ``count == raw.size`` exactly when :func:`mask_missing` masks nothing
    and every value is finite: the rule by which a reader hands out the
    chunk with no mask at all.
    """
    values = mask_missing(raw, missing).compressed()
    values = values[np.isfinite(values)]
    if values.size == 0:
        return None, None, 0
    return float(values.min()), float(values.max()), int(values.size)


def decimate(raw: np.ndarray, chunk_axis: int, factor: int) -> np.ndarray:
    """Strided decimation of every dimension except the chunked one."""
    index = tuple(
        slice(None) if dim == chunk_axis else slice(None, None, factor)
        for dim in range(raw.ndim)
    )
    return np.ascontiguousarray(raw[index])


def upsample(lowres: np.ndarray, target_shape: Sequence[int], chunk_axis: int, factor: int) -> np.ndarray:
    """Nearest-neighbour upsampling back to *target_shape*."""
    out = lowres
    for dim, extent in enumerate(target_shape):
        if dim == chunk_axis:
            continue
        out = np.repeat(out, factor, axis=dim)
        if out.shape[dim] > extent:
            index = tuple(
                slice(None, extent) if d == dim else slice(None)
                for d in range(out.ndim)
            )
            out = out[index]
    if tuple(out.shape) != tuple(target_shape):
        raise StreamingError(
            f"lowres upsample produced shape {out.shape}, expected {tuple(target_shape)}"
        )
    return np.ascontiguousarray(out)


def _chunk_dimension(var: Variable) -> int:
    """The dimension a variable is chunked along (time, else leading)."""
    for dim, axis in enumerate(var.axes):
        if axis.designation() == "time":
            return dim
    return 0


def _chunk_ranges(extent: int, chunk_timesteps: int) -> List[Tuple[int, int]]:
    step = max(int(chunk_timesteps), 1)
    return [(start, min(start + step, extent)) for start in range(0, extent, step)]


def write_archive_v2(
    archive: zipfile.ZipFile,
    variables: List[Variable],
    axes: Dict[str, Axis],
    dataset_id: str,
    attributes: Optional[Dict[str, object]],
    chunk_timesteps: Optional[int] = None,
    lowres_factor: Optional[int] = None,
) -> None:
    """Write the v2 members into an open (empty) ZIP archive.

    The caller (:func:`repro.cdms.storage.write_cdz`) owns the archive
    lifecycle and the atomic tmp+rename publish.  ``None`` means
    :data:`DEFAULT_CHUNK_TIMESTEPS` / :data:`DEFAULT_LOWRES_FACTOR`.
    """
    if chunk_timesteps is None:
        chunk_timesteps = DEFAULT_CHUNK_TIMESTEPS
    if lowres_factor is None:
        lowres_factor = DEFAULT_LOWRES_FACTOR
    if chunk_timesteps < 1:
        raise StreamingError(f"chunk_timesteps must be >= 1, got {chunk_timesteps}")
    if lowres_factor < 1:
        raise StreamingError(f"lowres_factor must be >= 1, got {lowres_factor}")
    axis_entries: List[Dict[str, object]] = []
    for axis in axes.values():
        entry = _axis_manifest(axis)
        member = f"axes/{axis.id}.npy"
        payload = _npy_bytes(axis.values)
        archive.writestr(member, payload)
        entry["member"] = member
        entry["digest"] = content_digest(payload)
        bounds = axis.get_bounds()
        if bounds is not None:
            bounds_member = f"axes/{axis.id}.bounds.npy"
            bounds_payload = _npy_bytes(bounds)
            archive.writestr(bounds_member, bounds_payload)
            entry["bounds_member"] = bounds_member
            entry["bounds_digest"] = content_digest(bounds_payload)
        axis_entries.append(entry)

    variable_entries: List[Dict[str, object]] = []
    for var_index, var in enumerate(variables):
        chunk_axis = _chunk_dimension(var)
        filled = np.ascontiguousarray(var.filled())
        rows: List[Dict[str, object]] = []
        for chunk_index, (start, stop) in enumerate(
            _chunk_ranges(var.shape[chunk_axis], chunk_timesteps)
        ):
            taker = tuple(
                slice(start, stop) if dim == chunk_axis else slice(None)
                for dim in range(var.ndim)
            )
            raw = np.ascontiguousarray(filled[taker])
            payload = _npy_bytes(raw)
            member = f"chunks/v{var_index:03d}/c{chunk_index:06d}.npy"
            # chunks are stored raw so the digest covers the on-disk bytes
            archive.writestr(member, payload, compress_type=zipfile.ZIP_STORED)
            stat_min, stat_max, stat_valid = _chunk_stats(raw, var.missing_value)
            row: Dict[str, object] = {
                "start": start,
                "stop": stop,
                "member": member,
                "digest": content_digest(payload),
                "bytes": len(payload),
                "stats": {"min": stat_min, "max": stat_max, "valid": stat_valid},
                "lowres": None,
            }
            if lowres_factor > 1:
                lowres_payload = _npy_bytes(decimate(raw, chunk_axis, lowres_factor))
                lowres_member = f"chunks/v{var_index:03d}/c{chunk_index:06d}.lr.npy"
                archive.writestr(
                    lowres_member, lowres_payload, compress_type=zipfile.ZIP_STORED
                )
                row["lowres"] = {
                    "member": lowres_member,
                    "digest": content_digest(lowres_payload),
                    "factor": lowres_factor,
                }
            rows.append(row)
        variable_entries.append(
            {
                "id": var.id,
                "dimensions": [a.id for a in var.axes],
                "attributes": var.attributes,
                "missing_value": var.missing_value,
                "dtype": str(var.dtype),
                "chunk_axis": chunk_axis,
                "chunks": rows,
            }
        )

    manifest = {
        "format_version": FORMAT_VERSION,
        "id": dataset_id,
        "attributes": attributes or {},
        "chunking": {"extent": int(chunk_timesteps), "lowres_factor": int(lowres_factor)},
        "axes": axis_entries,
        "variables": variable_entries,
    }
    archive.writestr("manifest.json", json.dumps(manifest, indent=1))


# ---------------------------------------------------------------------------
# manifest parsing
# ---------------------------------------------------------------------------


def parse_layouts(manifest: Dict[str, object], axes: Dict[str, Axis]) -> List[VariableLayout]:
    """The typed chunk tables of a v2 manifest."""
    layouts: List[VariableLayout] = []
    for var_index, meta in enumerate(manifest.get("variables", [])):
        dimensions = tuple(meta["dimensions"])
        try:
            shape = tuple(len(axes[dim]) for dim in dimensions)
        except KeyError as exc:
            raise StreamingError(
                f"variable {meta.get('id')!r} references unknown axis {exc.args[0]!r}"
            ) from None
        chunks: List[ChunkMeta] = []
        for chunk_index, row in enumerate(meta.get("chunks", [])):
            stats = row.get("stats") or {}
            lowres = row.get("lowres") or None
            chunks.append(
                ChunkMeta(
                    index=chunk_index,
                    start=int(row["start"]),
                    stop=int(row["stop"]),
                    member=str(row["member"]),
                    digest=str(row["digest"]),
                    stored_bytes=int(row.get("bytes", 0)),
                    stat_min=stats.get("min"),
                    stat_max=stats.get("max"),
                    stat_valid=int(stats.get("valid", 0)),
                    lowres_member=None if lowres is None else str(lowres["member"]),
                    lowres_digest=None if lowres is None else str(lowres["digest"]),
                    lowres_factor=1 if lowres is None else int(lowres.get("factor", 1)),
                )
            )
        chunk_axis = int(meta.get("chunk_axis", 0))
        if not 0 <= chunk_axis < len(dimensions):
            raise StreamingError(
                f"variable {meta.get('id')!r}: chunk_axis {chunk_axis} outside "
                f"{len(dimensions)} dimensions"
            )
        # in manifest order: chunk_of bisects the table and a full read
        # concatenates it as listed
        cursor = 0
        for chunk in chunks:
            if chunk.start != cursor or chunk.stop <= chunk.start:
                raise StreamingError(
                    f"variable {meta.get('id')!r}: chunk table does not tile the "
                    f"chunked dimension in order (gap at {cursor})"
                )
            cursor = chunk.stop
        if cursor != shape[chunk_axis]:
            raise StreamingError(
                f"variable {meta.get('id')!r}: chunk table covers {cursor} of "
                f"{shape[chunk_axis]} coordinate points"
            )
        layouts.append(
            VariableLayout(
                index=var_index,
                id=str(meta["id"]),
                dimensions=dimensions,
                attributes=dict(meta.get("attributes", {})),
                missing_value=float(meta.get("missing_value", 1.0e20)),
                dtype=np.dtype(str(meta.get("dtype", "float64"))),
                chunk_axis=chunk_axis,
                shape=shape,
                chunks=tuple(chunks),
            )
        )
    return layouts


def load_axes(archive: zipfile.ZipFile, manifest: Dict[str, object]) -> Dict[str, Axis]:
    """Reconstruct the axes of a v2 archive, digest-verifying each member."""
    axes: Dict[str, Axis] = {}
    for meta in manifest.get("axes", []):
        axis_id = str(meta["id"])
        member = str(meta.get("member", f"axes/{axis_id}.npy"))
        payload = read_member(archive, member)
        verify_digest(member, payload, meta.get("digest"))
        values = _npy_load(payload)
        bounds = None
        if meta.get("has_bounds"):
            bounds_member = str(meta.get("bounds_member", f"axes/{axis_id}.bounds.npy"))
            bounds_payload = read_member(archive, bounds_member)
            verify_digest(bounds_member, bounds_payload, meta.get("bounds_digest"))
            bounds = _npy_load(bounds_payload)
        axes[axis_id] = Axis(
            axis_id,
            values,
            units=str(meta.get("units", "")),
            bounds=bounds,
            calendar=str(meta.get("calendar", "standard")),
            attributes=dict(meta.get("attributes", {})),
        )
    return axes


def verify_digest(member: str, payload: bytes, expected: object) -> None:
    if not isinstance(expected, str) or not expected:
        raise StreamingError(f"archive member {member!r} has no manifest digest")
    actual = content_digest(payload)
    if actual != expected:
        raise ChunkCorruptionError(
            f"archive member {member!r} failed verification: "
            f"digest {actual} != manifest {expected}"
        )
