"""The ``.cdz`` self-contained dataset container.

The real CDMS reads NetCDF; with no NetCDF library available offline we
define an equivalent self-describing container: a ZIP archive holding

* ``manifest.json`` — dataset id, global attributes, axis and variable
  metadata (units, calendars, attributes, dimension lists);
* ``axes/<name>.npy`` and ``axes/<name>.bounds.npy`` — axis coordinate
  and bounds arrays;
* ``vars/<name>.npy`` — variable payloads with masked elements encoded
  as the variable's ``missing_value``.

That is **format version 1**: whole-array members, read all at once.
**Format version 2** (:mod:`repro.streaming.format`) keeps the same
axis/metadata model but splits payloads into per-timestep chunks with
manifest-pinned content digests, enabling out-of-core streaming reads.
:func:`read_cdz` auto-detects the version and materializes either one
byte-identically; :func:`write_cdz` writes v1 by default and v2 on
request.

Writes are crash-safe: the archive is assembled in a same-directory
temporary file, fsynced, and atomically renamed into place
(:func:`repro.util.atomic.atomic_publish`), so a writer killed
mid-write can never leave a torn ``.cdz`` visible at the target path.
"""

from __future__ import annotations

import contextlib
import io
import json
import zipfile
import zlib
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

import numpy as np

from repro.cdms.axis import Axis
from repro.cdms.variable import Variable
from repro.resilience import faults
from repro.util.atomic import atomic_publish
from repro.util.errors import CDMSError

FORMAT_VERSION = 1
SUPPORTED_VERSIONS = (1, 2)

PathLike = Union[str, Path]


def _npy_bytes(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(array), allow_pickle=False)
    return buffer.getvalue()


def _npy_load(blob: bytes) -> np.ndarray:
    return np.load(io.BytesIO(blob), allow_pickle=False)


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


def _write_archive_v1(
    archive: zipfile.ZipFile,
    variables: List[Variable],
    axes: Dict[str, Axis],
    dataset_id: str,
    attributes: Optional[Dict[str, object]],
) -> None:
    manifest = {
        "format_version": 1,
        "id": dataset_id,
        "attributes": attributes or {},
        "axes": [_axis_manifest(a) for a in axes.values()],
        "variables": [
            {
                "id": var.id,
                "dimensions": [a.id for a in var.axes],
                "attributes": var.attributes,
                "missing_value": var.missing_value,
                "dtype": str(var.dtype),
            }
            for var in variables
        ],
    }
    archive.writestr("manifest.json", json.dumps(manifest, indent=1))
    for axis in axes.values():
        archive.writestr(f"axes/{axis.id}.npy", _npy_bytes(axis.values))
        bounds = axis.get_bounds()
        if bounds is not None:
            archive.writestr(f"axes/{axis.id}.bounds.npy", _npy_bytes(bounds))
    for var in variables:
        archive.writestr(f"vars/{var.id}.npy", _npy_bytes(var.filled()))


def write_cdz(
    path: PathLike,
    variables: List[Variable],
    dataset_id: str = "dataset",
    attributes: Dict[str, object] | None = None,
    version: int = FORMAT_VERSION,
    chunk_timesteps: Optional[int] = None,
    lowres_factor: Optional[int] = None,
) -> None:
    """Write *variables* (sharing axes by id) to a ``.cdz`` file.

    ``version=1`` (the default) writes the whole-array format;
    ``version=2`` writes the chunked streaming format, honouring
    *chunk_timesteps* (coordinate points per chunk) and *lowres_factor*
    (decimation of the fallback companions; 1 disables them).
    """
    if not variables:
        raise CDMSError("write_cdz: no variables to write")
    if version not in SUPPORTED_VERSIONS:
        raise CDMSError(
            f"write_cdz: unsupported format version {version!r} "
            f"(supported: {SUPPORTED_VERSIONS})"
        )
    axes = _shared_axes(variables)
    path = Path(path)
    with atomic_publish(
        path, before_rename=lambda: faults.check("storage.write", path=str(path))
    ) as handle:
        with zipfile.ZipFile(handle, "w", compression=zipfile.ZIP_DEFLATED) as archive:
            if version == 1:
                _write_archive_v1(archive, variables, axes, dataset_id, attributes)
            else:
                from repro.streaming.format import (
                    DEFAULT_CHUNK_TIMESTEPS,
                    DEFAULT_LOWRES_FACTOR,
                    write_archive_v2,
                )

                write_archive_v2(
                    archive,
                    variables,
                    axes,
                    dataset_id,
                    attributes,
                    chunk_timesteps=(
                        DEFAULT_CHUNK_TIMESTEPS
                        if chunk_timesteps is None
                        else chunk_timesteps
                    ),
                    lowres_factor=(
                        DEFAULT_LOWRES_FACTOR if lowres_factor is None else lowres_factor
                    ),
                )


@contextlib.contextmanager
def _open_archive(path: Path) -> Iterator[zipfile.ZipFile]:
    if not path.exists():
        raise CDMSError(f"read_cdz: no such file {path}")
    try:
        archive = zipfile.ZipFile(path, "r")
    except (zipfile.BadZipFile, OSError) as exc:
        raise CDMSError(f"read_cdz: {path} is not a readable archive: {exc}") from exc
    with archive:
        yield archive


def _load_manifest(archive: zipfile.ZipFile, path: Path) -> Dict[str, object]:
    try:
        payload = archive.read("manifest.json")
    except KeyError:
        raise CDMSError(f"read_cdz: {path} has no manifest.json") from None
    except (zipfile.BadZipFile, zlib.error, OSError) as exc:
        raise CDMSError(f"read_cdz: {path} manifest unreadable: {exc}") from exc
    try:
        manifest = json.loads(payload)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CDMSError(f"read_cdz: {path} manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CDMSError(f"read_cdz: {path} manifest is not an object")
    return manifest


def _member(archive: zipfile.ZipFile, name: str, path: Path) -> bytes:
    try:
        return archive.read(name)
    except KeyError:
        raise CDMSError(f"read_cdz: {path} is missing member {name!r}") from None
    except (zipfile.BadZipFile, zlib.error, OSError) as exc:
        raise CDMSError(f"read_cdz: {path} member {name!r} unreadable: {exc}") from exc


def _member_array(archive: zipfile.ZipFile, name: str, path: Path) -> np.ndarray:
    try:
        return _npy_load(_member(archive, name, path))
    except (ValueError, EOFError) as exc:
        raise CDMSError(f"read_cdz: {path} member {name!r} corrupt: {exc}") from exc


def detect_version(path: PathLike) -> int:
    """The format version of the ``.cdz`` container at *path*."""
    path = Path(path)
    with _open_archive(path) as archive:
        manifest = _load_manifest(archive, path)
    version = manifest.get("format_version")
    if version not in SUPPORTED_VERSIONS:
        raise CDMSError(f"read_cdz: unsupported format version {version!r}")
    return int(version)


def _read_all_v1(
    archive: zipfile.ZipFile, manifest: Dict[str, object], path: Path
) -> tuple[str, Dict[str, object], List[Variable]]:
    names = set(archive.namelist())
    axes: Dict[str, Axis] = {}
    for meta in manifest.get("axes", []):
        axis_id = meta["id"]
        values = _member_array(archive, f"axes/{axis_id}.npy", path)
        bounds = None
        if meta.get("has_bounds") and f"axes/{axis_id}.bounds.npy" in names:
            bounds = _member_array(archive, f"axes/{axis_id}.bounds.npy", path)
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
        raw = _member_array(archive, f"vars/{var_id}.npy", path)
        missing = float(meta.get("missing_value", 1.0e20))
        data = np.ma.masked_values(raw, missing, rtol=1e-6, atol=0.0)
        try:
            var_axes = [axes[dim] for dim in meta["dimensions"]]
        except KeyError as exc:
            raise CDMSError(
                f"read_cdz: variable {var_id!r} references unknown axis "
                f"{exc.args[0]!r}"
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
        raise CDMSError(f"read_cdz: {path} manifest has no dataset id")
    return dataset_id, manifest.get("attributes", {}), variables


def read_cdz(path: PathLike) -> tuple[str, Dict[str, object], List[Variable]]:
    """Read a ``.cdz`` file → ``(dataset_id, attributes, variables)``.

    Auto-detects the format version: v1 reads exactly as it always has;
    v2 materializes every chunk (digest-verified) into the identical
    in-memory representation.  All corruption — truncation, missing
    members, bad payloads — surfaces as :class:`CDMSError` (or its
    :class:`~repro.util.errors.StreamingError` subclass), never as a
    bare ``KeyError`` or ``zipfile`` traceback.
    """
    path = Path(path)
    with _open_archive(path) as archive:
        manifest = _load_manifest(archive, path)
        version = manifest.get("format_version")
        if version == 1:
            return _read_all_v1(archive, manifest, path)
        if version == 2:
            from repro.streaming.format import read_all_v2

            return read_all_v2(archive, manifest)
        raise CDMSError(f"read_cdz: unsupported format version {version!r}")
