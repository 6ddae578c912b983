"""Canonical content hashing for cache keys.

Every value a key is built from — plain Python values, numpy arrays
(masked or not, any layout), CDMS axes/grids/variables (eager or still
streaming) — maps to a deterministic SHA-256 digest with these
properties:

* **stability** — equal values produce equal digests in every process
  and on every platform: no ``id()``, no ``hash()`` (which is salted
  per process for strings), no dict iteration order (entries are
  sorted by their key's digest), no memory-layout dependence
  (non-contiguous arrays are normalised to C order before hashing);
* **sensitivity** — any representational difference that can change a
  computed result changes the digest: dtype and byte order (hashed via
  ``dtype.str``, so ``<f8`` vs ``>f8`` differ), shape, mask, NaN
  payloads (hashed as raw IEEE-754 bits, so NaN-bearing arrays hash
  deterministically and differently from any finite payload);
* **no silent fallback** — an unhashable value raises
  :class:`~repro.util.errors.CacheError` instead of hashing its
  ``repr`` and colliding later.

Keys built from these digests (:func:`cache_key`) are additionally
salted with the package version and nothing else, so upgrading the
code invalidates every entry produced by older kernels.
:func:`json_key` is the same partition of JSON-shaped parts in one
sha256 instead of one per node; the serving tier keys requests with it.
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import Any, Iterable

import numpy as np

import repro
from repro.util.errors import CacheError

#: code-version salt mixed into every key — bump on release, every
#: cached artifact of older kernels misses
CODE_SALT = f"repro-{repro.__version__}"


def _raw(h, payload: bytes) -> None:
    # length-prefix every variable-size chunk so adjacent fields can
    # never alias (b"ab"+b"c" vs b"a"+b"bc")
    h.update(struct.pack("<Q", len(payload)))
    h.update(payload)


def _tag(h, tag: bytes) -> None:
    h.update(tag)


def _update_array(h, arr: np.ndarray) -> None:
    _tag(h, b"A")
    _raw(h, arr.dtype.str.encode("ascii"))
    _raw(h, repr(arr.shape).encode("ascii"))
    _raw(h, np.ascontiguousarray(arr).tobytes())


def _update_masked(h, arr: np.ma.MaskedArray) -> None:
    _tag(h, b"M")
    mask = np.ma.getmaskarray(arr)
    # zero out masked payload bytes so two arrays that differ only at
    # masked positions (equal values) hash equally
    data = np.ascontiguousarray(arr.filled(0))
    _update_array(h, data)
    _update_array(h, mask)


def _update_mapping(h, obj: dict) -> None:
    _tag(h, b"D")
    entries = sorted((digest(k), digest(v)) for k, v in obj.items())
    for key_digest, value_digest in entries:
        _raw(h, key_digest.encode("ascii"))
        _raw(h, value_digest.encode("ascii"))


def _update_sequence(h, obj: Iterable[Any]) -> None:
    _tag(h, b"L")
    for item in obj:
        _update(h, item)


def _update(h, obj: Any) -> None:  # noqa: PLR0911 - a type dispatch table
    if obj is None:
        _tag(h, b"N")
        return
    if isinstance(obj, bool):
        _tag(h, b"T" if obj else b"F")
        return
    if isinstance(obj, (int, np.integer)):
        _tag(h, b"I")
        _raw(h, repr(int(obj)).encode("ascii"))
        return
    if isinstance(obj, (float, np.floating)):
        # raw IEEE bits: NaN payloads, signed zeros and subnormals all
        # hash deterministically
        _tag(h, b"f")
        h.update(struct.pack("<d", float(obj)))
        return
    if isinstance(obj, str):
        _tag(h, b"S")
        _raw(h, obj.encode("utf-8"))
        return
    if isinstance(obj, (bytes, bytearray, memoryview)):
        _tag(h, b"B")
        _raw(h, bytes(obj))
        return
    if isinstance(obj, np.ma.MaskedArray):
        _update_masked(h, obj)
        return
    if isinstance(obj, np.ndarray):
        _update_array(h, obj)
        return
    if isinstance(obj, dict):
        _update_mapping(h, obj)
        return
    if isinstance(obj, (list, tuple)):
        _update_sequence(h, obj)
        return
    if isinstance(obj, (set, frozenset)):
        _tag(h, b"E")
        for item_digest in sorted(digest(item) for item in obj):
            _raw(h, item_digest.encode("ascii"))
        return
    if _update_known(h, obj):
        return
    raise CacheError(
        f"cannot canonically hash {type(obj).__module__}.{type(obj).__qualname__}"
    )


def _update_streamed_variable(h, obj: Any) -> bool:
    """Hash a still-streaming lazy variable without materializing it.

    Produces the *same* byte stream as the eager Variable branch —
    ``v + L(id, missing_value, attributes, axes, M(data))`` where the
    masked payload is ``A(filled(0)) + A(mask)`` — but folds the payload
    one slab at a time.  Valid because a variable chunked along axis 0
    concatenates its slabs' C-order buffers into exactly the full
    array's buffer.  Variables chunked along any other axis, or already
    materialized (where the eager path is free), return False and fall
    through to the eager branch.

    This is what lets a streamed variable be checked against its eager
    twin by digest: equal content ⇒ equal digest, regardless of which
    plane the data arrived through.
    """
    from repro.cdms.lazy import LazyVariable

    if not isinstance(obj, LazyVariable):
        return False
    if obj._materialized is not None or obj.slab_axis() != 0:
        return False
    _tag(h, b"v")
    _tag(h, b"L")
    for item in (obj.id, obj.missing_value, obj.attributes, list(obj.axes)):
        _update(h, item)
    _tag(h, b"M")
    shape = tuple(int(n) for n in obj.shape)
    size = int(np.prod(shape, dtype=np.int64))
    dtype = np.dtype(obj.dtype)
    for kind, dtype_str, itemsize in (
        ("data", dtype.str, dtype.itemsize),
        ("mask", np.dtype(bool).str, 1),
    ):
        # an _update_array, streamed: header, then the length-prefixed
        # payload fed to the hash slab by slab (two passes over the
        # container — data bytes, then mask bytes — so peak residency
        # stays one slab)
        _tag(h, b"A")
        _raw(h, dtype_str.encode("ascii"))
        _raw(h, repr(shape).encode("ascii"))
        h.update(struct.pack("<Q", size * itemsize))
        for slab in obj.iter_slabs():
            if kind == "data":
                block = slab.filled(0)
            else:
                block = np.ma.getmaskarray(slab)
            h.update(np.ascontiguousarray(block).tobytes())
    return True


def _update_known(h, obj: Any) -> bool:
    """Hash the domain types; returns False for unknown objects."""
    from repro.cdms.axis import Axis
    from repro.cdms.grid import RectilinearGrid
    from repro.cdms.variable import Variable

    if isinstance(obj, Axis):
        # gen_bounds (not get_bounds): it returns explicit bounds when
        # set — sensitivity preserved — but is a pure function of the
        # values otherwise, so its lazy caching cannot flip the digest
        _tag(h, b"x")
        _update_sequence(
            h,
            (obj.id, obj.units, obj.calendar.name, obj.values,
             obj.attributes, obj.gen_bounds()),
        )
        return True
    if isinstance(obj, RectilinearGrid):
        _tag(h, b"g")
        _update_sequence(h, (obj.latitude, obj.longitude))
        return True
    if isinstance(obj, Variable):
        if _update_streamed_variable(h, obj):
            return True
        _tag(h, b"v")
        _update_sequence(
            h,
            (obj.id, obj.missing_value, obj.attributes, list(obj.axes), obj.data),
        )
        return True
    return False


def digest(obj: Any) -> str:
    """Canonical SHA-256 hex digest of *obj* (see module docstring)."""
    h = hashlib.sha256()
    _update(h, obj)
    return h.hexdigest()


def cache_key(site: str, *parts: Any) -> str:
    """A cache key for *site* derived from the digests of *parts*.

    The key mixes in :data:`CODE_SALT`, so a version bump invalidates
    everything at once.
    """
    h = hashlib.sha256()
    _raw(h, site.encode("utf-8"))
    _raw(h, CODE_SALT.encode("utf-8"))
    for part in parts:
        _update(h, part)
    return h.hexdigest()


def _json_scalar(obj: Any) -> Any:
    # numpy scalars are the numbers they hash as in _update; anything
    # else JSON cannot state is left to cache_key
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(type(obj).__qualname__)


_JSON = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False,
    ensure_ascii=False, default=_json_scalar,
)


def _str_keyed(obj: Any) -> bool:
    """Whether every dict inside *obj* has only ``str`` keys (JSON would
    quietly turn ``{1: x}`` into ``{"1": x}``)."""
    if isinstance(obj, dict):
        return all(isinstance(k, str) and _str_keyed(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return all(map(_str_keyed, obj))
    return True


def json_key(site: str, *parts: Any) -> str:
    """A key for *site* over *parts*: equal exactly when :func:`cache_key`'s is.

    One sha256 over sorted-key compact JSON of the parts, after *site*
    and :data:`CODE_SALT`, instead of one sha256 per node.  JSON states
    ``None``, bools, ints, finite floats (by their shortest repr, so
    ``-0.0`` stays apart from ``0.0``), strings, lists and tuples (both
    arrays, as both are sequences to :func:`cache_key`) and ``str``-keyed
    dicts exactly, and numpy integer and floating scalars as the Python
    numbers they equal.  Parts holding anything else — arrays, CDMS
    objects, non-finite floats, non-``str`` dict keys, text UTF-8 cannot
    encode — take :func:`cache_key`, so two parts lists get equal keys
    if and only if :func:`cache_key` gives them equal keys.
    """
    if _str_keyed(parts):
        try:
            text = _JSON.encode(parts).encode("utf-8")
        except (TypeError, ValueError):  # UnicodeEncodeError is a ValueError
            pass
        else:
            h = hashlib.sha256(f"{site}\0{CODE_SALT}\0".encode("utf-8"))
            h.update(text)
            return h.hexdigest()
    return cache_key(site, *parts)
