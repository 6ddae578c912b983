"""The resilient chunk reader: read → verify → decode with retries.

One :class:`ChunkReader` serves one variable of one v2 container, and
it is the only code that turns a container's payload bytes into arrays:
a streamed slab and an eager :func:`~repro.cdms.storage.read_cdz` both
come through :meth:`ChunkReader.read_chunk`.  A chunk read passes three
instrumented stages, each a named fault site
for deterministic chaos testing (:mod:`repro.resilience.faults`):

``streaming.read``
    pull the member's raw bytes: one positioned read at the extent the
    :class:`~repro.streaming.dataset.StreamingSource` recorded when it
    opened the container (the zip directory is not parsed again and no
    handle is kept between reads);
``streaming.verify``
    compare the payload's sha256 against the manifest digest (a
    ``corrupt`` fault flips a payload byte here so verification fails
    exactly as a disk/NFS bit-flip would).  This is the only integrity
    check on the bytes and it supersedes the CRC32 of the zip member,
    which the positioned read does not look at: it also catches a
    container truncated or replaced underneath an open source;
``streaming.decode``
    turn the ``.npy`` payload into an array of the manifest's dtype and
    shape (:func:`~repro.cdms.storage._npy_load`): the header is parsed
    once per distinct chunk shape, not once per chunk, and the array is
    a read-only view of the verified payload bytes, not a copy of them.

All three sites carry ``var=``/``chunk=``/``attempt=`` labels.  Failures
retry under the config's :class:`~repro.resilience.policy.RetryPolicy`;
a chunk that exhausts its budget is **quarantined** (recorded, and
counted once), but every read re-attempts it, so the chunk heals (and
leaves quarantine) once the underlying fault clears.  Every chunk —
streamed or eager — passes all three stages on every read, on the
caller's thread; the reader holds no decoded chunk.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict

import numpy as np

from repro import obs
from repro.cdms.storage import _npy_load
from repro.resilience import faults
from repro.streaming.format import (
    ChunkMeta,
    VariableLayout,
    upsample,
    verify_digest,
)
from repro.util.errors import ChunkCorruptionError, InjectedFault, StreamingError

if TYPE_CHECKING:
    from repro.streaming.dataset import StreamingSource

#: failures worth retrying — typed streaming errors, injected faults,
#: and raw I/O errors from the filesystem underneath the archive
RETRYABLE = (StreamingError, InjectedFault, OSError)


def _flip_byte(payload: bytes) -> bytes:
    """The ``corrupt`` fault action: one bit-flip mid-payload."""
    if not payload:
        return payload
    index = len(payload) // 2
    mutated = bytearray(payload)
    mutated[index] ^= 0xFF
    return bytes(mutated)


class ChunkReader:
    """Verified chunk access for one variable of a v2 archive."""

    def __init__(self, source: StreamingSource, layout: VariableLayout) -> None:
        self.source = source
        self.layout = layout
        self.config = source.config
        self._policy = self.config.retry_policy(seed=f"streaming/{layout.id}")
        self._lock = threading.Lock()
        self._quarantined: Dict[int, StreamingError] = {}

    # -- quarantine --------------------------------------------------------

    def is_quarantined(self, chunk_index: int) -> bool:
        with self._lock:
            return chunk_index in self._quarantined

    def quarantined(self) -> Dict[int, StreamingError]:
        with self._lock:
            return dict(self._quarantined)

    def _quarantine(self, chunk: ChunkMeta, error: StreamingError) -> None:
        with self._lock:
            fresh = chunk.index not in self._quarantined
            self._quarantined[chunk.index] = error
        if fresh and obs.enabled():
            obs.counter("streaming.chunks.quarantined", var=self.layout.id)

    def _release(self, chunk: ChunkMeta) -> None:
        with self._lock:
            self._quarantined.pop(chunk.index, None)

    # -- the read pipeline -------------------------------------------------

    def _attempt(self, chunk: ChunkMeta, attempt: int) -> np.ndarray:
        labels = {"var": self.layout.id, "chunk": chunk.index, "attempt": attempt}
        faults.check("streaming.read", **labels)
        payload = self.source.read_stored(chunk.member)
        fault = faults.check("streaming.verify", **labels)
        if fault is not None and fault.action == "corrupt":
            payload = _flip_byte(payload)
        try:
            verify_digest(chunk.member, payload, chunk.digest)
        except ChunkCorruptionError:
            if obs.enabled():
                obs.counter("streaming.chunks.corrupt", var=self.layout.id)
            raise
        faults.check("streaming.decode", **labels)
        try:
            raw = _npy_load(payload)
        except ValueError as exc:
            raise StreamingError(
                f"chunk {chunk.member!r} failed to decode: {exc}"
            ) from exc
        expected = self.layout.chunk_shape(chunk)
        if tuple(raw.shape) != expected:
            raise StreamingError(
                f"chunk {chunk.member!r} decoded to shape {tuple(raw.shape)}, "
                f"manifest says {expected}"
            )
        raw.flags.writeable = False
        return raw

    def read_chunk(self, chunk: ChunkMeta) -> np.ndarray:
        """The verified decoded payload of *chunk* (raw, missing-filled).

        Retries under the config's policy; quarantines on exhaustion
        and re-raises the final failure.  A success clears any prior
        quarantine.  Returned arrays are shared (with every slab view
        of the chunk), so they are read-only.
        """
        counter = {"attempt": 0}

        def attempt() -> np.ndarray:
            counter["attempt"] += 1
            return self._attempt(chunk, counter["attempt"])

        def on_retry(attempt_no: int, exc: BaseException, delay: float) -> None:
            if obs.enabled():
                obs.counter("streaming.chunks.retried", var=self.layout.id)

        try:
            raw = self._policy.run(
                attempt,
                retry_on=RETRYABLE,
                label=f"streaming.read/{self.layout.id}",
                on_retry=on_retry,
            )
        except RETRYABLE as exc:
            error = (
                exc
                if isinstance(exc, StreamingError)
                else StreamingError(
                    f"chunk {chunk.member!r} unreadable after "
                    f"{self.config.read_retries} attempts: {exc}"
                )
            )
            self._quarantine(chunk, error)
            raise error from exc
        self._release(chunk)
        if obs.enabled():
            obs.counter("streaming.chunks.read", var=self.layout.id)
            obs.counter("streaming.chunks.verified", var=self.layout.id)
        return raw

    def read_lowres(self, chunk: ChunkMeta) -> np.ndarray:
        """The upsampled low-resolution fallback payload of *chunk* (read-only).

        Deliberately fault-site-free: this is the emergency path taken
        *because* the full-resolution read is failing.  Still digest
        verified — a corrupt fallback is worse than no fallback.
        """
        if chunk.lowres_member is None:
            raise StreamingError(
                f"chunk {chunk.member!r} has no low-resolution fallback"
            )
        payload = self.source.read_stored(chunk.lowres_member)
        verify_digest(chunk.lowres_member, payload, chunk.lowres_digest)
        try:
            lowres = _npy_load(payload)
        except ValueError as exc:
            raise StreamingError(
                f"lowres chunk {chunk.lowres_member!r} failed to decode: {exc}"
            ) from exc
        full = upsample(
            lowres,
            self.layout.chunk_shape(chunk),
            self.layout.chunk_axis,
            chunk.lowres_factor,
        )
        if obs.enabled():
            obs.counter("streaming.chunks.lowres", var=self.layout.id)
        full.flags.writeable = False
        return full
