"""The bounded-memory prefetch pipeline.

One :class:`Prefetcher` runs ahead of one consumer cursor (the
animation loop's time index) over one variable's chunk table.  A single
daemon thread pipelines read → verify → decode for the chunks the
cursor is about to want, parking results in a slot map; the consumer's
:meth:`get` serves from the slots, waits on an in-flight chunk, or
falls back to a foreground read.

Backpressure is a byte budget, not a queue length: the effective window
``w`` satisfies ``(w + 1) * max_chunk_bytes <= memory_budget_bytes``
(the ``+1`` is the slab being served), clamped by the configured
``prefetch_depth``.  Moving the cursor evicts every slot outside the
new window — including wrap-around lookahead, so a looping animation
keeps its pipeline warm across the seam.

Failure semantics: background read errors — a typed
:class:`~repro.util.errors.StreamingError` or any other exception, which
is not wrapped — are parked per chunk and re-raised (once) by the
``get`` that wants them, so the degradation ladder runs on the
consumer's thread with full context and the thread lives on; quarantined
chunks are skipped by the background thread (no slot-wasting) but
re-attempted by direct gets, which is how a chunk heals after a
transient fault clears.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.streaming.config import StreamingConfig
from repro.streaming.reader import ChunkReader
from repro.util.errors import StreamingError


class Prefetcher:
    """Pipelined, budget-bounded chunk delivery for one variable."""

    def __init__(self, reader: ChunkReader, config: Optional[StreamingConfig] = None) -> None:
        self.reader = reader
        self.config = config or reader.config
        self.layout = reader.layout
        max_chunk = self.layout.max_chunk_nbytes()
        if max_chunk > self.config.memory_budget_bytes:
            raise StreamingError(
                f"variable {self.layout.id!r}: one chunk is {max_chunk} bytes, "
                f"over the {self.config.memory_budget_bytes}-byte memory budget"
            )
        budget_window = self.config.memory_budget_bytes // max(max_chunk, 1) - 1
        self.window = (
            max(0, min(self.config.prefetch_depth, budget_window))
            if self.config.prefetch
            else 0
        )
        self._cond = threading.Condition()
        self._slots: Dict[int, np.ndarray] = {}
        self._errors: Dict[int, Exception] = {}
        self._inflight: Optional[int] = None
        self._cursor = 0
        self._stopped = False
        self._resident = 0
        self.peak_resident_bytes = 0
        self._thread: Optional[threading.Thread] = None
        if self.window > 0:
            self._thread = threading.Thread(
                target=self._run,
                name=f"streaming-prefetch-{self.layout.id}",
                daemon=True,
            )
            self._thread.start()

    # -- consumer side -----------------------------------------------------

    def get(self, chunk_index: int) -> np.ndarray:
        """The verified payload of chunk *chunk_index*; moves the cursor.

        Raises :class:`StreamingError` when the chunk cannot be
        delivered (after retries) — the caller owns degradation.  Any
        other exception the background read raised is re-raised here
        unchanged: a program error is not a bad chunk.
        """
        chunk = self.layout.chunks[chunk_index]
        with self._cond:
            self._advance(chunk_index)
            while self._inflight == chunk_index:
                self._cond.wait(timeout=0.05)
            error = self._errors.pop(chunk_index, None)
            if error is not None:
                raise error
            value = self._slots.get(chunk_index)
            if value is not None:
                if obs.enabled():
                    obs.counter("streaming.prefetch.hits", var=self.layout.id)
                return value
        if obs.enabled() and self.window > 0:
            obs.counter("streaming.prefetch.misses", var=self.layout.id)
        value = self.reader.read_chunk(chunk)
        with self._cond:
            if chunk_index in self._wanted():
                self._store(chunk_index, value)
        return value

    def hint(self, chunk_index: int) -> None:
        """Steer the lookahead window toward *chunk_index* without reading.

        The serving layer's speculative-render hook: an animating
        session about to ask for timestep ``t+1`` lets the prefetch
        thread start on that chunk before the demand render arrives.
        Identical to the cursor move a :meth:`get` performs — same
        eviction, same byte-budget invariant — minus the read.
        """
        if self.window <= 0:
            return
        if not 0 <= chunk_index < self.layout.n_chunks:
            return
        with self._cond:
            if chunk_index != self._cursor:
                self._advance(chunk_index)
        if obs.enabled():
            obs.counter("streaming.prefetch.hints", var=self.layout.id)

    def _advance(self, cursor: int) -> None:
        """Move the cursor (cond held): evict stale slots, wake the thread."""
        self._cursor = cursor
        wanted = self._wanted()
        for index in list(self._slots):
            if index not in wanted:
                self._resident -= self._slots.pop(index).nbytes
        for index in list(self._errors):
            if index not in wanted:
                self._errors.pop(index)
        if obs.enabled():
            obs.gauge("streaming.resident.bytes", self._resident, var=self.layout.id)
        self._cond.notify_all()

    def _wanted(self) -> List[int]:
        """The cursor plus its lookahead window, wrapping at the end."""
        n = self.layout.n_chunks
        return [(self._cursor + k) % n for k in range(min(self.window + 1, n))]

    def _store(self, index: int, value: np.ndarray) -> None:
        if index not in self._slots:
            self._resident += value.nbytes
        self._slots[index] = value
        if self._resident > self.peak_resident_bytes:
            self.peak_resident_bytes = self._resident
        if obs.enabled():
            obs.gauge("streaming.resident.bytes", self._resident, var=self.layout.id)
            obs.gauge(
                "streaming.prefetch.depth", len(self._slots), var=self.layout.id
            )

    def close(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        with self._cond:
            self._slots.clear()
            self._errors.clear()
            self._resident = 0

    def __enter__(self) -> "Prefetcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- background side ---------------------------------------------------

    def _next_target(self) -> Optional[int]:
        """The nearest wanted chunk not yet delivered (cond held)."""
        for index in self._wanted():
            if index in self._slots or index in self._errors:
                continue
            if self.reader.is_quarantined(index):
                continue
            return index
        return None

    def _run(self) -> None:
        while True:
            with self._cond:
                target = self._next_target()
                while target is None and not self._stopped:
                    self._cond.wait(timeout=0.1)
                    target = self._next_target()
                if self._stopped:
                    return
                self._inflight = target
            value = error = None
            try:
                value = self.reader.read_chunk(self.layout.chunks[target])
            except Exception as exc:  # noqa: BLE001 - parked, re-raised by get()
                error = exc
            finally:
                # whatever ended the read, no consumer may keep waiting on it
                with self._cond:
                    self._inflight = None
                    if target in self._wanted():
                        if error is not None:
                            self._errors[target] = error
                        elif value is not None:
                            self._store(target, value)
                    self._cond.notify_all()
