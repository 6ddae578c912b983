"""The lazy streaming variable: a :class:`Variable` that owns no array.

A :class:`LazyVariable` presents the full Variable protocol — axes,
attributes, indexing, coordinate subsetting, scalar ranges — while its
payload lives in a chunked v2 ``.cdz`` container.  Indexing reads only
the chunks covering the request (through the variable's bounded-memory
:class:`~repro.streaming.prefetch.Prefetcher`, whose thread runs ahead
of a cursor moving at display rate) and returns an ordinary
in-memory :class:`Variable`, byte-identical to what slicing the eagerly
loaded equivalent would produce — the correctness contract the
differential tests pin.  A request inside one chunk is a read-only
view of the verified chunk, not a copy; ``clone()`` gives a writable
one.  A chunk the manifest counts as wholly valid and finite gets no
mask at all.

Operations that genuinely need the whole array (arithmetic, global
reductions) still work: the ``_data`` escape hatch materializes the
full variable once, counts ``streaming.materialize.full`` so the leak
is observable, and caches it.  Folds should use :meth:`iter_slabs`
instead, which walks the chunk table one chunk at a time and yields
each chunk's masked array, no :class:`Variable` around it.  A scan
consumes every chunk in storage order as fast as it can compute, so it
reads each one on the caller's thread: it starts no prefetch thread.

The :meth:`degraded` context arms the degradation ladder: inside it, a
chunk whose full-resolution read fails (after retries) is substituted
by its verified low-resolution companion instead of raising — the hook
:class:`~repro.dv3d.animation.StreamingAnimator` uses to keep an
animation running over a corrupt chunk.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional, Tuple

import numpy as np

from repro import obs
from repro.cdms.storage import mask_missing
from repro.cdms.variable import Variable
from repro.util.errors import StreamingError

if TYPE_CHECKING:  # repro.streaming imports repro.cdms: annotations only
    from repro.streaming.dataset import StreamingSource
    from repro.streaming.format import ChunkMeta, VariableLayout


class LazyVariable(Variable):
    """A Variable whose slabs materialize on demand from a v2 container."""

    def __init__(self, source: StreamingSource, layout: VariableLayout) -> None:
        # deliberately no super().__init__: there is no array to bind.
        self.id = layout.id
        # parse_layouts proved every dimension names one of the source's axes
        self._axes = tuple(source.axes[dim] for dim in layout.dimensions)
        self.missing_value = float(layout.missing_value)
        self.attributes: Dict[str, object] = dict(layout.attributes)
        self.source = source
        self.layout = layout
        self._materialized: Optional[np.ma.MaskedArray] = None
        self._degraded_depth = 0

    # -- structure (no payload access) ------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.layout.shape

    @property
    def ndim(self) -> int:
        return len(self.layout.shape)

    @property
    def dtype(self) -> np.dtype:
        return self.layout.dtype

    @property
    def size(self) -> int:
        return int(np.prod(self.layout.shape, dtype=np.int64))

    def finite_range(self) -> Optional[Tuple[float, float]]:
        """Scalar range from manifest statistics — no payload reads."""
        return self.layout.finite_range()

    def slab_count(self) -> int:
        return self.layout.n_chunks

    def slab_axis(self) -> int:
        return int(self.layout.chunk_axis)

    def iter_slabs(self) -> Iterator[np.ma.MaskedArray]:
        """Each chunk in storage order, read on the caller's thread."""
        whole = (slice(None),) * self.ndim
        for chunk in self.layout.chunks:
            yield self._chunk_view(chunk, whole, prefetch=False)

    def prefetch_hint(self, axis_index: int) -> None:
        """Hint that *axis_index* along the chunk axis is wanted next.

        The session-serving speculation hook: a backend predicting an
        animating session's next timestep steers this variable's
        prefetch pipeline toward the chunk holding it (a no-op when
        prefetch is off or the index is out of range — hints are
        advisory, never errors).
        """
        if not self.source.config.prefetch:
            return
        axis_len = self.shape[self.layout.chunk_axis]
        if not 0 <= axis_index < axis_len:
            return
        chunk = self.layout.chunk_of(axis_index)
        self.source.prefetcher(self.id).hint(chunk.index)

    # -- the degradation ladder hook ---------------------------------------

    @contextlib.contextmanager
    def degraded(self) -> Iterator["LazyVariable"]:
        """Within this context, unreadable chunks fall back to low-res."""
        self._degraded_depth += 1
        try:
            yield self
        finally:
            self._degraded_depth -= 1

    # -- chunk delivery -----------------------------------------------------

    def _chunk_view(
        self, chunk: ChunkMeta, index: Tuple[slice, ...], prefetch: bool
    ) -> np.ma.MaskedArray:
        """``payload[index]`` of *chunk*: a read-only view, masked once.

        With *prefetch* the chunk comes through the variable's
        :class:`~repro.streaming.prefetch.Prefetcher` (its cursor moves
        here), otherwise straight from the reader on this thread.
        A chunk whose manifest counts every value valid and finite gets
        ``nomask`` (the writer counted with the same :func:`mask_missing`
        rule); any other chunk, and every low-resolution fallback, has
        its mask computed on the requested view only.
        """
        try:
            if prefetch:
                raw = self.source.prefetcher(self.id).get(chunk.index)
            else:
                raw = self.source.reader(self.id).read_chunk(chunk)
            full = chunk.stat_valid == raw.size
        except StreamingError:
            if self._degraded_depth <= 0:
                raise
            if obs.enabled():
                obs.counter("streaming.slabs.degraded", var=self.id)
            raw = self.source.reader(self.id).read_lowres(chunk)
            full = False
        view = raw[index]
        if full:
            return np.ma.MaskedArray(view, fill_value=self.missing_value)
        return mask_missing(view, self.missing_value)

    # -- indexing -----------------------------------------------------------

    def __getitem__(self, key: Any) -> Variable:
        """A cursor read: the chunks come through the prefetch pipeline
        (read inline when the config turns prefetch off)."""
        return self._select(key, prefetch=self.source.config.prefetch)

    def _select(self, key: Any, prefetch: bool) -> Variable:
        """``self[key]``; *prefetch* False reads on the caller's thread.

        A scan of the whole variable (:func:`repro.cdms.slabs.materialize`,
        :func:`repro.cdms.slabs.iter_aligned_slabs`, the ``_data`` escape
        hatch) reads this way; only a cursor runs the prefetch thread.
        """
        index = self._index(key)
        axes = self._sub_axes(index)  # raises on an empty selection
        axis = self.layout.chunk_axis
        selected = range(*index[axis].indices(self.shape[axis]))
        step = selected.step
        pieces = []
        i = 0
        while i < len(selected):
            chunk = self.layout.chunk_of(selected[i])
            # the run of selected indices inside this chunk, as a slice of it
            edge = chunk.stop if step > 0 else chunk.start - 1
            run = selected[i : i + len(range(selected[i], edge, step))]
            stop = run[-1] - chunk.start + (1 if step > 0 else -1)
            local = slice(run[0] - chunk.start, stop if stop >= 0 else None, step)
            pieces.append(
                self._chunk_view(
                    chunk, index[:axis] + (local,) + index[axis + 1 :], prefetch
                )
            )
            i += len(run)
        if len(pieces) == 1:
            data = pieces[0]
        else:
            data = np.ma.concatenate(pieces, axis=axis)
            data.fill_value = self.missing_value
        return Variable(
            data,
            axes,
            id=self.id,
            missing_value=self.missing_value,
            attributes=dict(self.attributes),
        )

    # -- copying -------------------------------------------------------------

    def clone(self, deep: bool = True) -> "LazyVariable":
        """A new lazy handle onto the same container — no payload reads.

        ``deep`` is accepted for protocol compatibility; the payload is
        immutable on disk, so there is nothing to copy either way.  This
        is what lets the calculator workspace hold (and rename) streamed
        variables without materializing them.
        """
        twin = LazyVariable(self.source, self.layout)
        twin.id = self.id
        twin.attributes = dict(self.attributes)
        twin._materialized = self._materialized
        return twin

    # -- full materialization (the observable escape hatch) -----------------

    @property
    def _data(self) -> np.ma.MaskedArray:
        if self._materialized is None:
            if obs.enabled():
                obs.counter("streaming.materialize.full", var=self.id)
            index = tuple(slice(None) for _ in range(self.ndim))
            self._materialized = self._select(index, prefetch=False).data
        return self._materialized

    # -- transport ----------------------------------------------------------

    def __reduce__(self) -> Tuple[object, ...]:
        return (
            _rebuild_lazy,
            (str(self.source.path), self.source.config, self.id),
        )


def _rebuild_lazy(path: str, config, var_id: str) -> LazyVariable:
    from repro.streaming.dataset import StreamingSource

    source = StreamingSource(path, config)
    return LazyVariable(source, source.layout(var_id))
