"""Fault-tolerant out-of-core streaming over the chunked ``.cdz`` format.

The paper's claim is interactive exploration of datasets far larger
than a workstation's memory; this package supplies the missing layer
between the ``.cdz`` container and the DV3D animation loop:

* :mod:`repro.streaming.format` — the container (format v2, the one
  format written; v1 is read-only legacy): per-timestep
  chunks with manifest-pinned sha256 content digests, per-chunk
  finite-value statistics (scalar ranges without payload reads), and
  low-resolution fallback companions;
* :mod:`repro.streaming.reader` — read → verify → decode per chunk
  under a :class:`~repro.resilience.policy.RetryPolicy`, with named
  fault sites (``streaming.read`` / ``streaming.verify`` /
  ``streaming.decode``) and quarantine-and-heal semantics; it is the
  only way a chunk's bytes become an array, and it keeps nothing;
* :mod:`repro.streaming.prefetch` — a byte-budgeted background
  pipeline running ahead of the animation cursor with backpressure;
* :mod:`repro.streaming.dataset` — archive-level access handing out
  per-variable readers and prefetchers;
* :mod:`repro.streaming.config` — the frozen
  :class:`StreamingConfig` value object.

The consumer-facing entry points live in :mod:`repro.cdms`:
``open_dataset(path, streaming=True)`` yields lazy variables whose
slabs materialize through this package; ``streaming=False`` reads
every chunk through the same reader and closes it, so the two agree to
the byte; :class:`repro.dv3d.animation.StreamingAnimator` adds
the degradation ladder (retry → low-res substitute → previous verified
frame → blank) so corruption never aborts an animation.
"""

from repro.streaming.config import DEFAULT_MEMORY_BUDGET, StreamingConfig
from repro.streaming.dataset import StreamingSource
from repro.streaming.format import (
    DEFAULT_CHUNK_TIMESTEPS,
    DEFAULT_LOWRES_FACTOR,
    ChunkMeta,
    VariableLayout,
    content_digest,
    write_archive_v2,
)
from repro.streaming.prefetch import Prefetcher
from repro.streaming.reader import ChunkReader
from repro.util.errors import ChunkCorruptionError, StreamingError

__all__ = [
    "DEFAULT_CHUNK_TIMESTEPS",
    "DEFAULT_LOWRES_FACTOR",
    "DEFAULT_MEMORY_BUDGET",
    "ChunkCorruptionError",
    "ChunkMeta",
    "ChunkReader",
    "Prefetcher",
    "StreamingConfig",
    "StreamingError",
    "StreamingSource",
    "VariableLayout",
    "content_digest",
    "write_archive_v2",
]
