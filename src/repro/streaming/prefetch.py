"""Empty: kept only so ``benchmarks/e2e/layers.py`` can import and wrap it.

Every streamed chunk is read on its caller's thread by
:meth:`repro.streaming.reader.ChunkReader.read_chunk`; nothing here runs.
"""


class Prefetcher:
    def get(self, chunk_index: int) -> None:
        """Never called: nothing constructs a :class:`Prefetcher`."""
