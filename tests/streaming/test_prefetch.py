"""The prefetch pipeline: window sizing, budget bounds, error parking."""

from __future__ import annotations

import threading
import time

import pytest

from repro.resilience import faults
from repro.streaming.config import StreamingConfig
from repro.streaming.dataset import StreamingSource
from repro.util.errors import StreamingError


def chunk_bytes(source: StreamingSource) -> int:
    return source.layout("ta").max_chunk_nbytes()


def wait_until(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestWindowSizing:
    def test_window_clamped_by_budget(self, v2_path):
        probe = StreamingSource(v2_path)
        per_chunk = chunk_bytes(probe)
        # room for exactly (1 served + 2 ahead)
        config = StreamingConfig(
            memory_budget_bytes=3 * per_chunk, prefetch_depth=8
        )
        with StreamingSource(v2_path, config) as source:
            assert source.prefetcher("ta").window == 2

    def test_window_clamped_by_depth(self, v2_path):
        config = StreamingConfig(prefetch_depth=3)
        with StreamingSource(v2_path, config) as source:
            assert source.prefetcher("ta").window == 3

    def test_prefetch_disabled(self, v2_path):
        config = StreamingConfig(prefetch=False)
        with StreamingSource(v2_path, config) as source:
            prefetcher = source.prefetcher("ta")
            assert prefetcher.window == 0
            assert prefetcher._thread is None

    def test_chunk_over_budget_rejected(self, v2_path):
        probe = StreamingSource(v2_path)
        config = StreamingConfig(memory_budget_bytes=chunk_bytes(probe) - 1)
        with pytest.raises(StreamingError, match="budget"):
            StreamingSource(v2_path, config).prefetcher("ta")


class TestDelivery:
    def test_sequential_scan_stays_under_budget(self, v2_path):
        probe = StreamingSource(v2_path)
        per_chunk = chunk_bytes(probe)
        budget = 3 * per_chunk
        config = StreamingConfig(memory_budget_bytes=budget, prefetch_depth=8)
        with StreamingSource(v2_path, config) as source:
            prefetcher = source.prefetcher("ta")
            layout = source.layout("ta")
            for index in range(layout.n_chunks):
                value = prefetcher.get(index)
                assert value.shape == layout.chunk_shape(layout.chunks[index])
            assert prefetcher.peak_resident_bytes <= budget

    def test_lookahead_actually_runs_ahead(self, v2_path):
        config = StreamingConfig(prefetch_depth=2)
        with StreamingSource(v2_path, config) as source:
            prefetcher = source.prefetcher("ta")
            prefetcher.get(0)
            # chunks 1 and 2 should land in the slots without being asked for
            assert wait_until(
                lambda: {1, 2} <= set(prefetcher._slots), timeout=5.0
            )

    def test_wraparound_lookahead(self, v2_path):
        config = StreamingConfig(prefetch_depth=2)
        with StreamingSource(v2_path, config) as source:
            prefetcher = source.prefetcher("ta")
            last = source.layout("ta").n_chunks - 1
            prefetcher.get(last)
            assert wait_until(lambda: {0, 1} <= set(prefetcher._slots))

    def test_cursor_move_evicts_stale_slots(self, v2_path):
        config = StreamingConfig(prefetch_depth=1)
        with StreamingSource(v2_path, config) as source:
            prefetcher = source.prefetcher("ta")
            prefetcher.get(0)
            wait_until(lambda: 1 in prefetcher._slots)
            prefetcher.get(5)
            wait_until(lambda: 6 in prefetcher._slots)
            assert wait_until(
                lambda: set(prefetcher._slots) <= {5, 6}
            ), prefetcher._slots


class TestFailureParking:
    def test_background_error_surfaces_on_get_then_clears(self, v2_path):
        config = StreamingConfig(prefetch_depth=2, retry_base_delay=0.0)
        # arm before the prefetcher exists: its thread starts reading the
        # initial window immediately, and chunk 1 is inside it
        faults.arm("streaming.read", "raise", match={"chunk": 1}, times=0)
        with StreamingSource(v2_path, config) as source:
            prefetcher = source.prefetcher("ta")
            prefetcher.get(0)
            with pytest.raises(StreamingError):
                prefetcher.get(1)
            faults.disarm()
            value = prefetcher.get(1)
            assert value is not None

    def test_program_error_on_the_thread_reaches_get_unchanged(self, v2_path, monkeypatch):
        """A non-streaming exception neither kills the thread nor hangs ``get``."""
        died = []
        monkeypatch.setattr(threading, "excepthook", died.append)
        with StreamingSource(v2_path, StreamingConfig(prefetch_depth=3)) as source:
            reader = source.reader("ta")
            assert reader.layout.n_chunks >= 4
            real_read = reader.read_chunk
            attempted = threading.Event()

            def read_chunk(chunk):
                if chunk.index == 2:
                    if threading.current_thread().name.startswith("streaming-prefetch"):
                        attempted.set()
                    raise MemoryError("chunk 2")
                return real_read(chunk)

            monkeypatch.setattr(reader, "read_chunk", read_chunk)
            prefetcher = source.prefetcher("ta")
            prefetcher.get(0)
            prefetcher.get(1)
            # the background read of chunk 2 has failed before the consumer asks
            assert attempted.wait(5.0)
            # asked from a helper thread, so a hang fails the test instead of hanging it
            raised = []

            def consume():
                try:
                    prefetcher.get(2)
                except MemoryError as exc:
                    raised.append(exc)

            consumer = threading.Thread(target=consume, daemon=True)
            consumer.start()
            consumer.join(1.0)
            assert not consumer.is_alive(), "get(2) still waits on a dead read"
            assert [str(exc) for exc in raised] == ["chunk 2"]
            assert prefetcher.get(3) is not None
            assert prefetcher._thread.is_alive()
        assert died == []

    def test_quarantined_chunk_skipped_by_background(self, v2_path):
        config = StreamingConfig(prefetch_depth=3, retry_base_delay=0.0)
        # arm before the prefetcher's thread can load chunk 2 cleanly
        faults.arm("streaming.read", "raise", match={"chunk": 2}, times=0)
        with StreamingSource(v2_path, config) as source:
            prefetcher = source.prefetcher("ta")
            reader = source.reader("ta")
            with pytest.raises(StreamingError):
                prefetcher.get(2)
            assert reader.is_quarantined(2)
            # the pipeline keeps serving everything around the bad chunk
            prefetcher.get(1)
            assert wait_until(lambda: 3 in prefetcher._slots)
            assert 2 not in prefetcher._slots
