"""Kernel pool behavior: results, crash containment, timeouts, cleanup.

The crash tests are the reason the pool exists: a worker that is
SIGKILLed mid-tile (simulating OOM kills or segfaults in native code)
must surface a clean :class:`KernelPoolError` — never a hang — and
shared-memory segments must be unlinked regardless of how the run
ends.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro import obs
from repro.parallel import ParallelConfig, run_tiles, shared_ndarray
from repro.parallel.pool import attach_ndarray
from repro.resilience import faults
from repro.util.errors import KernelPoolError

pytestmark = pytest.mark.skipif(
    not ParallelConfig(workers=2).enabled,
    reason="POSIX shared memory unavailable",
)

CFG = ParallelConfig(workers=2, min_items=1, timeout=60.0)


# -- module-level tile functions (must be importable in workers) -------------

def _square(payload, task):
    start, stop = task
    return [payload * i * i for i in range(start, stop)]


def _write_band(shm_name, band):
    b0, b1 = band
    with attach_ndarray(shm_name, (16,), np.float64) as out:
        out[b0:b1] = np.arange(b0, b1)
    return b1 - b0


def _raise_on_second(payload, task):
    if task[0] >= 2:
        raise ValueError(f"tile {task} exploded")
    return task


def _sigkill_on_second(payload, task):
    if task[0] >= 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return task


def _sleep_forever(payload, task):
    time.sleep(60.0)
    return task


class TestResults:
    def test_results_in_task_order(self):
        tasks = [(i, i + 1) for i in range(7)]
        results = run_tiles(ParallelConfig(workers=3), _square, tasks, payload=2)
        assert results == [[2 * i * i] for i in range(7)]

    def test_empty_task_list(self):
        assert run_tiles(CFG, _square, []) == []

    def test_shared_memory_output(self):
        with shared_ndarray((16,), np.float64) as (name, out):
            counts = run_tiles(CFG, _write_band, [(0, 7), (7, 16)], payload=name)
            assert counts == [7, 9]
            assert np.array_equal(out, np.arange(16, dtype=np.float64))


class TestFailureContainment:
    def test_worker_exception_raises_kernel_pool_error(self):
        tasks = [(i, i + 1) for i in range(4)]
        with pytest.raises(KernelPoolError, match="ValueError.*exploded"):
            run_tiles(CFG, _raise_on_second, tasks)

    def test_sigkilled_worker_raises_not_hangs(self):
        tasks = [(i, i + 1) for i in range(4)]
        t0 = time.monotonic()
        with pytest.raises(KernelPoolError, match="died with exit code"):
            run_tiles(CFG, _sigkill_on_second, tasks)
        assert time.monotonic() - t0 < 30.0

    def test_pool_timeout(self):
        cfg = ParallelConfig(workers=2, timeout=0.75)
        t0 = time.monotonic()
        with pytest.raises(KernelPoolError, match="timed out"):
            run_tiles(cfg, _sleep_forever, [(0, 1), (1, 2)])
        assert time.monotonic() - t0 < 20.0

    def test_shared_memory_unlinked_after_crash(self):
        from multiprocessing import shared_memory

        leaked_name = None
        with pytest.raises(KernelPoolError):
            with shared_ndarray((8,), np.float32) as (name, _out):
                leaked_name = name
                run_tiles(CFG, _sigkill_on_second, [(i, i + 1) for i in range(4)])
        assert leaked_name is not None
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=leaked_name)

    def test_no_workers_left_behind(self):
        import multiprocessing

        with pytest.raises(KernelPoolError):
            run_tiles(ParallelConfig(workers=2, timeout=0.75), _sleep_forever, [(0, 1)])
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if not any(
                p.name.startswith("repro-parallel-")
                for p in multiprocessing.active_children()
            ):
                break
            time.sleep(0.05)
        assert not any(
            p.name.startswith("repro-parallel-")
            for p in multiprocessing.active_children()
        )

    def test_no_workers_left_behind_from_executor_thread(self):
        """The serving path runs pools from ThreadPoolExecutor threads;
        a timeout there must tear down just as cleanly as on the main
        thread (the teardown runs in ``finally`` on the calling thread,
        whichever it is)."""
        import multiprocessing
        from concurrent.futures import ThreadPoolExecutor

        def doomed_run():
            run_tiles(
                ParallelConfig(workers=2, timeout=0.75), _sleep_forever, [(0, 1)]
            )

        with ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serving-test"
        ) as pool:
            future = pool.submit(doomed_run)
            with pytest.raises(KernelPoolError, match="timed out"):
                future.result(timeout=30.0)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if not any(
                p.name.startswith("repro-parallel-")
                for p in multiprocessing.active_children()
            ):
                break
            time.sleep(0.05)
        assert not any(
            p.name.startswith("repro-parallel-")
            for p in multiprocessing.active_children()
        )


class TestTileRetry:
    """Worker death recovery: respawn, serial fallback, poisonous tiles.

    All kills are injected deterministically through the fault
    registry: ``fork`` workers inherit the armed faults, and the
    ``attempt`` label confines each kill to one respawn generation.
    """

    @pytest.fixture(autouse=True)
    def clean_registry(self):
        faults.disarm()
        yield
        faults.disarm()

    def test_killed_worker_tiles_retried_to_completion(self):
        # kill the worker running tile 2, original generation only: the
        # replacement (attempt=1) must finish tile 2 and any collateral
        faults.arm("parallel.tile", "exit", match={"tile": 2, "attempt": 0})
        tasks = [(i, i + 1) for i in range(6)]
        results = run_tiles(
            ParallelConfig(workers=2, min_items=1, respawn_budget=2),
            _square, tasks, payload=3,
        )
        assert results == [[3 * i * i] for i in range(6)]

    def test_retry_result_bitwise_identical_via_shared_memory(self):
        faults.arm("parallel.tile", "exit", match={"tile": 1, "attempt": 0})
        with shared_ndarray((16,), np.float64) as (name, out):
            counts = run_tiles(
                ParallelConfig(workers=2, min_items=1, respawn_budget=2),
                _write_band, [(0, 7), (7, 16)], payload=name,
            )
            assert counts == [7, 9]
            assert np.array_equal(out, np.arange(16, dtype=np.float64))

    def test_serial_fallback_when_budget_exhausted(self):
        # budget 0: no replacement allowed; the parent must run the
        # dead worker's tiles itself (the injected kill targets only
        # attempt 0, so the parent-side check does not fire)
        faults.arm("parallel.tile", "exit", match={"tile": 1, "attempt": 0})
        tasks = [(i, i + 1) for i in range(4)]
        results = run_tiles(
            ParallelConfig(workers=2, min_items=1, respawn_budget=0),
            _square, tasks, payload=2,
        )
        assert results == [[2 * i * i] for i in range(4)]

    def test_poisonous_tile_fails_after_two_deaths(self):
        # the kill matches every generation: original dies, replacement
        # dies on the same tile -> poisonous, clean error, no hang
        faults.arm("parallel.tile", "exit", match={"tile": 0}, times=0)
        t0 = time.monotonic()
        with pytest.raises(KernelPoolError, match="died with exit code"):
            run_tiles(
                ParallelConfig(workers=2, min_items=1, respawn_budget=4),
                _square, [(i, i + 1) for i in range(4)], payload=1,
            )
        assert time.monotonic() - t0 < 30.0

    def test_recovery_metrics_emitted(self):
        recorder = obs.enable(obs.Recorder())
        try:
            faults.arm("parallel.tile", "exit", match={"tile": 2, "attempt": 0})
            run_tiles(
                ParallelConfig(workers=2, min_items=1, respawn_budget=2),
                _square, [(i, i + 1) for i in range(6)], payload=1, label="retry",
            )
        finally:
            obs.disable()
        assert recorder.counter_value(
            "resilience.retries", site="parallel.respawn", kernel="retry"
        ) > 0
        assert any(
            k.name == "resilience.recovery.seconds" for k in recorder.histograms
        )
        # every tile is still counted exactly once
        assert recorder.counter_value("parallel.tiles", kernel="retry") == 6

    def test_respawn_budget_validation(self):
        with pytest.raises(KernelPoolError):
            ParallelConfig(respawn_budget=-1)


class TestObservability:
    def test_tiles_counter_and_spans(self):
        recorder = obs.enable(obs.Recorder())
        try:
            tasks = [(i, i + 1) for i in range(5)]
            run_tiles(CFG, _square, tasks, payload=1, label="unit")
        finally:
            obs.disable()
        assert recorder.counter_value("parallel.tiles", kernel="unit") == 5
        runs = [s for s in recorder.spans if s.name == "parallel.run"]
        tile_spans = [s for s in recorder.spans if s.name == "parallel.tile"]
        assert len(runs) == 1
        assert runs[0].attrs["kernel"] == "unit"
        assert runs[0].attrs["tiles"] == 5
        assert len(tile_spans) == 5
        assert all(s.parent_id == runs[0].span_id for s in tile_spans)
        assert all(s.duration >= 0.0 for s in tile_spans)
        hist = recorder.histograms
        assert any(k.name == "parallel.tile.seconds" for k in hist)


class TestConfig:
    def test_validation(self):
        with pytest.raises(KernelPoolError):
            ParallelConfig(workers=0)
        with pytest.raises(KernelPoolError):
            ParallelConfig(timeout=0.0)
        with pytest.raises(KernelPoolError):
            ParallelConfig(min_items=-1)

    def test_wants_floor(self):
        cfg = ParallelConfig(workers=4, min_items=100)
        assert cfg.enabled
        assert not cfg.wants(99)
        assert cfg.wants(100)
        assert not cfg.serial().enabled
        assert not ParallelConfig(workers=1).wants(10**9)

    def test_ambient_config_roundtrip(self):
        from repro.parallel import get_config, use_config

        base = get_config()
        with use_config(ParallelConfig(workers=3)) as cfg:
            assert get_config() is cfg
            assert get_config().workers == 3
        assert get_config() is base
        with use_config(None):
            assert get_config() is base
