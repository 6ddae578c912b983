"""A scan reads on its caller's thread; a cursor runs the prefetch thread.

A reduction consumes every chunk in storage order as fast as it can
compute, so a lookahead thread buys it nothing: every single-variable
reduction of the differential table runs over a fresh streamed dataset
and starts no thread and creates no :class:`~repro.streaming.prefetch.Prefetcher`.
Indexing (``lazy[t]``, the animation and serving cursor) still starts
the variable's ``streaming-prefetch-*`` thread, and a hint still steers
it.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cdat.registry import default_registry
from repro.cdms.dataset import open_dataset
from repro.cdms.storage import write_cdz
from tests.cdat.test_streaming_reductions import CASES, make_fields, run_case

#: the reductions of the differential table that read one streamed variable
SINGLE_VARIABLE = sorted(
    name
    for name, (_kwargs, wants_condition) in CASES.items()
    if not wants_condition and default_registry().get(name).n_variables == 1
)


def started_since(before: set) -> list:
    """Threads alive now that were not before (others may end meanwhile)."""
    return sorted(t.name for t in threading.enumerate() if t not in before)


@pytest.fixture()
def container(tmp_path):
    path = tmp_path / "scan.cdz"
    ta, _tb = make_fields()
    write_cdz(path, [ta], dataset_id="scan", chunk_timesteps=5)
    return path


def test_the_table_has_single_variable_reductions():
    assert {"anomalies", "axis_average", "running_mean", "variance"} <= set(SINGLE_VARIABLE)
    assert "percentile" in SINGLE_VARIABLE  # gathers the variable: a scan too


@pytest.mark.parametrize("name", SINGLE_VARIABLE)
def test_a_scan_starts_no_thread(container, name):
    before = set(threading.enumerate())
    with open_dataset(container, streaming="on") as dataset:
        lazy = dataset.get_variable("ta")
        assert lazy.slab_count() > 1
        run_case(name, dataset)
        assert started_since(before) == []
        assert dataset.streaming_source._prefetchers == {}


def test_a_cursor_starts_its_prefetch_thread_and_a_hint_steers_it(container):
    before = set(threading.enumerate())
    with open_dataset(container, streaming="on") as dataset:
        lazy = dataset.get_variable("ta")
        lazy[0]
        assert started_since(before) == ["streaming-prefetch-ta"]
        prefetcher = dataset.streaming_source.prefetcher("ta")
        target = lazy.layout.chunk_of(17).index
        lazy.prefetch_hint(17)
        assert prefetcher._cursor == target
        deadline = time.monotonic() + 5.0
        while target not in prefetcher._slots and time.monotonic() < deadline:
            time.sleep(0.01)
        assert target in prefetcher._slots
    assert started_since(before) == []
