"""Fixtures for the analysis suite.

Every prefetch thread has an owner: a test that leaves a
``streaming-prefetch-*`` thread alive behind it fails.  A streamed
dataset's prefetch threads stop when the dataset is closed, so close
every dataset a test opens (``with open_dataset(...)``).
"""

from __future__ import annotations

import threading

import pytest

#: the name prefix of a :class:`~repro.streaming.prefetch.Prefetcher` thread
PREFETCH_THREAD_PREFIX = "streaming-prefetch-"


@pytest.fixture(autouse=True)
def prefetch_threads_are_joined():
    """Fail a test that leaves a prefetch thread alive behind it."""
    before = set(threading.enumerate())
    yield
    alive = sorted(
        thread.name
        for thread in threading.enumerate()
        if thread not in before
        and thread.name.startswith(PREFETCH_THREAD_PREFIX)
        and thread.is_alive()
    )
    if alive:
        pytest.fail(f"prefetch threads outlived their test: {alive}")
