"""Shared fixtures: small, deterministic datasets and pipelines.

Sizes are deliberately tiny (tens of points per axis) so the full suite
runs in seconds; every generator is seeded, so failures reproduce.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cdms.axis import level_axis, time_axis, uniform_latitude, uniform_longitude
from repro.cdms.variable import Variable
from repro.data.catalog import storm_case_study, synthetic_reanalysis, wave_case_study
from repro.workflow.pipeline import Pipeline
from repro.workflow.registry import global_registry

SMALL = {"nlat": 16, "nlon": 24, "nlev": 5, "ntime": 4}

#: the shared per-user cache location no test may ever write to
_SHARED_CACHE = Path.home() / ".cache" / "repro"

#: thread-name prefixes whose owners must join them on close
OWNED_THREAD_PREFIXES = ("repro-serving", "repro-wire", "repro-executor")
#: how long a closing owner's threads get to finish unwinding
JOIN_GRACE_S = 1.0


def _shared_cache_entries() -> set:
    if not _SHARED_CACHE.exists():
        return set()
    return set(_SHARED_CACHE.rglob("*"))


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Keep every test's disk-tier entries out of the shared location.

    The default disk-tier path is redirected into this test's
    ``tmp_path`` (forked subprocesses inherit the environment
    variable), so a cache built without an explicit ``path`` writes
    there, and none can leak into the shared per-user location.
    """
    from repro.cache import config as cache_config

    monkeypatch.setenv(cache_config.CACHE_DIR_ENV, str(tmp_path / "repro-cache"))
    shared_before = _shared_cache_entries()
    yield
    leaked = _shared_cache_entries() - shared_before
    assert not leaked, f"test leaked cache entries into {_SHARED_CACHE}: {sorted(leaked)}"


@pytest.fixture(autouse=True)
def serving_threads_are_joined():
    """Fail a test that leaves an owned thread alive behind it.

    Every such thread has an owner: the wire endpoint's loop thread
    (``repro-wire*``) stops when its endpoint closes, and an executor
    pool thread (``repro-executor*``) when its ``execute`` call
    returns, so close what a test starts (``async with``, ``with
    WireSessionServer``).  A serving server renders on its event loop
    and starts no thread; ``repro-serving*`` stays guarded so one
    that comes back is caught.
    """
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + JOIN_GRACE_S
    left = [
        thread
        for thread in threading.enumerate()
        if thread not in before and thread.name.startswith(OWNED_THREAD_PREFIXES)
    ]
    for thread in left:
        thread.join(timeout=max(deadline - time.monotonic(), 0.0))
    alive = sorted(thread.name for thread in left if thread.is_alive())
    if alive:
        pytest.fail(f"threads outlived their owner: {alive}")


def pytest_addoption(parser):
    parser.addoption(
        "--regen-goldens",
        nargs="?",
        const="all",
        default=None,
        metavar="PLOTS",
        help=(
            "rewrite golden images under tests/goldens/ instead of comparing. "
            "Bare flag regenerates every plot type; pass a comma-separated "
            "subset (e.g. --regen-goldens=volume,isosurface) to regenerate "
            "only those.  Each rewrite prints a changed-pixel summary vs the "
            "previous golden."
        ),
    )


@pytest.fixture(scope="session")
def registry():
    return global_registry()


@pytest.fixture(scope="session")
def reanalysis():
    """A small multi-variable global dataset (session-cached)."""
    return synthetic_reanalysis(**SMALL, seed="test-reanalysis")


@pytest.fixture(scope="session")
def storm():
    return storm_case_study(nlat=24, nlon=24, nlev=8, ntime=4, seed="test-storm")


@pytest.fixture(scope="session")
def waves():
    return wave_case_study(nlon=48, nlat=12, ntime=40, seed="test-waves")


@pytest.fixture()
def ta(reanalysis):
    """The temperature variable of the small reanalysis."""
    return reanalysis("ta")


@pytest.fixture()
def simple_variable():
    """A tiny fully-deterministic 4-D variable with a masked corner."""
    lat = uniform_latitude(8)
    lon = uniform_longitude(12)
    lev = level_axis([1000.0, 500.0, 100.0])
    t = time_axis(np.arange(3) * 30.0)
    rng = np.random.default_rng(7)
    data = np.ma.MaskedArray(rng.normal(280.0, 10.0, size=(3, 3, 8, 12)))
    data[0, 0, 0, 0] = np.ma.masked
    return Variable(data, (t, lev, lat, lon), id="tvar", units="K")


def build_cell_chain(pipeline: Pipeline, width: int = 96, height: int = 72,
                     plot: str = "Slicer", variable: str = "ta") -> dict:
    """Append one reader→variable→plot→cell chain; returns the module ids."""
    reader = pipeline.add_module(
        "CDMSDatasetReader", {"source": "synthetic_reanalysis", "size": dict(SMALL)}
    )
    var = pipeline.add_module("CDMSVariableReader", {"variable": variable})
    plot_id = pipeline.add_module(plot)
    cell = pipeline.add_module("DV3DCell", {"width": width, "height": height})
    pipeline.add_connection(reader, "dataset", var, "dataset")
    pipeline.add_connection(var, "variable", plot_id, "variable")
    pipeline.add_connection(plot_id, "plot", cell, "plot")
    return {"reader": reader, "variable": var, "plot": plot_id, "cell": cell}


@pytest.fixture()
def cell_pipeline(registry):
    """A single-cell DV3D workflow ready to execute."""
    pipeline = Pipeline(registry)
    ids = build_cell_chain(pipeline)
    return pipeline, ids
