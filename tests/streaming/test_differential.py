"""The byte-identity contract: streaming animation == in-memory animation.

Each of the five DV3D plot types is rendered twice over the same saved
v2 container — once through the eager ``Dataset.load`` path, once
through lazy streaming variables — and every frame must match byte for
byte.  A second pass pins the memory side: a dataset at least 4x the
configured budget streams through one chunk per frame, each read
holding a chunk under that budget, and nothing is materialized whole.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.cdms.dataset import open_dataset
from repro.data import catalog
from repro.dv3d import (
    Animator,
    HovmollerSlicerPlot,
    IsosurfacePlot,
    SlicerPlot,
    StreamingAnimator,
    VectorSlicerPlot,
    VolumePlot,
)
from repro.streaming.config import StreamingConfig


SIZE = dict(nlat=24, nlon=36, nlev=6, ntime=6)
WAVE_SIZE = dict(nlon=48, nlat=16, ntime=10)


@pytest.fixture(scope="module")
def reanalysis_v2(tmp_path_factory):
    path = tmp_path_factory.mktemp("diff") / "reanalysis.cdz"
    catalog.synthetic_reanalysis(**SIZE).save(path, version=2)
    return path


@pytest.fixture(scope="module")
def wave_v2(tmp_path_factory):
    path = tmp_path_factory.mktemp("diff") / "wave.cdz"
    catalog.wave_case_study(**WAVE_SIZE).save(path, version=2)
    return path


def render_both(make_plot, path, count=3, **animator_kwargs):
    eager_ds = open_dataset(path, streaming="off")
    eager_frames = Animator(make_plot(eager_ds)).render_frames(
        count=count, **animator_kwargs
    )
    with open_dataset(path, streaming="on") as lazy_ds:
        animator = StreamingAnimator(make_plot(lazy_ds))
        lazy_frames, records = animator.render_frames_with_status(
            count=count, **animator_kwargs
        )
    assert all(r.status == "ok" for r in records), records
    return eager_frames, lazy_frames


def assert_frames_identical(eager_frames, lazy_frames):
    assert len(eager_frames) == len(lazy_frames)
    for index, (a, b) in enumerate(zip(eager_frames, lazy_frames)):
        assert a.shape == b.shape
        assert np.array_equal(a, b), f"frame {index} diverged"


class TestFiveWorkloads:
    def test_volume(self, reanalysis_v2):
        assert_frames_identical(
            *render_both(
                lambda ds: VolumePlot(
                    ds.get_variable("ta"), center=0.3, width=0.5
                ),
                reanalysis_v2,
            )
        )

    def test_isosurface(self, reanalysis_v2):
        assert_frames_identical(
            *render_both(
                lambda ds: IsosurfacePlot(
                    ds.get_variable("ta"),
                    color_variable=ds.get_variable("hus"),
                ),
                reanalysis_v2,
            )
        )

    def test_slicer(self, reanalysis_v2):
        assert_frames_identical(
            *render_both(
                lambda ds: SlicerPlot(ds.get_variable("ta")), reanalysis_v2
            )
        )

    def test_vector_slicer(self, reanalysis_v2):
        assert_frames_identical(
            *render_both(
                lambda ds: VectorSlicerPlot(
                    ds.get_variable("ua"),
                    ds.get_variable("va"),
                    mode="streamlines",
                    seed_density=3,
                ),
                reanalysis_v2,
            )
        )

    def test_hovmoller(self, wave_v2):
        assert_frames_identical(
            *render_both(
                lambda ds: HovmollerSlicerPlot(ds.get_variable("olr_anom")),
                wave_v2,
            )
        )


class TestMemoryBound:
    def test_peak_resident_under_budget(self, reanalysis_v2, monkeypatch):
        probe = open_dataset(reanalysis_v2, streaming="on")
        layout = probe.streaming_source.layout("ta")
        dataset_bytes = layout.total_nbytes()
        budget = max(layout.max_chunk_nbytes(), dataset_bytes // 4)
        assert dataset_bytes >= 4 * budget or budget == layout.max_chunk_nbytes()
        probe.close()

        config = StreamingConfig(memory_budget_bytes=budget)
        with obs.recording() as recorder, open_dataset(
            reanalysis_v2, streaming="on", streaming_config=config
        ) as ds:
            reader = ds.streaming_source.reader("ta")
            held = []
            real_read = reader.read_chunk

            def read_chunk(chunk):
                raw = real_read(chunk)
                held.append(raw.nbytes)
                return raw

            monkeypatch.setattr(reader, "read_chunk", read_chunk)
            plot = SlicerPlot(ds.get_variable("ta"))
            StreamingAnimator(plot).render_frames(count=SIZE["ntime"])
        assert len(held) == SIZE["ntime"]  # one chunk a frame
        assert recorder.counter_total("streaming.chunks.read") == len(held)
        assert recorder.counter_total("streaming.materialize.full") == 0
        assert max(held) <= budget
        assert dataset_bytes >= 4 * max(held)
