"""Chaos: armed fault sites plus a permanently corrupt chunk on disk.

The acceptance scenario from the issue: with ``streaming.read`` /
``streaming.verify`` faults armed at a 10% rate and one chunk whose
bytes are flipped in the container itself, a 20-frame animation must
complete without an exception, account every frame in the
``streaming.frames.*`` counters, and — once faults are disarmed —
recover frames byte-identical to the in-memory render.
"""

from __future__ import annotations

import zipfile

import numpy as np
import pytest

from repro import obs
from repro.cdms.dataset import open_dataset
from repro.cdms.storage import write_cdz
from repro.dv3d import Animator, DV3DCell, SlicerPlot, StreamingAnimator
from repro.resilience import faults
from repro.streaming.config import StreamingConfig
from repro.streaming.format import content_digest

from .conftest import make_variable


NTIME = 10
FRAMES = 20
FAST = StreamingConfig(retry_base_delay=0.0)

CORRUPT_CHUNK = 3
CORRUPT_MEMBER = f"chunks/v000/c{CORRUPT_CHUNK:06d}.npy"


@pytest.fixture()
def pristine(tmp_path):
    path = tmp_path / "pristine.cdz"
    write_cdz(path, [make_variable(ntime=NTIME)], version=2)
    return path


@pytest.fixture()
def corrupted(tmp_path, pristine):
    """A copy of the container with one chunk's bytes flipped on disk."""
    path = tmp_path / "corrupted.cdz"
    with zipfile.ZipFile(pristine) as src, zipfile.ZipFile(path, "w") as dst:
        for info in src.infolist():
            payload = src.read(info.filename)
            if info.filename == CORRUPT_MEMBER:
                flipped = bytearray(payload)
                flipped[len(flipped) // 2] ^= 0xFF
                payload = bytes(flipped)
            dst.writestr(info, payload)
    return path


def arm_ten_percent():
    # each fault skips 9 checks then fires once; chained they fire on
    # every 10th visit to the site — the issue's "10% of reads" rate
    for _ in range(3):
        faults.arm("streaming.read", "raise", after=9, times=1)
    for _ in range(3):
        faults.arm("streaming.verify", "corrupt", after=9, times=1)


class TestChaosRun:
    def test_animation_survives_and_accounts_every_frame(self, corrupted):
        obs.enable()
        arm_ten_percent()
        with open_dataset(corrupted, streaming="on", streaming_config=FAST) as ds:
            animator = StreamingAnimator(SlicerPlot(ds.get_variable("ta")))
            frames, records = animator.render_frames_with_status(count=FRAMES)

        assert len(frames) == FRAMES
        assert len(records) == FRAMES

        # the animation wraps the 10 timesteps twice; both visits to the
        # corrupt chunk must degrade to the verified low-res companion
        assert records[CORRUPT_CHUNK].status == "degraded"
        assert records[CORRUPT_CHUNK].source == "lowres"
        assert records[CORRUPT_CHUNK + NTIME].status == "degraded"

        recorder = obs.get_recorder()
        n_ok = sum(1 for r in records if r.status == "ok")
        n_degraded = sum(1 for r in records if r.status == "degraded")
        assert n_ok + n_degraded == FRAMES
        assert recorder.counter_total("streaming.frames.ok") == n_ok
        assert recorder.counter_total("streaming.frames.degraded") == n_degraded
        assert recorder.counter_total("streaming.chunks.corrupt") >= 1

    def test_recovery_is_byte_identical_after_disarm(self, pristine):
        eager = Animator(
            SlicerPlot(open_dataset(pristine, streaming="off").get_variable("ta"))
        ).render_frames(count=FRAMES)

        with open_dataset(pristine, streaming="on", streaming_config=FAST) as ds:
            animator = StreamingAnimator(SlicerPlot(ds.get_variable("ta")))
            faults.arm("streaming.read", "raise", match={"chunk": 4}, times=0)
            arm_ten_percent()
            degraded_frames, degraded_records = animator.render_frames_with_status(
                count=FRAMES
            )
            assert any(r.status == "degraded" for r in degraded_records)

            faults.disarm()
            animator.plot.invalidate()
            healed, records = animator.render_frames_with_status(count=FRAMES)

        assert all(r.status == "ok" for r in records)
        for index, (a, b) in enumerate(zip(healed, eager)):
            assert np.array_equal(a, b), f"frame {index} not recovered"

    def test_a_degraded_volume_does_not_outlive_its_frame(self, pristine):
        """The lowres rung must not leave the low-resolution volume (or a
        scene or frame made from it) behind: with the chunk readable
        again, the same time index — no step in between to drop it —
        renders the healthy picture, for a bare plot and a furnished cell."""
        index = 4
        eager = SlicerPlot(open_dataset(pristine, streaming="off").get_variable("ta"))
        eager.set_time_index(index)
        oracles = {"plot": eager, "cell": DV3DCell(eager)}

        for kind, oracle in oracles.items():
            with open_dataset(pristine, streaming="on", streaming_config=FAST) as ds:
                plot = SlicerPlot(ds.get_variable("ta"))
                plot.set_time_index(index)
                animator = StreamingAnimator(plot if kind == "plot" else DV3DCell(plot))
                faults.arm("streaming.read", "raise", match={"chunk": index}, times=0)
                low, records = animator.render_frames_with_status(start=index, count=1)
                assert (records[0].status, records[0].source) == ("degraded", "lowres")

                faults.disarm()
                healed, records = animator.render_frames_with_status(start=index, count=1)
            assert (records[0].status, records[0].source) == ("ok", "stream")
            camera = eager.default_camera()
            expected = oracle.render(320, 240, camera=camera).to_uint8()
            assert np.array_equal(healed[0], expected), kind
            assert not np.array_equal(low[0], expected), kind  # it was degraded

    def test_corrupt_container_still_round_trips_elsewhere(self, corrupted, pristine):
        # the flip is real: the on-disk digest no longer matches
        with zipfile.ZipFile(corrupted) as archive:
            import json

            manifest = json.loads(archive.read("manifest.json"))
            row = manifest["variables"][0]["chunks"][CORRUPT_CHUNK]
            assert content_digest(archive.read(CORRUPT_MEMBER)) != row["digest"]
