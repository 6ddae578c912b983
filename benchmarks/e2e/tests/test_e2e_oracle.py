"""The oracle is live: a corrupted, blank or degraded frame is a failed op."""

import json
from pathlib import Path
from time import perf_counter_ns

import pytest

from benchmarks.e2e import child, oracle
from benchmarks.e2e.script import WORKLOADS, build_script

WIDTH, HEIGHT = WORKLOADS["explore_surface"]["frame"]


def _ppm(width=WIDTH, height=HEIGHT, colours=64):
    pixels = bytearray()
    for i in range(width * height):
        shade = i % colours
        pixels += bytes((shade, 255 - shade, (3 * shade) % 256))
    return f"P6\n{width} {height}\n255\n".encode() + bytes(pixels)


def test_a_good_frame_has_no_failures():
    frame = _ppm()
    assert oracle.frame_failures("ok", oracle.sha256(frame), frame, WIDTH, HEIGHT) == []
    assert oracle.frame_failures("ok", oracle.sha256(frame), frame, WIDTH, HEIGHT,
                                 repeats=oracle.sha256(frame)) == []


def test_a_flipped_payload_byte_fails_the_digest():
    frame = _ppm()
    flipped = bytearray(frame)
    flipped[len(flipped) // 2] ^= 0xFF
    failures = oracle.frame_failures("ok", oracle.sha256(frame), bytes(flipped), WIDTH, HEIGHT)
    assert any("digest" in why for why in failures)


def test_a_blank_frame_fails():
    blank = _ppm(colours=1)
    failures = oracle.frame_failures("ok", oracle.sha256(blank), blank, WIDTH, HEIGHT)
    assert any("distinct colours" in why for why in failures)


def test_a_degraded_frame_fails_on_status_and_on_size():
    small = _ppm(WIDTH // 4, HEIGHT // 4)
    failures = oracle.frame_failures("degraded", oracle.sha256(small), small, WIDTH, HEIGHT)
    assert any("status" in why for why in failures)
    assert any(f"asked {WIDTH}x{HEIGHT}" in why for why in failures)


def test_a_repeat_that_differs_fails():
    frame = _ppm()
    failures = oracle.frame_failures("ok", oracle.sha256(frame), frame, WIDTH, HEIGHT,
                                     repeats="0" * 64)
    assert failures == ["repeat differs from the frame it repeats"]


def test_garbage_is_not_a_ppm():
    assert oracle.frame_failures("ok", "", b"not an image", WIDTH, HEIGHT) == [
        "payload is not a binary PPM"]
    assert oracle.parse_ppm(b"P6\n4 4\n255\n" + b"\0" * 7) is None


def test_sample_indices_spread_over_the_run():
    assert oracle.sample_indices(5) == [0, 1, 2, 3, 4]
    picked = oracle.sample_indices(500)
    assert len(picked) == oracle.REFERENCE_SAMPLES and picked[0] == 0 and picked[-1] == 499


def test_corrupted_blank_and_degraded_frames_are_counted_in_failed(tmp_path, monkeypatch):
    """Through the real child: three sabotaged frames, three failed ops."""
    pytest.importorskip("repro")
    script = build_script("explore_surface", "oracle-test", 1, quick=True)
    timed = [op["i"] for op in script["ops"]
             if op["kind"] == "step" and op["number"] == 1][:3]
    honest = child.WireDriver.run

    def sabotaged(self, op):
        outcome = honest(self, op)
        if op["i"] == timed[0]:  # a byte flipped in flight, past the wire's own check
            flipped = bytearray(outcome.payload)
            flipped[-10] ^= 0xFF
            outcome.payload = bytes(flipped)
        elif op["i"] == timed[1]:  # the blank rung of the degradation ladder
            blank = f"P6\n{WIDTH} {HEIGHT}\n255\n".encode() + b"\0" * (WIDTH * HEIGHT * 3)
            outcome.payload, outcome.advertised = blank, oracle.sha256(blank)
        elif op["i"] == timed[2]:
            outcome.status = "degraded"
        return outcome

    monkeypatch.setattr(child.WireDriver, "run", sabotaged)
    (tmp_path / "script.json").write_text(json.dumps(script))
    result = child.run(script, Path(tmp_path), trace=False, first_line_ns=perf_counter_ns())
    assert result["failed"] >= 3, result["failures"]
    named = " ".join(result["failures"])
    for index in timed:
        assert f"op {index} " in named
