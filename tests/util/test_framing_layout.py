"""``encode_frame`` writes exactly the layout ``repro.util.framing``
documents, whatever the payload size: the 17-byte prefix, the sorted
JSON header, the payload and sha256(header + payload)."""

from __future__ import annotations

import hashlib
import json
import struct

import pytest

from repro.util.framing import MAGIC, WIRE_VERSION, WireFrame, decode_frame, encode_frame


def documented_layout(frame: WireFrame) -> bytes:
    header = json.dumps({"kind": frame.kind, "meta": frame.meta}, sort_keys=True).encode("utf-8")
    prefix = struct.pack(">4sBIQ", MAGIC, WIRE_VERSION, len(header), len(frame.payload))
    return prefix + header + frame.payload + hashlib.sha256(header + frame.payload).digest()


@pytest.mark.parametrize("size", [0, 9 * 1024, 1024 * 1024])
def test_encode_frame_writes_the_documented_layout(size):
    payload = bytes(range(256)) * (size // 256) + bytes(size % 256)
    frame = WireFrame("frame", {"seq": 3, "status": "ok", "digest": "d"}, payload)
    data = encode_frame(frame)
    assert data == documented_layout(frame)
    assert decode_frame(data) == (frame, len(data))
