"""The session wire protocol: the frame kinds of a serving dialogue.

Frames are the shared codec of :mod:`repro.util.framing` (layout,
digests, size limits and typed errors are documented there); a serving
client *only* wants pixels, so ``FRAME`` carries them as the binary
payload next to the JSON header.  This module names the kinds of the
HELLO/OPEN/RENDER/FRAME dialogue and binds the codec's socket I/O to
this protocol's fault site, ``serving.wire.send`` (a ``drop`` there is
what the reconnect-with-resume path recovers from), which also names
its ``serving.wire.*`` traffic counters.
"""

from __future__ import annotations

from functools import partial

from repro.util import framing

SEND_SITE = "serving.wire.send"

write_frame = partial(framing.write_frame, site=SEND_SITE)
read_frame = partial(framing.read_frame, site=SEND_SITE)

#: frame kinds of the session protocol
KIND_HELLO = "hello"
KIND_WELCOME = "welcome"
KIND_OPEN = "open"
KIND_OPENED = "opened"
KIND_RENDER = "render"
KIND_FRAME = "frame"
KIND_ERROR = "error"
KIND_CLOSE = "close"
KIND_BYE = "bye"
