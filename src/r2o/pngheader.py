"""The PNG container header: the signature and the IHDR chunk after it.

Kept apart from the codec, which loads numpy, so that the first party can
check an upload's header without it: a serving process loads no codec.
`codec.png` builds its reader and writer on this module.
"""

from __future__ import annotations

import struct

SIGNATURE = b"\x89PNG\r\n\x1a\n"
# a stream opens with the signature, then IHDR's length, tag and 13 bytes
IHDR_HEAD = SIGNATURE + struct.pack(">I", 13) + b"IHDR"
IHDR_END = len(IHDR_HEAD) + 13


class PNGError(ValueError):
    pass


def read_ihdr(data: bytes) -> tuple[int, int, int, int, int, int, int]:
    """The IHDR fields: width, height, bit depth, color type, compression,
    filter and interlace method; checks only that the signature is followed
    by a 13-byte IHDR, leaving the values to the caller.
    """
    if not data.startswith(SIGNATURE):
        raise PNGError("not a PNG stream")
    if len(data) < IHDR_END or not data.startswith(IHDR_HEAD):
        raise PNGError("first chunk is not a 13-byte IHDR")
    return struct.unpack(">IIBBBBB", data[len(IHDR_HEAD):IHDR_END])
