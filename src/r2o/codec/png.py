"""Minimal grayscale PNG writer/reader (8-bit, single channel).

Writes filter-0 scanlines only; the reader understands filter types 0-4 so
externally produced grayscale files load too. Filter types 0 and 1
unfilter as whole-array numpy operations and type 2 as one numpy add per
row; Average and Paeth (3, 4) depend on the pixel to their left, so they
keep a per-pixel loop, and only external files use them.

The reader treats its input as untrusted: dimensions above MAX_EDGE are
rejected before anything is inflated, and the IDAT stream is inflated no
further than the declared dimensions need.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_SIGNATURE = b"\x89PNG\r\n\x1a\n"
# a stream opens with the signature, then IHDR's length, tag and 13 bytes
_IHDR_HEAD = _SIGNATURE + struct.pack(">I", 13) + b"IHDR"
_IHDR_END = len(_IHDR_HEAD) + 13

MAX_EDGE = 4096  # largest width or height the reader accepts
# bytes of scanlines inflated per step: small steps keep the inflater's
# transient buffers small, which lowers peak RSS when many threads decode
_INFLATE_STEP = 64 * 1024


class PNGError(ValueError):
    pass


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))


def write_png(pixels: np.ndarray) -> bytes:
    """Encode a HxW uint8 array as an 8-bit grayscale PNG."""
    if pixels.ndim != 2:
        raise PNGError("expected a 2-D grayscale array")
    h, w = pixels.shape
    raw = np.zeros((h, w + 1), dtype=np.uint8)  # column 0: filter type 0
    raw[:, 1:] = pixels
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    return (_SIGNATURE
            + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(raw.tobytes(), 9))
            + _chunk(b"IEND", b""))


def _unfilter_row(kind: int, line: bytearray, prev: bytes) -> None:
    """Average (3) and Paeth (4), in place, one scanline."""
    n = len(line)
    if kind == 3:
        line[0] = (line[0] + prev[0] // 2) & 0xFF
        for i in range(1, n):
            line[i] = (line[i] + (line[i - 1] + prev[i]) // 2) & 0xFF
        return
    for i in range(n):
        a = line[i - 1] if i else 0
        b = prev[i]
        c = prev[i - 1] if i else 0
        p = a + b - c
        pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
        if pa <= pb and pa <= pc:
            pred = a
        elif pb <= pc:
            pred = b
        else:
            pred = c
        line[i] = (line[i] + pred) & 0xFF


def _unfilter(kinds: np.ndarray, out: np.ndarray) -> None:
    """Reconstruct pixels in place from filtered scanlines."""
    if not kinds.any():
        return  # filter 0 rows are already final
    if int(kinds.max()) > 4:
        bad = int(kinds[kinds > 4][0])
        raise PNGError(f"unsupported filter type {bad}")
    sub = kinds == 1  # Sub depends only on its own row
    if sub.any():
        out[sub] = np.cumsum(out[sub], axis=1, dtype=np.uint8)
    zero = np.zeros(out.shape[1], dtype=np.uint8)
    for r in np.flatnonzero(kinds >= 2).tolist():
        prev = out[r - 1] if r else zero
        if kinds[r] == 2:
            out[r] += prev
        else:
            line = bytearray(out[r].tobytes())
            _unfilter_row(int(kinds[r]), line, prev.tobytes())
            out[r] = np.frombuffer(line, dtype=np.uint8)


def _inflate(idat: bytes, width: int,
             height: int) -> tuple[np.ndarray, np.ndarray]:
    """Inflate scanlines in bounded steps, straight into the pixel array.

    Returns (filter types, pixels); no more than the declared size is ever
    inflated, and a stream that is short, long or unterminated is refused.
    """
    stride = width + 1
    kinds = np.empty(height, dtype=np.uint8)
    out = np.empty((height, width), dtype=np.uint8)
    step = max(1, _INFLATE_STEP // stride)  # rows per step
    inflater = zlib.decompressobj()
    try:
        for r in range(0, height, step):
            k = min(step, height - r)
            chunk = inflater.decompress(idat, k * stride)
            idat = inflater.unconsumed_tail
            if len(chunk) != k * stride:
                raise PNGError("pixel data does not match dimensions")
            rows = np.frombuffer(chunk, dtype=np.uint8).reshape(k, stride)
            kinds[r:r + k] = rows[:, 0]
            out[r:r + k] = rows[:, 1:]
        if inflater.decompress(idat, 1) or not inflater.eof:
            raise PNGError("pixel data does not match dimensions")
    except zlib.error as exc:
        raise PNGError(f"bad IDAT stream: {exc}") from None
    return kinds, out


def read_ihdr(data: bytes) -> tuple[int, int, int, int, int, int, int]:
    """The IHDR fields: width, height, bit depth, color type, compression,
    filter and interlace method; checks only that the signature is followed
    by a 13-byte IHDR, leaving the values to the caller.
    """
    if not data.startswith(_SIGNATURE):
        raise PNGError("not a PNG stream")
    if len(data) < _IHDR_END or not data.startswith(_IHDR_HEAD):
        raise PNGError("first chunk is not a 13-byte IHDR")
    return struct.unpack(">IIBBBBB", data[len(_IHDR_HEAD):_IHDR_END])


def read_png(data: bytes) -> np.ndarray:
    """Decode an 8-bit grayscale PNG back to a HxW uint8 array."""
    width, height, depth, color, comp, filt, interlace = read_ihdr(data)
    if not (0 < width <= MAX_EDGE and 0 < height <= MAX_EDGE):
        raise PNGError(f"dimensions {width}x{height} outside 1..{MAX_EDGE}")
    if depth != 8 or color != 0:
        raise PNGError("only 8-bit grayscale is supported")
    if comp != 0 or filt != 0 or interlace != 0:
        raise PNGError("unsupported IHDR settings")
    pos = _IHDR_END + 4  # past the IHDR's CRC
    idat: list[bytes] = []
    while pos + 8 <= len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        tag = data[pos + 4:pos + 8]
        payload = data[pos + 8:pos + 8 + length]
        if len(payload) != length:
            raise PNGError("truncated chunk")
        if tag == b"IDAT":
            idat.append(payload)
        elif tag == b"IEND":
            break
        pos += 12 + length
    if not idat:
        raise PNGError("missing IDAT")
    kinds, out = _inflate(b"".join(idat), width, height)
    _unfilter(kinds, out)
    return out
