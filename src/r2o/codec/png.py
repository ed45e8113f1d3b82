"""Minimal grayscale PNG writer/reader (single channel, bit depth 1 or 8).

Both directions work on the file's own scanline bytes: at depth 1 eight
pixels to a byte, most significant bit first, white as 1, and at depth 8
a byte a pixel. `read_png` returns (rows, width, depth), the arguments of
`write_png`. A stand-in keeps its 1-bit rows from render to decode, so it
is never held at one value a pixel. On a 512 px symbol with a 66-byte
locator (2 vCPU Xeon, Python 3.11, numpy 2.4, zlib 1.2.13,
single-threaded) depth 1 writes 1280 bytes against 6063 at depth 8;
`to_png` falls from about 1.1 to 0.12 ms and `from_png` from 0.33 to
0.11 ms, as the reader inflates 33 KB of scanlines instead of 262 KB.

Scanlines are written with filter 0 at zlib level 3. At depth 8 that
wrote 5.5 KB in 0.7-0.8 ms, against 1.6 KB in 5-7 ms at level 9, and
read back about 0.05 ms slower; levels 1 and 2 saved at most 0.1 ms but
wrote 7.8-8.2 KB. At depth 1 level 3 is also the knee: its deflate stream
is 1.2 KB in 0.05 ms, where level 6 gives 0.8 KB in 0.2 ms and level 9
the same in 2 ms.

The reader accepts depths 1 and 8, because stand-ins published before the
1-bit writer, and externally produced grayscale files, are 8-bit. It
understands filter types 0-4 on bytes, with one byte per pixel step at
both depths, as the PNG spec rounds a sub-byte pixel up to one byte.
Filter types 0 and 1 unfilter as whole-array numpy operations and type 2
as one numpy add per row; Average and Paeth (3, 4) depend on the byte to
their left, so they keep a per-byte loop, and only external files use
them. That loop costs about 0.5 µs a byte, so a stream whose Average and
Paeth rows hold more than 256 KiB (one 512x512 8-bit image) is refused:
a 2.4 KB 1024x1024 Paeth file took 0.46 s to unfilter. The padding bits
that end a 1-bit row are read as white, whatever the file holds.

The reader treats its input as untrusted: dimensions above its edge limit
(MAX_EDGE, or a smaller one the caller passes) are rejected before
anything is inflated, and the IDAT stream is inflated no further than the
declared dimensions need.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from ..pngheader import IHDR_END, SIGNATURE, PNGError, read_ihdr

_LEVEL = 3  # zlib level of written files; see the module docstring
MAX_EDGE = 4096  # largest width or height the reader accepts
# most scanline bytes read in Average and Paeth rows; see the docstring
_SLOW_FILTER_BYTES = 256 * 1024
# bytes of scanlines inflated per step: small steps keep the inflater's
# transient buffers small, which lowers peak RSS when many threads decode
_INFLATE_STEP = 64 * 1024


class PNGTooLarge(PNGError):
    """The declared width or height is above the reader's edge limit."""


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))


def pack_rows(light: np.ndarray) -> np.ndarray:
    """A 2-D bool raster (True is white) as 1-bit scanline bytes, with
    the padding bits white."""
    rows = np.packbits(light, axis=1)
    rows[:, -1:] |= (1 << -light.shape[1] % 8) - 1
    return rows


def write_png(rows: np.ndarray, width: int | None = None,
              depth: int = 8) -> bytes:
    """Encode scanline bytes as a grayscale PNG: at depth 8 a HxW uint8
    array, at depth 1 packed rows of `width` pixels (white is 1)."""
    if rows.ndim != 2 or rows.dtype != np.uint8:
        raise PNGError("expected a 2-D array of uint8 scanline bytes")
    h, row_bytes = rows.shape
    width = row_bytes if width is None else width
    if depth not in (1, 8) or row_bytes != (width * depth + 7) // 8:
        raise PNGError(f"{row_bytes} bytes a row do not hold {width} "
                       f"pixels at depth {depth}")
    raw = np.zeros((h, row_bytes + 1), dtype=np.uint8)  # filter 0
    raw[:, 1:] = rows
    ihdr = struct.pack(">IIBBBBB", width, h, depth, 0, 0, 0, 0)
    return (SIGNATURE
            + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(raw.tobytes(), _LEVEL))
            + _chunk(b"IEND", b""))


def _unfilter_row(kind: int, line: bytearray, prev: bytes) -> None:
    """Average (3) and Paeth (4), in place, one scanline of bytes."""
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
    """Reconstruct scanline bytes in place from filtered ones."""
    if not kinds.any():
        return  # filter 0 rows are already final
    if int(kinds.max()) > 4:
        bad = int(kinds[kinds > 4][0])
        raise PNGError(f"unsupported filter type {bad}")
    slow = int(np.count_nonzero(kinds >= 3)) * out.shape[1]
    if slow > _SLOW_FILTER_BYTES:
        raise PNGError(f"{slow} bytes of Average or Paeth rows exceed "
                       f"{_SLOW_FILTER_BYTES}")
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


def _inflate(idat: bytes, row_bytes: int,
             height: int) -> tuple[np.ndarray, np.ndarray]:
    """Inflate scanlines in bounded steps, straight into one byte array.

    Returns (filter types, scanline bytes); no more than the declared size
    is ever inflated, and a stream that is short, long or unterminated is
    refused.
    """
    stride = row_bytes + 1
    kinds = np.empty(height, dtype=np.uint8)
    out = np.empty((height, row_bytes), dtype=np.uint8)
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


def read_png(data: bytes,
             max_edge: int = MAX_EDGE) -> tuple[np.ndarray, int, int]:
    """Decode a grayscale PNG to (scanline bytes, width, bit depth): an
    8-bit file's HxW uint8 pixels, or a 1-bit file's packed rows with the
    padding bits set (white).

    A width or height above max_edge (never above MAX_EDGE) raises
    PNGTooLarge before anything is inflated.
    """
    width, height, depth, color, comp, filt, interlace = read_ihdr(data)
    limit = min(max_edge, MAX_EDGE)
    if width == 0 or height == 0:
        raise PNGError(f"dimensions {width}x{height} are empty")
    if width > limit or height > limit:
        raise PNGTooLarge(f"dimensions {width}x{height} exceed {limit}")
    if depth not in (1, 8) or color != 0:
        raise PNGError("only 1-bit and 8-bit grayscale are supported")
    if comp != 0 or filt != 0 or interlace != 0:
        raise PNGError("unsupported IHDR settings")
    pos = IHDR_END + 4  # past the IHDR's CRC
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
    row_bytes = width if depth == 8 else (width + 7) // 8
    kinds, out = _inflate(b"".join(idat), row_bytes, height)
    _unfilter(kinds, out)
    if depth == 1:  # whiten the padding bits
        out[:, -1] |= (1 << -width % 8) - 1
    return out, width, depth
