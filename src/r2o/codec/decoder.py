"""QR decoding for synthetically rendered, axis-aligned symbols.

Geometry recovery leans on the render model: the symbol is the tight bounding
box of all dark pixels, module pitch is uniform, and the three finder
patterns anchor plausibility scoring. The image stays in its packed 1-bit
rows: the dark bounds come from one compare over the rows read up to 8
bytes at a time and one AND over the dark rows, and each candidate grid
is one gather of module centres from the packed bytes. Format
information is recovered by nearest-codeword search, looked up in a table
over all 15-bit words. Every block's syndromes come from one gather, and
only a block with errors runs Reed-Solomon correction, which repairs
bounded corruption.

A call costs more on a reader that does other work between stand-ins
than back to back: a 512 px stand-in read and decoded after a 0.5 ms
sleep took 1.1 to 2.6 times its back-to-back CPU time (2 vCPU Xeon,
Python 3.11, numpy 2.4). So the decoder keeps the numpy calls a stand-in
needs few. Back to back and single-threaded, `decode_qr` of a 512 px
stand-in takes about 0.06 ms.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from ..locator import validate_locator
from . import gf256, matrix, tables
from .errors import DecodeFailure, NotAQrSymbol
from .models import IndirectionPayload, PseudoImage

_FINDER = matrix.base_matrix(1)[:7, :7].ravel()  # 1 = dark, row by row

# per-finder agreement needed out of 49 modules; tolerates a couple of flips
FINDER_MIN_SCORE = 45

_ALL_FORMATS = [(tables.format_info(lvl, m), lvl, m)
                for lvl in tables.EC_LEVELS for m in range(8)]
_FAR = 0xFF  # a word more than 3 bits from every format word


def _format_table() -> np.ndarray:
    """15-bit word -> distance << 5 | index in _ALL_FORMATS of the format
    word within 3 bits of it, else _FAR.

    BCH(15,5) has distance 7, so the radius-3 balls around the 32 format
    words are disjoint and each word within 3 bits has one nearest entry.
    """
    errors = [(d, sum(1 << b for b in bits)) for d in range(4)
              for bits in itertools.combinations(range(15), d)]
    dist, pattern = np.array(errors, dtype=np.intp).T
    words = np.array([w for w, _, _ in _ALL_FORMATS], dtype=np.intp)
    table = np.full(1 << 15, _FAR, dtype=np.uint8)
    index = np.arange(len(words))[:, None]
    table[words[:, None] ^ pattern] = dist << 5 | index
    return table


_FORMAT_TABLE = _format_table()


@functools.cache
def _finder_cells(n: int) -> np.ndarray:
    """Flat indices into an n x n grid of the three finder patterns'
    modules, (3, 49): top-left, top-right, bottom-left."""
    r, c = np.divmod(np.arange(49), 7)
    corners = np.array([[0, 0], [0, n - 7], [n - 7, 0]])
    return (corners[:, :1] + r) * n + corners[:, 1:] + c


# unsigned words of 1, 2, 4 and 8 bytes, each with its all-white value
_WORDS = {size: (np.dtype(f"u{size}"), np.iinfo(f"u{size}").max)
          for size in (1, 2, 4, 8)}


def _dark_bounds(rows: np.ndarray) -> tuple[int, int, int, int]:
    """(top, left, height, width) of the box around every dark pixel.

    Rows are read a word at a time, the widest of 8, 4, 2 or 1 bytes that
    tiles a row: a row holds a dark pixel where a word is not all ones,
    and a column where its bit is clear in the AND of the dark rows.
    """
    if not rows.size:
        raise NotAQrSymbol("image contains no dark pixels")
    row_bytes = rows.shape[1]
    dtype, white = _WORDS[min(8, row_bytes & -row_bytes)]
    words = np.ascontiguousarray(rows).view(dtype)
    dark = words.ravel() != white
    first = int(dark.argmax())
    if not dark[first]:
        raise NotAQrSymbol("image contains no dark pixels")
    last = dark.size - 1 - int(dark[::-1].argmax())
    top, bottom = first // words.shape[1], last // words.shape[1]
    columns = np.bitwise_and.reduce(words[top:bottom + 1], axis=0)
    bits = 8 * row_bytes
    # bit bits - 1 - x is set where column x holds a dark pixel
    dark_cols = ~int.from_bytes(columns.tobytes(), "big") & ((1 << bits) - 1)
    left = bits - dark_cols.bit_length()
    right = bits - (dark_cols & -dark_cols).bit_length()
    return top, left, bottom - top + 1, right - left + 1


@functools.lru_cache(maxsize=64)
def _sample_columns(first: int, pitch: int,
                    n: int) -> tuple[np.ndarray, np.ndarray]:
    """(byte index, bit mask) in a packed row of the n pixels `pitch`
    apart from pixel `first`. Bounded: its keys come from the image."""
    xs = np.arange(first, first + n * pitch, pitch)
    return xs >> 3, (0x80 >> (xs & 7)).astype(np.uint8)


def _candidate_grids(rows: np.ndarray, width: int):
    """Return (score, n, grid) for plausible module counts, best first.

    rows are 1-bit scanline bytes, white 1, with white padding bits. Each
    grid is one gather of module centres from the packed bytes.
    """
    top, left, h, w = _dark_bounds(rows)
    if h != w:
        raise NotAQrSymbol("dark region is not square")
    found = []
    for version in range(tables.MIN_VERSION, tables.MAX_VERSION + 1):
        n = tables.size_for_version(version)
        if w % n:
            continue
        s = w // n
        byte, bit = _sample_columns(left + s // 2, s, n)
        sampled = rows[top + s // 2:top + n * s:s][:, byte]
        grid = ((sampled & bit) == 0).view(np.uint8)  # 1 = dark
        agree = (grid.ravel()[_finder_cells(n)]
                 == _FINDER).sum(axis=1).tolist()
        if min(agree) >= FINDER_MIN_SCORE:
            found.append((sum(agree), n, grid))
    if not found:
        raise NotAQrSymbol("no finder patterns at any plausible module pitch")
    found.sort(key=lambda t: -t[0])
    return found


def _nearest_format(word_a: int, word_b: int) -> tuple[str, int]:
    """(ec_level, mask_id) of the format word nearest either copy.

    The smaller distance wins, and on a tie the earlier entry of
    _ALL_FORMATS, which is the order of the table's packed values.
    """
    best = min(int(_FORMAT_TABLE[word_a]), int(_FORMAT_TABLE[word_b]))
    if best == _FAR:
        raise DecodeFailure("format information unreadable")
    _, lvl, mask_id = _ALL_FORMATS[best & 0x1F]
    return lvl, mask_id


@functools.cache
def _stream_gather(version: int, ec_level: str,
                   mask_id: int) -> tuple[np.ndarray, np.ndarray]:
    """(flat module index, mask bit) of every codeword bit, in block
    order: block 0's data and EC codewords, most significant bit first,
    then block 1's, and so on. Remainder bits are left out."""
    order, _, _ = tables.block_layout(version, ec_level)
    slots = (8 * order[:, None] + np.arange(8)).ravel()
    rr, cc = matrix.order_arrays(version)
    n = tables.size_for_version(version)
    return (rr * n + cc)[slots], matrix.mask_bits(version, mask_id)[slots]


def _parse_byte_mode(data: bytes, version: int) -> bytes:
    """Read a byte-mode segment: 4-bit mode, count, then the bytes.

    The 4-bit mode indicator leaves every later field half a byte off the
    byte grid, so the payload is the segment's bytes shifted by a nibble.
    """
    start = 2 if version >= 10 else 1  # bytes of mode and count, rounded down
    if not data:
        raise DecodeFailure("bitstream truncated")
    mode = data[0] >> 4
    if mode != 0b0100:
        raise DecodeFailure(f"unsupported mode indicator {mode:#06b}")
    if len(data) < start + 1:
        raise DecodeFailure("bitstream truncated")
    header = int.from_bytes(data[:start + 1], "big") >> 4
    length = header & ((1 << 8 * start) - 1)
    if len(data) < start + length + 1:
        raise DecodeFailure("bitstream truncated")
    seg = int.from_bytes(data[start:start + length + 1], "big") >> 4
    return (seg & ((1 << 8 * length) - 1)).to_bytes(length, "big")


def decode_matrix(grid: np.ndarray) -> bytes:
    """Decode an n x n module matrix (1 = dark) to its byte payload.

    Every block's syndromes come from one gather; only a block whose
    syndromes are not all zero goes through error correction.
    """
    n = grid.shape[0]
    version = (n - 17) // 4
    ec_level, mask_id = _nearest_format(*matrix.read_format_words(grid))
    index, flip = _stream_gather(version, ec_level, mask_id)
    stream = np.packbits(grid.ravel()[index] ^ flip)
    _, ks, nsym = tables.block_layout(version, ec_level)
    lengths = tuple(k + nsym for k in ks)
    dirty = gf256.syndromes(stream, lengths, nsym).any(axis=1).tolist()
    raw = stream.tobytes()
    data = bytearray()
    end = 0
    for k, length, bad in zip(ks, lengths, dirty):
        end += length
        block = raw[end - length:end]
        if bad:
            try:
                block = bytes(gf256.rs_correct(block, nsym))
            except gf256.CorrectionError as exc:
                raise DecodeFailure(
                    f"error correction failed: {exc}") from None
        data += block[:k]
    return _parse_byte_mode(bytes(data), version)


def decode_qr(image: PseudoImage) -> IndirectionPayload:
    """Decode a pseudo-image, whose rows must be 2-D uint8 scanline bytes
    of its width with white padding bits, back to the payload encoded
    into it."""
    rows, width = image.rows, image.width
    pad = (1 << -width % 8) - 1  # 0 when rows hold no padding bits
    if (rows.ndim != 2 or rows.dtype != np.uint8
            or rows.shape[1] != (width + 7) // 8
            or pad and np.any(rows[:, -1:] & pad != pad)):
        raise NotAQrSymbol("expected 2-D uint8 rows of 1-bit pixels")
    last_err: DecodeFailure | None = None
    for _, _, grid in _candidate_grids(rows, width):
        try:
            raw = decode_matrix(grid)
        except DecodeFailure as exc:
            last_err = exc
            continue
        try:
            text = raw.decode("ascii")
            validate_locator(text)
        except Exception:
            raise DecodeFailure(
                "symbol payload is not a content locator") from None
        return IndirectionPayload(locator=text)
    raise last_err or DecodeFailure("no candidate decoded")
