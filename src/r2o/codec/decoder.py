"""QR decoding for synthetically rendered, axis-aligned symbols.

Geometry recovery leans on the render model: the symbol is the tight bounding
box of all dark pixels, module pitch is uniform, and the three finder
patterns anchor plausibility scoring. Error correction repairs bounded
corruption; format information is recovered by nearest-codeword search,
looked up in a table over all 15-bit words.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import gf256, matrix, tables
from .errors import DecodeFailure, NotAQrSymbol
from .models import IndirectionPayload, PseudoImage, validate_locator

_FINDER = np.zeros((7, 7), dtype=np.uint8)
_FINDER[:, :] = 1
_FINDER[1:6, 1:6] = 0
_FINDER[2:5, 2:5] = 1

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


def _candidate_grids(light: np.ndarray):
    """Yield (score, n, grid) for plausible module counts, best first."""
    rows = np.flatnonzero(~light.all(axis=1))
    cols = np.flatnonzero(~light.all(axis=0))
    if rows.size == 0:
        raise NotAQrSymbol("image contains no dark pixels")
    top, left = int(rows[0]), int(cols[0])
    h = int(rows[-1]) - top + 1
    w = int(cols[-1]) - left + 1
    if h != w:
        raise NotAQrSymbol("dark region is not square")
    found = []
    for version in range(tables.MIN_VERSION, tables.MAX_VERSION + 1):
        n = tables.size_for_version(version)
        if w % n:
            continue
        s = w // n
        grid = (~light[top + s // 2:top + n * s:s,
                       left + s // 2:left + n * s:s]).view(np.uint8)
        if grid.shape != (n, n):
            continue
        agree = [int((grid[r0:r0 + 7, c0:c0 + 7] == _FINDER).sum())
                 for r0, c0 in ((0, 0), (0, n - 7), (n - 7, 0))]
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


def _read_format(grid: np.ndarray) -> tuple[str, int]:
    """Recover (ec_level, mask_id) by nearest codeword over both copies."""
    return _nearest_format(*matrix.read_format_words(grid))


@functools.cache
def _block_layout(version: int,
                  ec_level: str) -> tuple[np.ndarray, tuple[int, ...], int]:
    """(order, data codewords per block, EC codewords per block).

    order holds the interleaved stream positions of block 0's data and EC
    codewords, then block 1's, and so on.
    """
    ec_per_block, groups = tables.BLOCKS[(version, ec_level)]
    ks = tuple(k for count, k in groups for _ in range(count))
    blocks: list[list[int]] = [[] for _ in ks]
    pos = itertools.count()
    for j in range(max(ks)):
        for i, k in enumerate(ks):
            if j < k:
                blocks[i].append(next(pos))
    for _ in range(ec_per_block):
        for block in blocks:
            block.append(next(pos))
    order = np.array([p for block in blocks for p in block], dtype=np.intp)
    return order, ks, ec_per_block


def _deinterleave(codewords: list[int], version: int,
                  ec_level: str) -> tuple[list[bytes], tuple[int, ...], int]:
    """(blocks, data codewords per block, EC codewords per block); each
    block is its data codewords followed by its EC codewords."""
    order, ks, nsym = _block_layout(version, ec_level)
    stream = np.asarray(codewords, dtype=np.uint8)[order].tobytes()
    ends = itertools.accumulate(k + nsym for k in ks)
    return [stream[end - k - nsym:end] for k, end in zip(ks, ends)], ks, nsym


def _parse_byte_mode(data: bytes, version: int) -> bytes:
    """Read a byte-mode segment: 4-bit mode, count, then the bytes.

    The 4-bit mode indicator leaves every later field half a byte off the
    byte grid, so each payload byte joins the low nibble of one data byte
    to the high nibble of the next.
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
    seg = np.frombuffer(data, dtype=np.uint8)[start:start + length + 1]
    return (((seg[:-1] & 0x0F) << 4) | (seg[1:] >> 4)).tobytes()


def decode_matrix(grid: np.ndarray) -> bytes:
    """Decode an n x n module matrix (1 = dark) to its byte payload."""
    n = grid.shape[0]
    version = (n - 17) // 4
    ec_level, mask_id = _read_format(grid)
    codewords = matrix.read_codewords(grid, version, mask_id)
    blocks, ks, nsym = _deinterleave(codewords, version, ec_level)
    data = bytearray()
    for block, k in zip(blocks, ks):
        try:
            fixed = gf256.rs_correct(block, nsym)
        except gf256.CorrectionError as exc:
            raise DecodeFailure(f"error correction failed: {exc}") from None
        data.extend(fixed[:k])
    return _parse_byte_mode(bytes(data), version)


def decode_qr(image: PseudoImage) -> IndirectionPayload:
    """Decode a pseudo-image, whose light raster must be a 2-D bool
    array, back to the payload encoded into it."""
    light = image.light
    if light.ndim != 2 or light.dtype != np.bool_:
        raise NotAQrSymbol("expected a 2-D bool raster")
    last_err: DecodeFailure | None = None
    for _, _, grid in _candidate_grids(light):
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
