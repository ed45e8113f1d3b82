"""QR decoding for synthetically rendered, axis-aligned symbols.

Geometry recovery leans on the render model: the symbol is the tight bounding
box of all dark pixels, module pitch is uniform, and the three finder
patterns anchor plausibility scoring. Error correction repairs bounded
corruption; format information is recovered by nearest-codeword search.
"""

from __future__ import annotations

import numpy as np

from . import gf256, matrix, tables
from .errors import DecodeFailure, NotAQrSymbol
from .models import (DARK_THRESHOLD, IndirectionPayload, PseudoImage,
                     validate_locator)

_FINDER = np.zeros((7, 7), dtype=np.uint8)
_FINDER[:, :] = 1
_FINDER[1:6, 1:6] = 0
_FINDER[2:5, 2:5] = 1

# per-finder agreement needed out of 49 modules; tolerates a couple of flips
FINDER_MIN_SCORE = 45

_ALL_FORMATS = [(tables.format_info(lvl, m), lvl, m)
                for lvl in tables.EC_LEVELS for m in range(8)]


def _candidate_grids(pixels: np.ndarray):
    """Yield (score, n, grid) for plausible module counts, best first."""
    rows = np.flatnonzero(pixels.min(axis=1) < DARK_THRESHOLD)
    cols = np.flatnonzero(pixels.min(axis=0) < DARK_THRESHOLD)
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
        grid = (pixels[top + s // 2:top + n * s:s,
                       left + s // 2:left + n * s:s]
                < DARK_THRESHOLD).astype(np.uint8)
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


def _read_format(grid: np.ndarray) -> tuple[str, int]:
    """Recover (ec_level, mask_id) by nearest codeword over both copies."""
    word_a, word_b = matrix.read_format_words(grid)
    best = None
    for word, lvl, mask_id in _ALL_FORMATS:
        d = min(bin(word ^ word_a).count("1"), bin(word ^ word_b).count("1"))
        if best is None or d < best[0]:
            best = (d, lvl, mask_id)
    if best[0] > 3:
        raise DecodeFailure("format information unreadable")
    return best[1], best[2]


def _deinterleave(codewords: list[int], version: int,
                  ec_level: str) -> tuple[list[list[int]], list[list[int]], int]:
    ec_per_block, groups = tables.BLOCKS[(version, ec_level)]
    ks = [k for count, k in groups for _ in range(count)]
    data_blocks: list[list[int]] = [[] for _ in ks]
    ec_blocks: list[list[int]] = [[] for _ in ks]
    it = iter(codewords)
    for j in range(max(ks)):
        for i, k in enumerate(ks):
            if j < k:
                data_blocks[i].append(next(it))
    for _ in range(ec_per_block):
        for i in range(len(ks)):
            ec_blocks[i].append(next(it))
    return data_blocks, ec_blocks, ec_per_block


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
    data_blocks, ec_blocks, nsym = _deinterleave(codewords, version, ec_level)
    data = bytearray()
    for db, eb in zip(data_blocks, ec_blocks):
        try:
            fixed = gf256.rs_correct(bytes(db + eb), nsym)
        except gf256.CorrectionError as exc:
            raise DecodeFailure(f"error correction failed: {exc}") from None
        data.extend(fixed[:len(db)])
    return _parse_byte_mode(bytes(data), version)


def decode_qr(image: PseudoImage) -> IndirectionPayload:
    """Decode a pseudo-image back to the payload encoded into it."""
    pixels = image.pixels if isinstance(image, PseudoImage) else \
        np.asarray(image)
    if pixels.ndim != 2:
        raise NotAQrSymbol("expected a 2-D grayscale raster")
    last_err: DecodeFailure | None = None
    for _, _, grid in _candidate_grids(pixels):
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
