"""QR decoding for synthetically rendered, axis-aligned symbols.

Geometry recovery leans on the render model: the symbol is the tight bounding
box of all dark pixels, module pitch is uniform, and the three finder
patterns anchor plausibility scoring. The image stays in its packed 1-bit
rows: the dark bounds come from byte compares and one AND over the rows,
and only the rows a candidate pitch samples are unpacked. Error correction
repairs bounded corruption; format information is recovered by
nearest-codeword search, looked up in a table over all 15-bit words.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import gf256, matrix, tables
from .errors import DecodeFailure, NotAQrSymbol
from .models import IndirectionPayload, PseudoImage, validate_locator

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


def _candidate_grids(rows: np.ndarray, width: int):
    """Return (score, n, grid) for plausible module counts, best first.

    rows are 1-bit scanline bytes, white 1, with white padding bits: a
    row holds a dark pixel where a byte is not 0xFF, and a column where
    its bit is clear in the AND of every row.
    """
    dark_rows = np.flatnonzero((rows != 0xFF).any(axis=1))
    if dark_rows.size == 0:
        raise NotAQrSymbol("image contains no dark pixels")
    columns = np.unpackbits(np.bitwise_and.reduce(rows, axis=0), count=width)
    dark_cols = np.flatnonzero(columns == 0)
    top, left = int(dark_rows[0]), int(dark_cols[0])
    h = int(dark_rows[-1]) - top + 1
    w = int(dark_cols[-1]) - left + 1
    if h != w:
        raise NotAQrSymbol("dark region is not square")
    found = []
    for version in range(tables.MIN_VERSION, tables.MAX_VERSION + 1):
        n = tables.size_for_version(version)
        if w % n:
            continue
        s = w // n
        sampled = np.unpackbits(rows[top + s // 2:top + n * s:s], axis=1)
        grid = sampled[:, left + s // 2:left + n * s:s] ^ 1  # 1 = dark
        agree = (grid.ravel()[_finder_cells(n)] == _FINDER).sum(axis=1)
        if agree.min() >= FINDER_MIN_SCORE:
            found.append((int(agree.sum()), n, grid))
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
    ec_level, mask_id = _nearest_format(*matrix.read_format_words(grid))
    index, flip = _stream_gather(version, ec_level, mask_id)
    stream = np.packbits(grid.ravel()[index] ^ flip).tobytes()
    _, ks, nsym = tables.block_layout(version, ec_level)
    data = bytearray()
    end = 0
    for k in ks:
        end += k + nsym
        try:
            fixed = gf256.rs_correct(stream[end - k - nsym:end], nsym)
        except gf256.CorrectionError as exc:
            raise DecodeFailure(f"error correction failed: {exc}") from None
        data.extend(fixed[:k])
    return _parse_byte_mode(bytes(data), version)


def decode_qr(image: PseudoImage) -> IndirectionPayload:
    """Decode a pseudo-image, whose rows must be 2-D uint8 scanline bytes
    of its width with white padding bits, back to the payload encoded
    into it."""
    rows, width = image.rows, image.width
    pad = (1 << -width % 8) - 1
    if (rows.ndim != 2 or rows.dtype != np.uint8
            or rows.shape[1] != (width + 7) // 8
            or np.any(rows[:, -1:] & pad != pad)):
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
