"""Module-matrix construction: function patterns, placement walk, masking.

Matrices are numpy uint8 arrays with 1 = dark, 0 = light, indexed [row, col].
"""

from __future__ import annotations

import functools

import numpy as np

from . import tables


MASK_FUNCS = (
    lambda r, c: (r + c) % 2 == 0,
    lambda r, c: r % 2 == 0,
    lambda r, c: c % 3 == 0,
    lambda r, c: (r + c) % 3 == 0,
    lambda r, c: (r // 2 + c // 3) % 2 == 0,
    lambda r, c: (r * c) % 2 + (r * c) % 3 == 0,
    lambda r, c: ((r * c) % 2 + (r * c) % 3) % 2 == 0,
    lambda r, c: ((r + c) % 2 + (r * c) % 3) % 2 == 0,
)


def _in_finder_corner(n: int, r: int, c: int) -> bool:
    """True for alignment centers that would collide with a finder pattern."""
    return (r < 8 and c < 8) or (r < 8 and c > n - 9) or (r > n - 9 and c < 8)


def function_mask(version: int) -> np.ndarray:
    """Boolean matrix marking every function module (non-data position)."""
    n = tables.size_for_version(version)
    fm = np.zeros((n, n), dtype=bool)

    # finder patterns + separators, as 8x8 corner blocks
    fm[0:8, 0:8] = True
    fm[0:8, n - 8:n] = True
    fm[n - 8:n, 0:8] = True

    # timing
    fm[6, :] = True
    fm[:, 6] = True

    # format information areas + dark module
    fm[8, 0:9] = True
    fm[0:9, 8] = True
    fm[8, n - 8:n] = True
    fm[n - 8:n, 8] = True

    for r in tables.ALIGNMENT[version]:
        for c in tables.ALIGNMENT[version]:
            if _in_finder_corner(n, r, c):
                continue
            fm[r - 2:r + 3, c - 2:c + 3] = True

    if version >= 7:
        fm[0:6, n - 11:n - 8] = True
        fm[n - 11:n - 8, 0:6] = True
    return fm


def base_matrix(version: int) -> np.ndarray:
    """Matrix with all function patterns drawn (format areas left light)."""
    n = tables.size_for_version(version)
    m = np.zeros((n, n), dtype=np.uint8)

    def finder(r0: int, c0: int) -> None:
        m[r0:r0 + 7, c0:c0 + 7] = 1
        m[r0 + 1:r0 + 6, c0 + 1:c0 + 6] = 0
        m[r0 + 2:r0 + 5, c0 + 2:c0 + 5] = 1

    finder(0, 0)
    finder(0, n - 7)
    finder(n - 7, 0)

    for i in range(8, n - 8):
        m[6, i] = m[i, 6] = (i + 1) % 2

    for r in tables.ALIGNMENT[version]:
        for c in tables.ALIGNMENT[version]:
            if _in_finder_corner(n, r, c):
                continue
            m[r - 2:r + 3, c - 2:c + 3] = 1
            m[r - 1:r + 2, c - 1:c + 2] = 0
            m[r, c] = 1

    m[n - 8, 8] = 1  # dark module

    if version >= 7:
        vi = tables.version_info(version)
        for i in range(18):
            bit = (vi >> i) & 1
            m[i // 3, n - 11 + i % 3] = bit
            m[n - 11 + i % 3, i // 3] = bit
    return m


_BIT_SHIFTS = np.arange(15)  # bit i of a format word sits in column i


@functools.cache
def format_positions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices, each (2, 15) as [copy, bit], of the format
    bits in an n x n symbol.

    Copy 0 runs around the top-left finder, skipping the timing row and
    column; copy 1 is split between the top-right row and the bottom-left
    column.
    """
    first = ([(i, 8) for i in range(6)] + [(7, 8), (8, 8), (8, 7)]
             + [(8, 14 - i) for i in range(9, 15)])
    second = ([(8, n - 1 - i) for i in range(8)]
              + [(n - 15 + i, 8) for i in range(8, 15)])
    rr, cc = np.array([first, second], dtype=np.intp).transpose(2, 0, 1)
    return rr, cc


def place_format_info(m: np.ndarray, ec_level: str, mask_id: int) -> None:
    """Write both copies of the 15-bit format word into the matrix."""
    rr, cc = format_positions(m.shape[0])
    m[rr, cc] = (tables.format_info(ec_level, mask_id) >> _BIT_SHIFTS) & 1


def read_format_words(m: np.ndarray) -> tuple[int, int]:
    """The two 15-bit format words as they stand, unchecked."""
    rr, cc = format_positions(m.shape[0])
    words = (m[rr, cc].astype(np.int64) << _BIT_SHIFTS).sum(axis=1)
    return int(words[0]), int(words[1])


def placement_order(version: int) -> list[tuple[int, int]]:
    """Data-module coordinates in codeword placement order.

    Two-column strips from the right edge, snaking up then down, skipping the
    timing column and every function module.
    """
    n = tables.size_for_version(version)
    fm = function_mask(version)
    order: list[tuple[int, int]] = []
    col = n - 1
    upward = True
    while col > 0:
        if col == 6:
            col -= 1
        rows = range(n - 1, -1, -1) if upward else range(n)
        for r in rows:
            for c in (col, col - 1):
                if not fm[r, c]:
                    order.append((r, c))
        upward = not upward
        col -= 2
    return order


_ORDER_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_MASK_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _order_arrays(version: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays of placement_order, built once."""
    order = _ORDER_CACHE.get(version)
    if order is None:
        rr, cc = np.array(placement_order(version), dtype=np.intp).T
        order = _ORDER_CACHE[version] = (rr, cc)
    return order


def _mask_bits(version: int, mask_id: int) -> np.ndarray:
    """The mask's bit at every placement slot, in placement order."""
    bits = _MASK_CACHE.get((version, mask_id))
    if bits is None:
        rr, cc = _order_arrays(version)
        bits = MASK_FUNCS[mask_id](rr, cc).astype(np.uint8)
        _MASK_CACHE[(version, mask_id)] = bits
    return bits


def place_codewords(m: np.ndarray, version: int, codewords: list[int],
                    mask_id: int) -> None:
    """Write codeword bits (MSB first) with the mask applied at placement.

    Slots past the last codeword bit are remainder bits, placed as 0.
    """
    rr, cc = _order_arrays(version)
    bits = np.zeros(rr.size, dtype=np.uint8)
    data = np.unpackbits(np.asarray(codewords, dtype=np.uint8))[:rr.size]
    bits[:data.size] = data
    m[rr, cc] = bits ^ _mask_bits(version, mask_id)


def read_codewords(m: np.ndarray, version: int, mask_id: int) -> list[int]:
    """Inverse of place_codewords; remainder bits are dropped."""
    rr, cc = _order_arrays(version)
    bits = m[rr, cc] ^ _mask_bits(version, mask_id)
    return np.packbits(bits[:bits.size - bits.size % 8]).tolist()


# rule 3's finder-like pattern 1011101 with 4 light modules on either side,
# as 11-bit window codes read left to right
_FINDER_RUNS = (0b10111010000, 0b00001011101)


def penalty_scores(ms: np.ndarray) -> list[int]:
    """Four-rule mask evaluation of each matrix in a (k, n, n) stack.

    Lower is better; the scores equal scoring each matrix on its own.
    """
    k, n, _ = ms.shape
    # every row and every column of every matrix, as (k * 2n, n) lines
    lines = np.concatenate((ms, ms.transpose(0, 2, 1)), axis=1)
    lines = lines.reshape(k * 2 * n, n)

    # rule 1: same-color runs of length >= 5; each line's first module and
    # each change point start a run, and a mark past the line's end closes
    # the last, so run lengths are the gaps between marks
    starts = np.ones((lines.shape[0], n + 1), dtype=bool)
    starts[:, 1:n] = lines[:, 1:] != lines[:, :-1]
    at = np.flatnonzero(starts)
    runs = np.diff(at)  # the gap across a line break is 1, never scored
    weight = np.where(runs >= 5, runs - 2, 0)
    owner = at[:-1] // ((n + 1) * 2 * n)
    total = np.bincount(owner, weights=weight, minlength=k).astype(np.int64)

    # rule 2: 2x2 blocks of one color
    blocks = ms[:, :-1, :-1] + ms[:, 1:, :-1] + ms[:, :-1, 1:] + ms[:, 1:, 1:]
    total += 3 * np.count_nonzero((blocks == 0) | (blocks == 4), axis=(1, 2))

    # rule 3: finder-like runs, in either direction, in rows and columns
    codes = np.zeros((lines.shape[0], n - 10), dtype=np.int16)
    for i in range(11):
        codes |= lines[:, i:i + n - 10].astype(np.int16) << (10 - i)
    found = (codes == _FINDER_RUNS[0]) | (codes == _FINDER_RUNS[1])
    total += 40 * found.reshape(k, -1).sum(axis=1)

    # rule 4: dark-module proportion
    scores = []
    for t, dark in zip(total.tolist(), ms.sum(axis=(1, 2)).tolist()):
        pct = 100 * dark / (n * n)
        scores.append(t + 10 * int(abs(pct - 50) // 5))
    return scores
