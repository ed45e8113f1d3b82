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


@functools.cache
def _function_patterns(version: int) -> tuple[np.ndarray, np.ndarray]:
    """(drawn, mask): every function pattern drawn, with the format areas
    left light, and a bool matrix marking every function module."""
    n = tables.size_for_version(version)
    m = np.zeros((n, n), dtype=np.uint8)
    fm = np.zeros((n, n), dtype=bool)

    # finder patterns; with their separators they fill 8x8 corner blocks
    for r0, c0 in ((0, 0), (0, n - 7), (n - 7, 0)):
        m[r0:r0 + 7, c0:c0 + 7] = 1
        m[r0 + 1:r0 + 6, c0 + 1:c0 + 6] = 0
        m[r0 + 2:r0 + 5, c0 + 2:c0 + 5] = 1
    fm[:8, :8] = fm[:8, n - 8:] = fm[n - 8:, :8] = True

    # timing, format information areas and the dark module
    fm[6, :] = fm[:, 6] = True
    m[6, 8:n - 8] = m[8:n - 8, 6] = np.arange(9, n - 7) % 2
    fm[8, :9] = fm[:9, 8] = fm[8, n - 8:] = fm[n - 8:, 8] = True
    m[n - 8, 8] = 1

    for r in tables.ALIGNMENT[version]:
        for c in tables.ALIGNMENT[version]:
            if _in_finder_corner(n, r, c):
                continue
            fm[r - 2:r + 3, c - 2:c + 3] = True
            m[r - 2:r + 3, c - 2:c + 3] = 1
            m[r - 1:r + 2, c - 1:c + 2] = 0
            m[r, c] = 1

    if version >= 7:  # version information, bit i at (i // 3, i % 3)
        bits = (tables.version_info(version) >> np.arange(18)) & 1
        m[:6, n - 11:n - 8] = bits.reshape(6, 3)
        m[n - 11:n - 8, :6] = bits.reshape(6, 3).T
        fm[:6, n - 11:n - 8] = fm[n - 11:n - 8, :6] = True
    return m, fm


def function_mask(version: int) -> np.ndarray:
    """Boolean matrix marking every function module (non-data position)."""
    return _function_patterns(version)[1].copy()


def base_matrix(version: int) -> np.ndarray:
    """Matrix with all function patterns drawn (format areas left light)."""
    return _function_patterns(version)[0].copy()


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


@functools.cache
def order_arrays(version: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays of placement_order, built once."""
    rr, cc = np.array(placement_order(version), dtype=np.intp).T
    return rr, cc


@functools.cache
def mask_bits(version: int, mask_id: int) -> np.ndarray:
    """The mask's bit at every placement slot, in placement order."""
    rr, cc = order_arrays(version)
    return MASK_FUNCS[mask_id](rr, cc).astype(np.uint8)


def place_codewords(m: np.ndarray, version: int, codewords: list[int],
                    mask_id: int) -> None:
    """Write codeword bits (MSB first) with the mask applied at placement.

    Slots past the last codeword bit are remainder bits, placed as 0.
    """
    rr, cc = order_arrays(version)
    bits = np.zeros(rr.size, dtype=np.uint8)
    data = np.unpackbits(np.asarray(codewords, dtype=np.uint8))[:rr.size]
    bits[:data.size] = data
    m[rr, cc] = bits ^ mask_bits(version, mask_id)


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
