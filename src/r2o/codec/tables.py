"""Symbol constants for QR versions 1-10, byte mode.

BLOCKS maps (version, ec_level) to (ec_codewords_per_block, groups) where
groups is a tuple of (block_count, data_codewords_per_block). Group order is
the interleaving order.
"""

from __future__ import annotations

import functools

import numpy as np

MIN_VERSION = 1
MAX_VERSION = 10

EC_LEVELS = ("L", "M", "Q", "H")

# 2-bit indicator carried in the format information.
EC_FORMAT_BITS = {"L": 1, "M": 0, "Q": 3, "H": 2}

BLOCKS: dict[tuple[int, str], tuple[int, tuple[tuple[int, int], ...]]] = {
    (1, "L"): (7, ((1, 19),)),
    (1, "M"): (10, ((1, 16),)),
    (1, "Q"): (13, ((1, 13),)),
    (1, "H"): (17, ((1, 9),)),
    (2, "L"): (10, ((1, 34),)),
    (2, "M"): (16, ((1, 28),)),
    (2, "Q"): (22, ((1, 22),)),
    (2, "H"): (28, ((1, 16),)),
    (3, "L"): (15, ((1, 55),)),
    (3, "M"): (26, ((1, 44),)),
    (3, "Q"): (18, ((2, 17),)),
    (3, "H"): (22, ((2, 13),)),
    (4, "L"): (20, ((1, 80),)),
    (4, "M"): (18, ((2, 32),)),
    (4, "Q"): (26, ((2, 24),)),
    (4, "H"): (16, ((4, 9),)),
    (5, "L"): (26, ((1, 108),)),
    (5, "M"): (24, ((2, 43),)),
    (5, "Q"): (18, ((2, 15), (2, 16))),
    (5, "H"): (22, ((2, 11), (2, 12))),
    (6, "L"): (18, ((2, 68),)),
    (6, "M"): (16, ((4, 27),)),
    (6, "Q"): (24, ((4, 19),)),
    (6, "H"): (28, ((4, 15),)),
    (7, "L"): (20, ((2, 78),)),
    (7, "M"): (18, ((4, 31),)),
    (7, "Q"): (18, ((2, 14), (4, 15))),
    (7, "H"): (26, ((4, 13), (1, 14))),
    (8, "L"): (24, ((2, 97),)),
    (8, "M"): (22, ((2, 38), (2, 39))),
    (8, "Q"): (22, ((4, 18), (2, 19))),
    (8, "H"): (26, ((4, 14), (2, 15))),
    (9, "L"): (30, ((2, 116),)),
    (9, "M"): (22, ((3, 36), (2, 37))),
    (9, "Q"): (20, ((4, 16), (4, 17))),
    (9, "H"): (24, ((4, 12), (4, 13))),
    (10, "L"): (18, ((2, 68), (2, 69))),
    (10, "M"): (26, ((4, 43), (1, 44))),
    (10, "Q"): (24, ((6, 19), (2, 20))),
    (10, "H"): (28, ((6, 15), (2, 16))),
}

# Alignment pattern center coordinates (row == column grid).
ALIGNMENT = {
    1: (),
    2: (6, 18),
    3: (6, 22),
    4: (6, 26),
    5: (6, 30),
    6: (6, 34),
    7: (6, 22, 38),
    8: (6, 24, 42),
    9: (6, 26, 46),
    10: (6, 28, 50),
}

FORMAT_GEN = 0b10100110111       # BCH(15,5) generator
FORMAT_MASK = 0b101010000010010  # fixed XOR applied to format information
VERSION_GEN = 0b1111100100101    # BCH(18,6) generator, versions >= 7


def size_for_version(version: int) -> int:
    return 17 + 4 * version


def data_codewords(version: int, ec_level: str) -> int:
    _, groups = BLOCKS[(version, ec_level)]
    return sum(n * k for n, k in groups)


def byte_capacity(version: int, ec_level: str) -> int:
    """Maximum byte-mode payload length (mode + count header deducted)."""
    bits = 8 * data_codewords(version, ec_level)
    header = 4 + (16 if version >= 10 else 8)
    return (bits - header) // 8


def bch_remainder(value: int, generator: int) -> int:
    glen = generator.bit_length()
    rem = value
    while rem.bit_length() >= glen:
        rem ^= generator << (rem.bit_length() - glen)
    return rem


def format_info(ec_level: str, mask_id: int) -> int:
    """15-bit format information word, XOR mask already applied."""
    data = (EC_FORMAT_BITS[ec_level] << 3) | mask_id
    return ((data << 10) | bch_remainder(data << 10, FORMAT_GEN)) ^ FORMAT_MASK


def version_info(version: int) -> int:
    """18-bit version information word (only defined for versions >= 7)."""
    return (version << 12) | bch_remainder(version << 12, VERSION_GEN)


@functools.cache
def block_layout(version: int,
                 ec_level: str) -> tuple[np.ndarray, tuple[int, ...], int]:
    """(order, data codewords per block, EC codewords per block); order
    holds the interleaved stream positions of block 0's data and EC
    codewords, then block 1's, and so on."""
    ec_per_block, groups = BLOCKS[(version, ec_level)]
    ks = tuple(k for count, k in groups for _ in range(count))
    # a row per block: data in its first k slots, EC in the last
    # ec_per_block; the stream reads the used slots column by column
    used = np.arange(max(ks) + ec_per_block) < np.array(ks)[:, None]
    used[:, max(ks):] = True
    pos = np.zeros(used.shape, dtype=np.intp)
    pos.T[used.T] = np.arange(np.count_nonzero(used))
    return pos[used], ks, ec_per_block
