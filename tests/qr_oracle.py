"""Independent strict QR reader used to cross-check the production codec.

Deliberately shares no decode logic with r2o.codec: its own GF(256) syndrome
check (no correction), its own placement walk, and the published 15-bit format
word table and each version's codeword count hardcoded as data. Block
structure tables are imported from r2o.codec.tables because those were
verified against standard identities separately; everything else here is a
second, stricter implementation.

Strictness: exact finder/timing match required, zero error-correction; any
corrupted symbol is rejected rather than repaired.
"""

from __future__ import annotations

import numpy as np

from r2o.codec.tables import BLOCKS

# published codewords per symbol (data + error correction), by version
TOTAL_CODEWORDS = {
    1: 26, 2: 44, 3: 70, 4: 100, 5: 134,
    6: 172, 7: 196, 8: 242, 9: 292, 10: 346,
}

# published format words, indexed (ec_bits << 3) | mask,
# ec_bits: M=0, L=1, H=2, Q=3
FORMAT_WORDS = (
    0x5412, 0x5125, 0x5E7C, 0x5B4B, 0x45F9, 0x40CE, 0x4F97, 0x4AA0,
    0x77C4, 0x72F3, 0x7DAA, 0x789D, 0x662F, 0x6318, 0x6C41, 0x6976,
    0x1689, 0x13BE, 0x1CE7, 0x19D0, 0x0762, 0x0255, 0x0D0C, 0x083B,
    0x355F, 0x3068, 0x3F31, 0x3A06, 0x24B4, 0x2183, 0x2EDA, 0x2BED,
)
EC_OF_BITS = {0: "M", 1: "L", 2: "H", 3: "Q"}

ALIGN_CENTERS = {
    1: (), 2: (6, 18), 3: (6, 22), 4: (6, 26), 5: (6, 30), 6: (6, 34),
    7: (6, 22, 38), 8: (6, 24, 42), 9: (6, 26, 46), 10: (6, 28, 50),
}

MASKS = (
    lambda r, c: (r + c) % 2 == 0,
    lambda r, c: r % 2 == 0,
    lambda r, c: c % 3 == 0,
    lambda r, c: (r + c) % 3 == 0,
    lambda r, c: (r // 2 + c // 3) % 2 == 0,
    lambda r, c: (r * c) % 2 + (r * c) % 3 == 0,
    lambda r, c: ((r * c) % 2 + (r * c) % 3) % 2 == 0,
    lambda r, c: ((r + c) % 2 + (r * c) % 3) % 2 == 0,
)

_EXP = [1] * 255
for _i in range(1, 255):
    _v = _EXP[_i - 1] << 1
    _EXP[_i] = (_v ^ 0x11D) & 0xFF if _v & 0x100 else _v
_LOG = {v: i for i, v in enumerate(_EXP)}


def _gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[(_LOG[a] + _LOG[b]) % 255]


class OracleReject(Exception):
    """The strict reader refuses this matrix."""


def _function_coords(version: int) -> set[tuple[int, int]]:
    n = 17 + 4 * version
    coords: set[tuple[int, int]] = set()
    for r0, c0 in ((0, 0), (0, n - 8), (n - 8, 0)):
        for r in range(8):
            for c in range(8):
                coords.add((r0 + r, c0 + c))
    for i in range(n):
        coords.add((6, i))
        coords.add((i, 6))
    for i in range(9):
        coords.add((8, i))
        coords.add((i, 8))
    for i in range(8):
        coords.add((8, n - 1 - i))
        coords.add((n - 1 - i, 8))
    centers = ALIGN_CENTERS[version]
    for r in centers:
        for c in centers:
            near_finder = ((r < 9 and c < 9) or (r < 9 and c >= n - 9)
                           or (r >= n - 9 and c < 9))
            if near_finder:
                continue
            for dr in range(-2, 3):
                for dc in range(-2, 3):
                    coords.add((r + dr, c + dc))
    if version >= 7:
        for i in range(18):
            coords.add((i // 3, n - 11 + i % 3))
            coords.add((n - 11 + i % 3, i // 3))
    return coords


def _check_fixed_patterns(m: np.ndarray, version: int) -> None:
    n = m.shape[0]
    finder = np.zeros((7, 7), dtype=np.uint8)
    finder[:, :] = 1
    finder[1:6, 1:6] = 0
    finder[2:5, 2:5] = 1
    for r0, c0 in ((0, 0), (0, n - 7), (n - 7, 0)):
        if not np.array_equal(m[r0:r0 + 7, c0:c0 + 7], finder):
            raise OracleReject(f"finder mismatch at {(r0, c0)}")
    for i in range(8, n - 8):
        want = 1 if i % 2 == 0 else 0
        if m[6, i] != want or m[i, 6] != want:
            raise OracleReject("timing pattern mismatch")
    if m[n - 8, 8] != 1:
        raise OracleReject("dark module missing")


def _read_format(m: np.ndarray) -> tuple[str, int]:
    n = m.shape[0]
    bits_a = []
    for i in range(15):
        if i < 6:
            bits_a.append(int(m[i, 8]))
        elif i < 8:
            bits_a.append(int(m[i + 1, 8]))
        elif i == 8:
            bits_a.append(int(m[8, 7]))
        else:
            bits_a.append(int(m[8, 14 - i]))
    bits_b = []
    for i in range(15):
        if i < 8:
            bits_b.append(int(m[8, n - 1 - i]))
        else:
            bits_b.append(int(m[n - 15 + i, 8]))
    if bits_a != bits_b:
        raise OracleReject("format info copies disagree")
    word = 0
    for i, b in enumerate(bits_a):
        word |= b << i
    try:
        idx = FORMAT_WORDS.index(word)
    except ValueError:
        raise OracleReject(f"format word {word:#06x} not in table") from None
    return EC_OF_BITS[idx >> 3], idx & 7


def _walk(version: int) -> list[tuple[int, int]]:
    n = 17 + 4 * version
    skip = _function_coords(version)
    coords = []
    c = n - 1
    up = True
    while c >= 1:
        if c == 6:
            c = 5
        rr = range(n - 1, -1, -1) if up else range(n)
        for r in rr:
            for cc in (c, c - 1):
                if (r, cc) not in skip:
                    coords.append((r, cc))
        up = not up
        c -= 2
    return coords


def _syndromes_ok(codeword: list[int], nsym: int) -> bool:
    for j in range(nsym):
        x = _EXP[j % 255]
        acc = 0
        for b in codeword:
            acc = _gf_mul(acc, x) ^ b
        if acc:
            return False
    return True


def oracle_decode_matrix(m: np.ndarray) -> bytes:
    """Strictly read an n x n module matrix; returns the byte-mode payload."""
    n = m.shape[0]
    if m.shape != (n, n) or n < 21 or n > 57 or (n - 17) % 4:
        raise OracleReject(f"implausible size {m.shape}")
    version = (n - 17) // 4
    _check_fixed_patterns(m, version)
    ec_level, mask_id = _read_format(m)

    mask = MASKS[mask_id]
    bits = []
    for r, c in _walk(version):
        bit = int(m[r, c])
        if mask(r, c):
            bit ^= 1
        bits.append(bit)
    total = TOTAL_CODEWORDS[version]
    if len(bits) < 8 * total:
        raise OracleReject("not enough data modules")
    codewords = []
    for i in range(total):
        b = 0
        for j in range(8):
            b = (b << 1) | bits[8 * i + j]
        codewords.append(b)

    ec_per_block, groups = BLOCKS[(version, ec_level)]
    ks = [k for count, k in groups for _ in range(count)]
    data_blocks: list[list[int]] = [[] for _ in ks]
    it = iter(codewords)
    for j in range(max(ks)):
        for i, k in enumerate(ks):
            if j < k:
                data_blocks[i].append(next(it))
    ec_blocks: list[list[int]] = [[] for _ in ks]
    for _ in range(ec_per_block):
        for i in range(len(ks)):
            ec_blocks[i].append(next(it))

    data: list[int] = []
    for db, eb in zip(data_blocks, ec_blocks):
        if not _syndromes_ok(db + eb, ec_per_block):
            raise OracleReject("nonzero syndrome (corrupted block)")
        data.extend(db)

    pos = 0

    def take(width: int) -> int:
        nonlocal pos
        v = 0
        for _ in range(width):
            v = (v << 1) | ((data[pos >> 3] >> (7 - (pos & 7))) & 1)
            pos += 1
        return v

    if take(4) != 0b0100:
        raise OracleReject("not byte mode")
    length = take(16 if version >= 10 else 8)
    if pos + 8 * length > 8 * len(data):
        raise OracleReject("length field exceeds data capacity")
    out = bytes(take(8) for _ in range(length))
    return out


def oracle_decode_pixels(pixels: np.ndarray, quiet_zone: int = 4) -> bytes:
    """Read a cleanly rendered image: uniform scale, known quiet zone."""
    dark = pixels < 128
    rows = np.flatnonzero(dark.any(axis=1))
    cols = np.flatnonzero(dark.any(axis=0))
    if rows.size == 0:
        raise OracleReject("blank image")
    top, bottom = int(rows[0]), int(rows[-1])
    left, right = int(cols[0]), int(cols[-1])
    h, w = bottom - top + 1, right - left + 1
    if h != w:
        raise OracleReject("dark region not square")
    for n in range(21, 58, 4):
        if w % n == 0:
            s = w // n
            grid = dark[top + s // 2:top + n * s:s,
                        left + s // 2:left + n * s:s]
            if grid.shape != (n, n):
                continue
            try:
                return oracle_decode_matrix(grid.astype(np.uint8))
            except OracleReject:
                continue
    raise OracleReject("no readable symbol at any candidate size")
