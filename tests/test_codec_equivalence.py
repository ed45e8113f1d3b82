"""The vectorised codec against plain scalar references.

Each reference below is the straightforward per-row, per-module, per-bit
or per-coefficient loop the numpy code replaces. The golden digest pins the
exact pixels the encoder produced before vectorisation.
"""

import hashlib
import itertools
import random
import string
import struct
import zlib

import numpy as np
import pytest

from r2o import codec
from r2o.codec import decoder, encoder, gf256, matrix, tables
from r2o.codec.png import pack_rows, read_png
from qr_oracle import TOTAL_CODEWORDS
from resize import gray, image_of, light_of, pad_with_border, tight


# -- PNG unfiltering ---------------------------------------------------------

def _unfilter_reference(raw: bytes, width: int, height: int) -> np.ndarray:
    stride = width + 1
    out = np.empty((height, width), dtype=np.uint8)
    prev = bytes(width)
    for r in range(height):
        kind = raw[r * stride]
        line = bytearray(raw[r * stride + 1:(r + 1) * stride])
        n = len(line)
        if kind == 1:
            for i in range(1, n):
                line[i] = (line[i] + line[i - 1]) & 0xFF
        elif kind == 2:
            for i in range(n):
                line[i] = (line[i] + prev[i]) & 0xFF
        elif kind == 3:
            line[0] = (line[0] + prev[0] // 2) & 0xFF
            for i in range(1, n):
                line[i] = (line[i] + (line[i - 1] + prev[i]) // 2) & 0xFF
        elif kind == 4:
            for i in range(n):
                a = line[i - 1] if i else 0
                b = prev[i]
                c = prev[i - 1] if i else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
                line[i] = (line[i] + pred) & 0xFF
        out[r] = np.frombuffer(bytes(line), dtype=np.uint8)
        prev = bytes(line)
    return out


def _png_from_raw(raw: bytes, width: int, height: int,
                  depth: int = 8) -> bytes:
    def chunk(tag, payload):
        return (len(payload).to_bytes(4, "big") + tag + payload
                + zlib.crc32(tag + payload).to_bytes(4, "big"))

    ihdr = (width.to_bytes(4, "big") + height.to_bytes(4, "big")
            + bytes((depth, 0, 0, 0, 0)))
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(raw)) + chunk(b"IEND", b""))


@pytest.mark.parametrize("seed,height,width", [
    (0, 1, 1), (1, 7, 33), (2, 39, 5), (3, 40, 40),
    (4, 260, 300),  # more than one inflate step
])
def test_mixed_filter_rows_match_row_loop(seed, height, width):
    gen = np.random.default_rng(seed)
    rows = gen.integers(0, 256, (height, width + 1), dtype=np.uint8)
    rows[:, 0] = gen.integers(0, 5, height)  # filter types 0-4, mixed
    raw = rows.tobytes()
    assert np.array_equal(read_png(_png_from_raw(raw, width, height))[0],
                          _unfilter_reference(raw, width, height))


def _filter_reference(rows: np.ndarray, kind: int) -> bytes:
    """Filter byte rows with one type, one byte at a time (bpp = 1)."""
    raw = bytearray()
    prev = [0] * rows.shape[1]
    for row in rows.tolist():
        out = []
        for i, x in enumerate(row):
            a = row[i - 1] if i else 0
            b = prev[i]
            c = prev[i - 1] if i else 0
            if kind == 0:
                pred = 0
            elif kind == 1:
                pred = a
            elif kind == 2:
                pred = b
            elif kind == 3:
                pred = (a + b) // 2
            else:
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
            out.append((x - pred) & 0xFF)
        raw.append(kind)
        raw.extend(out)
        prev = row
    return bytes(raw)


def _bits_reference(raw: bytes, width: int, height: int) -> np.ndarray:
    """A 1-bit reader, one bit at a time: unfilter the byte rows, then
    pixel x is bit 7 - x % 8 of byte x // 8, white when set."""
    rows = _unfilter_reference(raw, (width + 7) // 8, height)
    out = np.empty((height, width), dtype=bool)
    for r in range(height):
        for x in range(width):
            out[r, x] = (int(rows[r, x >> 3]) >> (7 - (x & 7))) & 1
    return out


def _one_bit_light(data: bytes) -> np.ndarray:
    """A 1-bit file read by read_png, unpacked to bools; the padding bits
    of its rows must read white."""
    rows, width, depth = read_png(data)
    assert depth == 1
    light = light_of(codec.PseudoImage(rows=rows, width=width))
    assert np.array_equal(rows, pack_rows(light))
    return light


@pytest.mark.parametrize("width", [*range(1, 18), 63, 65, 512])
@pytest.mark.parametrize("kind", [0, 1, 2, 3, 4])
def test_one_bit_rows_match_bit_reader(width, kind):
    gen = np.random.default_rng(width * 10 + kind)
    height = 9
    light = gen.random((height, width)) < 0.5
    pad = -width % 8
    for pad_bits in (0, (1 << pad) - 1):  # padding all 0, then all 1
        rows = np.packbits(light, axis=1)
        rows[:, -1] |= pad_bits
        raw = _filter_reference(rows, kind)
        got = _one_bit_light(_png_from_raw(raw, width, height, depth=1))
        assert np.array_equal(got, light)
        assert np.array_equal(got, _bits_reference(raw, width, height))


@pytest.mark.parametrize("seed,height,width", [(5, 3, 13), (6, 40, 300),
                                               (7, 900, 600)])
def test_one_bit_mixed_filter_rows_match_bit_reader(seed, height, width):
    # arbitrary filtered bytes, so padding bits come out arbitrary too;
    # 900 rows of 76 bytes take more than one inflate step
    gen = np.random.default_rng(seed)
    rows = gen.integers(0, 256, (height, (width + 7) // 8 + 1),
                        dtype=np.uint8)
    rows[:, 0] = gen.integers(0, 5, height)
    raw = rows.tobytes()
    assert np.array_equal(
        _one_bit_light(_png_from_raw(raw, width, height, depth=1)),
        _bits_reference(raw, width, height))


# -- codeword placement ------------------------------------------------------

def _place_reference(m, version, codewords, mask_id):
    mask = matrix.MASK_FUNCS[mask_id]
    total_bits = len(codewords) * 8
    for i, (r, c) in enumerate(matrix.placement_order(version)):
        bit = (codewords[i >> 3] >> (7 - (i & 7))) & 1 if i < total_bits else 0
        m[r, c] = bit ^ int(mask(r, c))


def _read_reference(m, version, mask_id):
    mask = matrix.MASK_FUNCS[mask_id]
    bits = [int(m[r, c]) ^ int(mask(r, c))
            for r, c in matrix.placement_order(version)]
    return [int("".join(map(str, bits[i:i + 8])), 2)
            for i in range(0, len(bits) - 7, 8)]


def _read_stream(m, version, ec_level, mask_id):
    """The decoder's one-gather read: codewords in block order."""
    index, flip = decoder._stream_gather(version, ec_level, mask_id)
    return np.packbits(m.ravel()[index] ^ flip).tolist()


def _block_order_reference(codewords, version, ec_level):
    data_blocks, ec_blocks, _ = _deinterleave_reference(codewords, version,
                                                        ec_level)
    return [w for d, e in zip(data_blocks, ec_blocks) for w in d + e]


@pytest.mark.parametrize("version", range(1, 11))
def test_place_and_read_match_module_loops(version):
    r = random.Random(version)
    total = TOTAL_CODEWORDS[version]
    for mask_id in range(8):
        words = [r.randrange(256) for _ in range(total)]
        fast = matrix.base_matrix(version)
        slow = matrix.base_matrix(version)
        matrix.place_codewords(fast, version, words)
        fast ^= matrix.mask_layers(version)[mask_id]
        _place_reference(slow, version, words, mask_id)
        assert np.array_equal(fast, slow)
        assert _read_reference(fast, version, mask_id)[:total] == words
        for ec_level in tables.EC_LEVELS:
            assert _read_stream(fast, version, ec_level, mask_id) == \
                _block_order_reference(words, version, ec_level)


# -- mask penalty ------------------------------------------------------------

def _penalty_reference(m):
    n = m.shape[0]
    total = 0
    for grid in (m, m.T):
        for line in grid:
            run = 1
            for a, b in zip(line[:-1], line[1:]):
                if a == b:
                    run += 1
                    continue
                total += run - 2 if run >= 5 else 0
                run = 1
            total += run - 2 if run >= 5 else 0
    for r in range(n - 1):
        for c in range(n - 1):
            s = int(m[r, c] + m[r + 1, c] + m[r, c + 1] + m[r + 1, c + 1])
            total += 3 if s in (0, 4) else 0
    pats = ([1, 0, 1, 1, 1, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0, 1, 1, 1, 0, 1])
    for grid in (m, m.T):
        for line in grid.tolist():
            for c in range(n - 10):
                total += 40 * sum(line[c:c + 11] == p for p in pats)
    pct = 100 * int(m.sum()) / (n * n)
    return total + 10 * int(abs(pct - 50) // 5)


_FINDER_LINE = np.array([1, 0, 1, 1, 1, 0, 1, 0, 0, 0, 0], dtype=np.uint8)


@pytest.mark.parametrize("version", range(1, 11))
def test_batched_penalty_matches_scalar(version):
    n = tables.size_for_version(version)
    gen = np.random.default_rng(version)
    stack = [(gen.random((n, n)) < p).astype(np.uint8)
             for p in (0.1, 0.3, 0.5, 0.5, 0.7, 0.9)]
    words = gen.integers(0, 256, TOTAL_CODEWORDS[version]).tolist()
    for mask_id in (0, 5):  # real symbols are rich in finder-like runs
        m = matrix.base_matrix(version)
        matrix.place_codewords(m, version, words)
        m ^= matrix.mask_layers(version)[mask_id]
        stack.append(m)
    for width in (4, 5, 6):  # long runs across, 2x2 blocks, edge runs
        m = (gen.random((n, -(-n // width))) < 0.5).astype(np.uint8)
        stack.append(np.repeat(m, width, axis=1)[:, :n])
        stack.append(np.repeat(m, width, axis=1)[:, :n].T)
    for p in (0.3, 0.6):  # finder-like runs flush with both ends of lines
        m = (gen.random((n, n)) < p).astype(np.uint8)
        rows = gen.choice(n, size=n // 2, replace=False)
        m[rows[::2], :11] = _FINDER_LINE
        m[rows[1::2], -11:] = _FINDER_LINE[::-1]
        m[:4, -7:] = _FINDER_LINE[:7]  # cores without their light modules
        stack.append(m)
        stack.append(m.T)
    stack = np.stack(stack)
    assert matrix.penalty_scores(stack) == [_penalty_reference(m)
                                            for m in stack]


# -- Reed-Solomon syndromes --------------------------------------------------

def _syndromes_reference(codeword, nsym):
    out = []
    for i in range(nsym):
        y = 0
        for c in codeword:
            y = gf256.gf_mul(y, gf256.EXP[i]) ^ c
        out.append(y)
    return out


def test_syndromes_match_horner():
    r = random.Random(7)
    for _ in range(200):
        nsym = r.randrange(2, 31)
        data = [r.randrange(256) for _ in range(r.randrange(1, 120))]
        word = data + gf256.rs_encode(bytes(data), nsym)
        assert gf256._syndromes(word, nsym) == [0] * nsym
        for _ in range(r.randrange(1, 4)):
            word[r.randrange(len(word))] ^= r.randrange(1, 256)
        if r.random() < 0.2:
            word[0] = 0  # zero coefficients take the table's special case
        assert gf256._syndromes(word, nsym) == _syndromes_reference(word,
                                                                    nsym)
        assert gf256._syndromes(bytes(word), nsym) == \
            _syndromes_reference(word, nsym)


# -- Reed-Solomon parity -----------------------------------------------------

def _rs_encode_reference(data, nsym):
    gen = [1]
    for i in range(nsym):  # multiply by (x - alpha^i)
        gen = [a ^ gf256.gf_mul(b, gf256.EXP[i])
               for a, b in zip(gen + [0], [0] + gen)]
    rem = list(data) + [0] * nsym
    for i in range(len(data)):  # long division by the monic generator
        coef = rem[i]
        for j in range(1, nsym + 1):
            rem[i + j] ^= gf256.gf_mul(gen[j], coef)
    return rem[len(data):]


@pytest.mark.parametrize("shape", sorted({
    (k, ec) for ec, groups in tables.BLOCKS.values() for _, k in groups}))
def test_rs_encode_matches_long_division(shape):
    k, nsym = shape
    r = random.Random(k * 100 + nsym)
    words = [bytes(k), bytes(r.randrange(256) for _ in range(k))]
    for pos in {0, k // 2, k - 1}:  # a single nonzero byte
        words.append(bytes(k - 1 - pos) + bytes((r.randrange(1, 256),))
                     + bytes(pos))
    for data in words:
        assert gf256.rs_encode(data, nsym) == _rs_encode_reference(data,
                                                                   nsym)


# -- data codewords ----------------------------------------------------------

def _data_codewords_reference(data, version, ec_level):
    n_data = tables.data_codewords(version, ec_level)
    bits = []

    def push(value, width):
        bits.extend((value >> i) & 1 for i in range(width - 1, -1, -1))

    push(0b0100, 4)
    push(len(data), 8 if version <= 9 else 16)
    for b in data:
        push(b, 8)
    if len(bits) > 8 * n_data:
        raise codec.CapacityExceeded("bitstream exceeds capacity")
    bits.extend([0] * min(4, 8 * n_data - len(bits)))  # terminator
    bits.extend([0] * (-len(bits) % 8))
    out = [int("".join(map(str, bits[i:i + 8])), 2)
           for i in range(0, len(bits), 8)]
    return out + [encoder.PAD_BYTES[i % 2] for i in range(n_data - len(out))]


@pytest.mark.parametrize("version", [1, 2, 9, 10])  # 9 -> 10: 16-bit count
@pytest.mark.parametrize("ec_level", tables.EC_LEVELS)
def test_data_codewords_match_bit_list(version, ec_level):
    r = random.Random(version)
    # every length up to the one that no longer fits: streams that end
    # with pad bytes and the one that fills the capacity exactly
    for n in range(tables.byte_capacity(version, ec_level) + 2):
        data = bytes(r.randrange(256) for _ in range(n))
        try:
            want = _data_codewords_reference(data, version, ec_level)
        except codec.CapacityExceeded:
            with pytest.raises(codec.CapacityExceeded):
                encoder.build_data_codewords(data, version, ec_level)
            continue
        assert encoder.build_data_codewords(data, version,
                                            ec_level) == want


# -- rasterising -------------------------------------------------------------

def _render_reference(modules, canvas_edge, quiet_zone=4):
    n = modules.shape[0]
    edge = n + 2 * quiet_zone
    padded = np.zeros((edge, edge), dtype=np.uint8)
    padded[quiet_zone:quiet_zone + n, quiet_zone:quiet_zone + n] = modules
    scale = canvas_edge // edge
    light = np.kron(padded, np.ones((scale, scale), dtype=np.uint8)) == 0
    canvas = np.ones((canvas_edge, canvas_edge), dtype=bool)
    off = (canvas_edge - light.shape[0]) // 2
    canvas[off:off + light.shape[0], off:off + light.shape[1]] = light
    return canvas


# a target size, or none for a tight render at `scale` pixels a module
@pytest.mark.parametrize("target_size,scale", [
    pytest.param(512, None, id="config0"),  # padded unless the edge divides
    pytest.param(100, None, id="config1"),
    pytest.param(58, None, id="config2"),  # version 1 at scale 2, no pad
    pytest.param(None, 1, id="config3"),
    pytest.param(None, 2, id="config4"),
    pytest.param(None, 3, id="config5"),
])
@pytest.mark.parametrize("version", [1, 2, 5, 10])
def test_render_matches_kron(target_size, scale, version):
    # the shortest payload that needs the version
    n = tables.byte_capacity(version - 1, "M") + 1 if version > 1 else 10
    modules, version_used, _ = encoder.encode_symbol(b"x" * n, "M")
    assert version_used == version
    edge = modules.shape[0] + 8
    config = codec.QrConfig(target_size=target_size or edge * scale)
    if config.target_size < edge:
        with pytest.raises(codec.TargetTooSmall):
            encoder.render(modules, config)
        return
    image = encoder.render(modules, config)
    want = _render_reference(modules, config.target_size)
    assert np.array_equal(light_of(image), want)
    assert np.array_equal(image.rows, pack_rows(want))  # padding white


# -- byte-mode parsing -------------------------------------------------------

def _parse_reference(data, version):
    pos = 0

    def take(width):
        nonlocal pos
        if pos + width > 8 * len(data):
            raise codec.DecodeFailure("bitstream truncated")
        v = 0
        for _ in range(width):
            v = (v << 1) | ((data[pos >> 3] >> (7 - (pos & 7))) & 1)
            pos += 1
        return v

    if take(4) != 0b0100:
        raise codec.DecodeFailure("unsupported mode indicator")
    length = take(16 if version >= 10 else 8)
    return bytes(take(8) for _ in range(length))


@pytest.mark.parametrize("version", [1, 9, 10])
def test_byte_mode_parse_matches_bit_reader(version):
    r = random.Random(version)
    for _ in range(300):
        data = bytearray(r.randrange(256) for _ in range(r.randrange(0, 40)))
        if len(data) > 2 and r.random() < 0.8:  # byte mode, a count near fit
            k = r.randrange(len(data))
            if version >= 10:  # 4-bit mode, 16-bit count
                data[:3] = bytes((0x40, k >> 4,
                                  (k & 0xF) << 4 | data[2] & 0xF))
            else:  # 4-bit mode, 8-bit count
                data[:2] = bytes((0x40 | k >> 4,
                                  (k & 0xF) << 4 | data[1] & 0xF))
        data = bytes(data)
        try:
            want = _parse_reference(data, version)
        except codec.DecodeFailure:
            with pytest.raises(codec.DecodeFailure):
                decoder._parse_byte_mode(data, version)
            continue
        assert decoder._parse_byte_mode(data, version) == want


# -- format information and deinterleaving -------------------------------

def _nearest_format_reference(word_a, word_b):
    best = None
    for word, lvl, mask_id in decoder._ALL_FORMATS:
        d = min(bin(word ^ word_a).count("1"), bin(word ^ word_b).count("1"))
        if best is None or d < best[0]:
            best = (d, lvl, mask_id)
    if best[0] > 3:
        raise codec.DecodeFailure("format information unreadable")
    return best[1], best[2]


def _same_outcome(word_a, word_b):
    try:
        want = _nearest_format_reference(word_a, word_b)
    except codec.DecodeFailure:
        with pytest.raises(codec.DecodeFailure):
            decoder._nearest_format(word_a, word_b)
        return
    assert decoder._nearest_format(word_a, word_b) == want


def test_format_table_matches_nearest_of_32_for_every_word():
    r = random.Random(15)
    words = [w for w, _, _ in decoder._ALL_FORMATS]
    for word_a in range(1 << 15):
        # an arbitrary second copy, and one near a format word
        near = r.choice(words) ^ 1 << r.randrange(15) ^ 1 << r.randrange(15)
        _same_outcome(word_a, r.randrange(1 << 15))
        _same_outcome(word_a, near)


def test_format_table_breaks_ties_like_the_loop():
    r = random.Random(16)
    words = [w for w, _, _ in decoder._ALL_FORMATS]
    for _ in range(2000):
        i, j = r.sample(range(len(words)), 2)
        d = r.randrange(4)
        flips_a = r.sample(range(15), d)
        flips_b = r.sample(range(15), d)
        word_a = words[i] ^ sum(1 << b for b in flips_a)
        word_b = words[j] ^ sum(1 << b for b in flips_b)
        # both copies at distance d from different formats: the earlier
        # entry of _ALL_FORMATS wins, whichever copy holds it
        _same_outcome(word_a, word_b)
        _same_outcome(word_b, word_a)
        assert decoder._nearest_format(word_a, word_b) == \
            decoder._ALL_FORMATS[min(i, j)][1:]


def _deinterleave_reference(codewords, version, ec_level):
    ec_per_block, groups = tables.BLOCKS[(version, ec_level)]
    ks = [k for count, k in groups for _ in range(count)]
    data_blocks = [[] for _ in ks]
    ec_blocks = [[] for _ in ks]
    it = iter(codewords)
    for j in range(max(ks)):
        for i, k in enumerate(ks):
            if j < k:
                data_blocks[i].append(next(it))
    for _ in range(ec_per_block):
        for i in range(len(ks)):
            ec_blocks[i].append(next(it))
    return data_blocks, ec_blocks, ec_per_block


@pytest.mark.parametrize("key", sorted(tables.BLOCKS))
def test_deinterleave_matches_loop(key):
    version, ec_level = key
    r = random.Random(str(key))
    codewords = [r.randrange(256)
                 for _ in range(TOTAL_CODEWORDS[version])]
    data_blocks, ec_blocks, nsym = _deinterleave_reference(codewords, *key)
    mask_id = r.randrange(8)
    m = matrix.base_matrix(version)
    matrix.place_codewords(m, version, codewords)
    m ^= matrix.mask_layers(version)[mask_id]
    stream = _read_stream(m, version, ec_level, mask_id)
    _, ks, got_nsym = tables.block_layout(*key)
    assert got_nsym == nsym
    ends = list(itertools.accumulate(k + nsym for k in ks))
    blocks = [stream[end - k - nsym:end] for k, end in zip(ks, ends)]
    assert ends[-1] == len(stream)
    assert [b[:k] for b, k in zip(blocks, ks)] == data_blocks
    assert [b[k:] for b, k in zip(blocks, ks)] == ec_blocks


# -- golden encoder output ---------------------------------------------------

# sha256 over the height, width and 0/255 pixels of each symbol of the
# corpus below, as the scalar encoder drew them; any change to mask
# choice, placement or render shows here
GOLDEN_SHA256 = \
    "b5c58a1e456d67c24832bbd1e3492e00ff57349f5e4c9d47d084cc7f5d25c872"
MAX_PNG_BYTES = 8 * 1024  # a stored or barely compressed stream is larger


def _golden_corpus():
    """240 seeded locators: six per (version 1-10, EC level) pair."""
    r = random.Random(20181004)
    alphabet = string.ascii_letters + string.digits + "-._~/"
    for i in range(240):
        ec = tables.EC_LEVELS[i % 4]
        version = 1 + (i // 4) % 10
        hi = tables.byte_capacity(version, ec)
        lo = tables.byte_capacity(version - 1, ec) + 1 if version > 1 else 10
        lo = min(max(lo, 10), hi)
        scheme = "https://" if i % 3 else "http://"
        n = r.randint(lo, hi) - len(scheme)
        locator = scheme + "".join(r.choice(alphabet) for _ in range(n))
        if i % 5:
            config = codec.QrConfig(ec_level=ec)
        else:
            config = tight(locator, 1 + i % 3, ec)
        yield locator, config


def test_golden_png_digest():
    digest = hashlib.sha256()
    for locator, config in _golden_corpus():
        image = codec.encode_qr(codec.IndirectionPayload(locator=locator),
                                config)
        digest.update(struct.pack(">II", image.height, image.width))
        digest.update(gray(light_of(image)).tobytes())
        data = image.to_png()
        assert len(data) <= MAX_PNG_BYTES, (locator, len(data))
        rows, width, depth = read_png(data)
        assert (width, depth) == (image.width, 1)
        assert np.array_equal(rows, image.rows)
    assert digest.hexdigest() == GOLDEN_SHA256


# -- grid search on packed rows ----------------------------------------------

_FINDER_REFERENCE = np.zeros((7, 7), dtype=np.uint8)
_FINDER_REFERENCE[:, :] = 1
_FINDER_REFERENCE[1:6, 1:6] = 0
_FINDER_REFERENCE[2:5, 2:5] = 1


def _candidate_grids_reference(light):
    """The grid search on a bool raster (True is white), as the decoder
    ran it before it read packed rows."""
    rows = np.flatnonzero(~light.all(axis=1))
    cols = np.flatnonzero(~light.all(axis=0))
    if rows.size == 0:
        raise codec.NotAQrSymbol("image contains no dark pixels")
    top, left = int(rows[0]), int(cols[0])
    h = int(rows[-1]) - top + 1
    w = int(cols[-1]) - left + 1
    if h != w:
        raise codec.NotAQrSymbol("dark region is not square")
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
        agree = [int((grid[r0:r0 + 7, c0:c0 + 7] == _FINDER_REFERENCE).sum())
                 for r0, c0 in ((0, 0), (0, n - 7), (n - 7, 0))]
        if min(agree) >= decoder.FINDER_MIN_SCORE:
            found.append((sum(agree), n, grid))
    if not found:
        raise codec.NotAQrSymbol(
            "no finder patterns at any plausible module pitch")
    found.sort(key=lambda t: -t[0])
    return found


def _decode_reference(light):
    """decode_qr's answer for a bool raster, searched by the reference."""
    last_err = None
    for _, _, grid in _candidate_grids_reference(light):
        try:
            raw = decoder.decode_matrix(grid)
        except codec.DecodeFailure as exc:
            last_err = exc
            continue
        try:
            return codec.validate_locator(raw.decode("ascii"))
        except Exception:
            raise codec.DecodeFailure("not a content locator") from None
    raise last_err or codec.DecodeFailure("no candidate decoded")


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except codec.CodecError as exc:
        return "raised", type(exc)


def _same_as_bool_reference(image, light):
    """The packed grid search and decode give the reference's answers."""
    kind, want = _outcome(_candidate_grids_reference, light)
    got_kind, got = _outcome(decoder._candidate_grids, image.rows,
                             image.width)
    assert got_kind == kind
    if kind == "raised":
        assert got is want
    else:
        assert [(s, n) for s, n, _ in got] == [(s, n) for s, n, _ in want]
        for (_, _, a), (_, _, b) in zip(got, want):
            assert np.array_equal(a, b)
    decoded = _outcome(lambda im: codec.decode_qr(im).locator, image)
    assert decoded == _outcome(_decode_reference, light)
    return decoded


def test_packed_grid_search_matches_bool_reference_on_golden_corpus():
    decoded = 0
    for i, (locator, config) in enumerate(_golden_corpus()):
        configs = [config]
        if i % 4 == 0:
            configs += [tight(locator, s, config.ec_level) for s in (1, 2, 3)]
        for cfg in configs:
            image = codec.encode_qr(codec.IndirectionPayload(locator=locator),
                                    cfg)
            light = light_of(image)
            assert _same_as_bool_reference(image, light) == ("value",
                                                             locator)
            decoded += 1
    assert decoded == 240 + 3 * 60


def _one_bit_file(light, pad_bits):
    """A 1-bit PNG of `light` whose row padding bits are all `pad_bits`."""
    rows = np.packbits(light, axis=1)
    if light.shape[1] % 8:
        rows[:, -1] |= pad_bits & 0xFF >> light.shape[1] % 8
    raw = np.zeros((rows.shape[0], rows.shape[1] + 1), dtype=np.uint8)
    raw[:, 1:] = rows
    return _png_from_raw(raw.tobytes(), light.shape[1], light.shape[0],
                         depth=1)


@pytest.mark.parametrize("width", [*range(1, 18), 63, 64, 65, 128, 512,
                                   520, 576])
def test_packed_grid_search_matches_bool_reference_across_widths(width):
    gen = np.random.default_rng(width)
    rasters = [gen.random((width, width)) < p for p in (0.02, 0.5, 0.98)]
    square = np.ones((width, width), dtype=bool)
    k = max(1, width // 2)
    square[width - k:, :k] = False  # a dark square in the corner
    rasters.append(square)
    url = "http://a.example/w.png"
    scale = width // tight(url).target_size
    if scale:
        symbol = codec.encode_qr(codec.IndirectionPayload(locator=url),
                                 tight(url, scale))
        rasters.append(light_of(pad_with_border(symbol, width, width)))
    for light in rasters:
        for pad_bits in (0x00, 0xFF):
            image = codec.PseudoImage.from_png(_one_bit_file(light, pad_bits))
            assert np.array_equal(light_of(image), light)
            _same_as_bool_reference(image, light)
    if scale:
        assert codec.decode_qr(image).locator == url


def test_packed_grid_search_matches_bool_reference_on_random_rasters():
    gen = np.random.default_rng(2018)
    url = "http://a.example/rect.png"
    symbol = light_of(codec.encode_qr(codec.IndirectionPayload(locator=url),
                                      tight(url, 3)))
    outcomes = set()
    for case in range(300):
        if case % 3 == 2:  # a symbol with rectangles painted over it
            light = symbol.copy()
        else:
            h, w = gen.integers(1, 121, size=2)
            light = (gen.random((h, w)) < gen.random() if case % 3
                     else np.ones((h, w), dtype=bool))
        h, w = light.shape
        for _ in range(gen.integers(1, 4)):
            r0, r1 = sorted(gen.integers(0, h + 1, size=2))
            c0, c1 = sorted(gen.integers(0, w + 1, size=2))
            light[r0:r1, c0:c1] = gen.random() < 0.3  # mostly dark
        outcomes.add(_same_as_bool_reference(image_of(light), light))
    # the cases reach a payload and both kinds of failure
    assert ("value", url) in outcomes
    assert ("raised", codec.NotAQrSymbol) in outcomes
    assert ("raised", codec.DecodeFailure) in outcomes
