"""Codec behavior: exports, payloads, symbols, and the PNG carrier."""

import ast
import collections
import pathlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from r2o import codec
from r2o.codec import decoder, encoder, gf256, matrix, tables
from qr_oracle import TOTAL_CODEWORDS
from resize import image_of, light_of, pad_with_border, tight, upscale

URL_ALPHABET = ("abcdefghijklmnopqrstuvwxyz"
                "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-._~/")


def make_url(rng, length):
    prefix = "https://host.example/"
    body = "".join(rng.choice(URL_ALPHABET)
                   for _ in range(max(1, length - len(prefix))))
    return prefix + body


# -- exports ----------------------------------------------------------------

def _module_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_every_export_is_used_inside_the_package():
    # a name only tests use belongs in tests/: every module-level function,
    # class and constant of src/r2o needs a use in src/r2o or scripts/
    package = pathlib.Path(codec.__file__).parents[1]
    paths = [*package.rglob("*.py"),
             *(package.parents[1] / "scripts").glob("*.py")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in paths}
    used = collections.Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                used[node.id] += 1
            elif isinstance(node, ast.Attribute):
                used[node.attr] += 1
    unused = [f"{path.relative_to(package)}:{name}"
              for path, tree in trees.items() if path.is_relative_to(package)
              for name in _module_level_names(tree)
              if not (name.startswith("__") and name.endswith("__"))
              and not used[name]]
    assert not unused


# -- payload validation -----------------------------------------------------

def test_payload_requires_http_scheme():
    for bad in ("ftp://x.example/a", "mailto:a@b", "", "relative/path",
                "http://é.example/x"):
        with pytest.raises(codec.InvalidPayload):
            codec.IndirectionPayload(locator=bad).validate()


def test_locator_must_be_rfc_3986_characters():
    base = "http://a.example/x"
    for bad in ' "<>`\\{}|^\x00\x1f\x7f':
        with pytest.raises(codec.InvalidPayload, match="RFC 3986"):
            codec.validate_locator(base + bad)
    for bad in ("%", "%2", "%zz", '"onerror="alert(1)'):
        with pytest.raises(codec.InvalidPayload, match="RFC 3986"):
            codec.validate_locator(base + bad)
    ok = base + "-._~:/?#[]@!$&'()*+,;=%2F%e9"
    assert codec.validate_locator(ok) == ok


def test_payload_accepts_http_and_https():
    for ok in ("http://a.example/f.png", "https://a.example/f.png"):
        codec.IndirectionPayload(locator=ok).validate()


def test_serialized_payload_is_exactly_the_locator_bytes():
    url = "http://a.example/photo.png"
    p = codec.IndirectionPayload(locator=url)
    assert codec.serialize_payload(p) == url.encode("ascii")


# -- round trips ------------------------------------------------------------

def test_round_trip_short_url():
    url = "http://a.example/p.png"
    image = codec.encode_qr(codec.IndirectionPayload(locator=url))
    got = codec.decode_qr(image)
    assert got.locator == url


def test_round_trip_all_ec_levels(rng):
    url = make_url(rng, 90)
    for level in tables.EC_LEVELS:
        cfg = codec.QrConfig(ec_level=level)
        got = codec.decode_qr(codec.encode_qr(
            codec.IndirectionPayload(locator=url), cfg))
        assert got.locator == url, level


def test_qr_config_refuses_an_unknown_ec_level():
    # refused where it is set, not when a photo is already off-site
    for level in ("X", "m", ""):
        with pytest.raises(ValueError, match="unknown EC level"):
            codec.QrConfig(ec_level=level)


def test_round_trip_spans_versions(rng):
    # walk payload sizes that force a range of symbol versions
    for length in (22, 40, 70, 100, 140, 180, 210):
        url = make_url(rng, length)
        sym, version, mask = encoder.encode_symbol(url.encode())
        assert 1 <= version <= 10
        assert 0 <= mask <= 7
        image = codec.encode_qr(codec.IndirectionPayload(locator=url))
        assert codec.decode_qr(image).locator == url


def test_capacity_exceeded():
    url = "http://a.example/" + "a" * 240  # beyond version 10 at level M
    with pytest.raises(codec.CapacityExceeded):
        codec.encode_qr(codec.IndirectionPayload(locator=url))


@given(st.integers(min_value=20, max_value=150), st.integers())
def test_property_round_trip(length, seed):
    import random
    url = make_url(random.Random(seed), length)
    image = codec.encode_qr(codec.IndirectionPayload(locator=url),
                            tight(url, 2))
    assert codec.decode_qr(image).locator == url


# -- decode failure modes ---------------------------------------------------

def test_blank_image_is_not_a_symbol():
    white = image_of(np.ones((80, 80), dtype=bool))
    with pytest.raises(codec.NotAQrSymbol):
        codec.decode_qr(white)


def test_noise_is_not_a_symbol():
    noise = np.random.default_rng(11).integers(0, 256, (120, 120),
                                               dtype=np.uint8)
    with pytest.raises(codec.NotAQrSymbol):
        codec.decode_qr(image_of(noise >= 128))


def test_decode_refuses_rows_that_are_not_packed_bytes():
    url = "http://a.example/g.png"
    image = codec.encode_qr(codec.IndirectionPayload(locator=url))
    narrow = codec.encode_qr(codec.IndirectionPayload(locator=url),
                             tight(url))
    dark_padding = narrow.rows.copy()
    dark_padding[:, -1] &= 0xFF << -narrow.width % 8 & 0xFF
    # a raster of one value a pixel, rows too short or long for the
    # width, or dark padding bits would be sampled as pixels
    for rows, width in ((image.rows[..., None], image.width),
                        (light_of(image), image.width),
                        (image.rows, image.width + 8),
                        (image.rows, image.width - 8),
                        (dark_padding, narrow.width)):
        with pytest.raises(codec.NotAQrSymbol, match="2-D uint8 rows"):
            codec.decode_qr(codec.PseudoImage(rows=rows, width=width))


def test_not_a_symbol_is_not_a_decode_failure():
    # callers branch on the distinction; the types must stay siblings
    assert not issubclass(codec.NotAQrSymbol, codec.DecodeFailure)
    assert not issubclass(codec.DecodeFailure, codec.NotAQrSymbol)


def test_heavy_corruption_raises_decode_failure():
    url = "http://a.example/corrupt-me.png"
    image = codec.encode_qr(codec.IndirectionPayload(locator=url),
                            tight(url))
    light = light_of(image)
    h, w = light.shape
    light[h // 2 - 4:h // 2 + 4, 10:w - 10] ^= True  # stomp an 8-row band
    with pytest.raises((codec.DecodeFailure, codec.NotAQrSymbol)):
        codec.decode_qr(image_of(light))


def test_valid_symbol_with_non_locator_payload_fails():
    modules, _, _ = encoder.encode_symbol(b"just some prose, no URL")
    image = encoder.render(modules, codec.QrConfig())
    with pytest.raises(codec.DecodeFailure):
        codec.decode_qr(image)


def test_single_module_flips_are_corrected(rng):
    url = "http://a.example/flip.png"
    image = codec.encode_qr(codec.IndirectionPayload(locator=url),
                            tight(url))
    edge = image.width
    for _ in range(25):
        # stay inside the quiet zone: localization relies on a clean border
        r = rng.randrange(4, edge - 4)
        c = rng.randrange(4, edge - 4)
        light = light_of(image)
        light[r, c] ^= True
        assert codec.decode_qr(image_of(light)).locator == url


def _flip_codewords(modules, version, mask_id, errors):
    """The matrix with one bit flipped in each of errors[b] codewords of
    block b, data and EC codewords alike: one byte error each."""
    index, _ = decoder._stream_gather(version, "M", mask_id)
    _, ks, nsym = tables.block_layout(version, "M")
    starts = np.cumsum([0] + [k + nsym for k in ks])
    damaged = modules.copy().ravel()
    for block, count in errors.items():
        gen = np.random.default_rng(block)
        words = starts[block] + gen.choice(ks[block] + nsym, count,
                                           replace=False)
        damaged[index[8 * words + gen.integers(0, 8, count)]] ^= 1
    return damaged.reshape(modules.shape)


def test_blocks_of_unequal_length_correct_up_to_capacity():
    url = "https://host.example/" + "u" * 120
    modules, version, mask_id = encoder.encode_symbol(url.encode("ascii"))
    _, ks, nsym = tables.block_layout(version, "M")
    assert (version, ks, nsym) == (8, (38, 38, 39, 39), 22)
    capacity = nsym // 2
    # a short block and a long block, each at capacity
    damaged = _flip_codewords(modules, version, mask_id,
                              {1: capacity, 2: capacity})
    assert decoder.decode_matrix(damaged) == url.encode("ascii")
    for block in range(len(ks)):
        damaged = _flip_codewords(modules, version, mask_id,
                                  {block: capacity + 1})
        with pytest.raises(codec.DecodeFailure):
            decoder.decode_matrix(damaged)


_MEMO_BOUND = 256  # most entries any decoder memo may hold


def test_decoder_memos_stay_bounded_over_many_placements():
    # a memo keyed on where a symbol sits, or on its pitch, must be
    # bounded; the others are keyed on versions and block layouts only
    url = "http://a.example/placed.png"
    symbols = [codec.encode_qr(codec.IndirectionPayload(locator=url),
                               tight(url, scale)) for scale in (1, 2, 3, 4)]
    memos = [f for module in (decoder, gf256, matrix, tables)
             for f in vars(module).values() if hasattr(f, "cache_info")]
    for symbol in symbols:
        codec.decode_qr(symbol)
    settled = {f: f.cache_info().currsize for f in memos}
    gen = np.random.default_rng(200)
    for i in range(200):
        symbol = symbols[i % len(symbols)]
        extra_w, extra_h = gen.integers(0, 160, size=2)
        placed = pad_with_border(symbol, symbol.width + int(extra_w),
                                 symbol.height + int(extra_h))
        assert codec.decode_qr(placed).locator == url
    for f in memos:
        info = f.cache_info()
        if info.maxsize is None:
            assert info.currsize == settled[f], f.__name__
        else:
            assert info.currsize <= info.maxsize <= _MEMO_BOUND, f.__name__


# -- rendering, padding, upscaling ------------------------------------------

def test_target_size_render_is_exact():
    image = codec.encode_qr(
        codec.IndirectionPayload(locator="http://a.example/s.png"),
        codec.QrConfig(target_size=512))
    assert (image.width, image.height) == (512, 512)


def test_target_too_small():
    with pytest.raises(codec.TargetTooSmall):
        codec.encode_qr(
            codec.IndirectionPayload(locator="http://a.example/s.png"),
            codec.QrConfig(target_size=16))


def test_tight_render_at_three_pixels_a_module():
    url = "http://a.example/s.png"
    image = codec.encode_qr(codec.IndirectionPayload(locator=url),
                            tight(url, 3))
    assert image.width % 3 == 0
    assert codec.decode_qr(image).locator == url


def test_pad_with_border_round_trip():
    url = "http://a.example/padded.png"
    image = codec.encode_qr(codec.IndirectionPayload(locator=url),
                            tight(url, 2))
    padded = pad_with_border(image, image.width + 37, image.height + 74)
    assert (padded.width, padded.height) == (image.width + 37,
                                             image.height + 74)
    assert codec.decode_qr(padded).locator == url


def test_pad_with_border_identity_and_too_small():
    image = codec.encode_qr(
        codec.IndirectionPayload(locator="http://a.example/x.png"))
    same = pad_with_border(image, image.width, image.height)
    assert np.array_equal(light_of(same), light_of(image))
    assert same.rows is not image.rows
    with pytest.raises(codec.TargetTooSmall):
        pad_with_border(image, image.width - 1, image.height)


def test_upscale_round_trip():
    url = "http://a.example/up.png"
    image = codec.encode_qr(codec.IndirectionPayload(locator=url),
                            tight(url))
    for factor in (2, 3, 4):
        grown = upscale(image, factor)
        assert grown.width == image.width * factor
        assert codec.decode_qr(grown).locator == url
    assert upscale(image, 1) is image
    with pytest.raises(ValueError):
        upscale(image, 0)


def test_pseudo_image_png_round_trip():
    url = "http://a.example/png.png"
    image = codec.encode_qr(codec.IndirectionPayload(locator=url))
    back = codec.PseudoImage.from_png(image.to_png())
    assert back.width == image.width
    assert np.array_equal(back.rows, image.rows)
    assert codec.decode_qr(back).locator == url


# -- matrix internals -------------------------------------------------------

def test_placement_covers_every_data_module():
    for version in (1, 4, 7, 10):
        order = matrix.placement_order(version)
        assert len(order) == len(set(order))
        fm = matrix.function_mask(version)
        n = fm.shape[0]
        # remainder bits keep total placement slots >= 8 * codewords
        assert len(order) == n * n - int(fm.sum())


def test_place_then_read_is_identity(rng):
    # the decoder reads codewords block by block; put back in stream
    # order, they are the placed ones
    for version in (2, 5, 8):
        total = TOTAL_CODEWORDS[version]
        words = [rng.randrange(256) for _ in range(total)]
        for mask_id in (0, 3, 7):
            m = matrix.base_matrix(version)
            matrix.place_codewords(m, version, words)
            m ^= matrix.mask_layers(version)[mask_id]
            for ec_level in tables.EC_LEVELS:
                index, flip = decoder._stream_gather(version, ec_level,
                                                     mask_id)
                order, _, _ = tables.block_layout(version, ec_level)
                stream = np.empty(total, dtype=np.uint8)
                stream[order] = np.packbits(m.ravel()[index] ^ flip)
                assert stream.tolist() == words


_FORMAT_PAIRS = {tables.format_info(lvl, k): (lvl, k)
                 for lvl in tables.EC_LEVELS for k in range(8)}


@pytest.mark.parametrize("damage", ["light", "dark", "toward_neighbour"])
@pytest.mark.parametrize("copy", [0, 1])
def test_format_read_recovers_from_either_copy(copy, damage):
    """All 32 (EC level, mask) pairs survive the loss of one format copy.

    The lost copy is painted light, painted dark, or has six of the seven
    bits flipped that separate its word from a neighbouring format word, so
    on its own it reads as that neighbour. (A complemented copy cannot be
    told apart: the complement of every format word is another format word.)
    """
    version = 3
    rr, cc = matrix.format_positions(tables.size_for_version(version))
    rows, cols = rr[copy], cc[copy]
    for word, pair in _FORMAT_PAIRS.items():
        m = matrix.base_matrix(version)
        matrix.place_format_info(m, *pair)
        if damage == "toward_neighbour":
            near = min((w for w in _FORMAT_PAIRS if w != word),
                       key=lambda w: bin(w ^ word).count("1"))
            differ = [i for i in range(15) if (near ^ word) >> i & 1]
            assert len(differ) == 7
            m[rows[differ[:6]], cols[differ[:6]]] ^= 1
        else:
            m[rows, cols] = damage == "dark"
        assert decoder._nearest_format(*matrix.read_format_words(m)) == pair


def test_penalty_prefers_textured_matrices():
    n = 21
    flat = np.zeros((n, n), dtype=np.uint8)
    checker = np.indices((n, n)).sum(axis=0) % 2
    flat_score, checker_score = matrix.penalty_scores(
        np.stack([flat, checker.astype(np.uint8)]))
    assert flat_score > checker_score
