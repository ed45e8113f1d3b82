"""Grayscale PNG carrier: writer output at bit depths 1 and 8, reader
filters, error paths and bounds."""

import struct
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from r2o import codec
from r2o.codec.png import (MAX_EDGE, PNGError, PNGTooLarge, read_png,
                          write_png)
from resize import image_of, light_of, pad_with_border, upscale

try:
    from PIL import Image
    import io
except ImportError:
    Image = None


def _pixels(data, **kwargs):
    """read_png's image at one value a pixel: uint8 from an 8-bit file,
    bools (True is white) from a 1-bit one."""
    rows, width, depth = read_png(data, **kwargs)
    if depth == 1:
        return light_of(codec.PseudoImage(rows=rows, width=width))
    return rows


def test_round_trip_random(rng):
    for shape in ((1, 1), (7, 3), (64, 64), (120, 37)):
        seed = rng.randrange(2 ** 31)
        pix = np.random.default_rng(seed).integers(0, 256, shape,
                                                   dtype=np.uint8)
        assert np.array_equal(_pixels(write_png(pix)), pix)


def test_signature_and_chunks():
    blob = write_png(np.zeros((4, 4), dtype=np.uint8))
    assert blob[:8] == b"\x89PNG\r\n\x1a\n"
    assert b"IHDR" in blob and b"IDAT" in blob and b"IEND" in blob


def test_reader_rejects_junk():
    with pytest.raises(PNGError):
        read_png(b"not a png at all")
    with pytest.raises(PNGError):
        read_png(b"\x89PNG\r\n\x1a\n" + b"\x00" * 16)
    blob = write_png(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(PNGError, match="first chunk"):  # IHDR comes second
        read_png(blob[:8] + _chunk(b"tEXt", b"k\x00v") + blob[8:])


def test_reader_rejects_unsupported_color_type():
    # hand-build an RGB IHDR; the reader only speaks grayscale
    ihdr = struct.pack(">IIBBBBB", 4, 4, 8, 2, 0, 0, 0)
    chunk = struct.pack(">I", len(ihdr)) + b"IHDR" + ihdr
    chunk += struct.pack(">I", zlib.crc32(b"IHDR" + ihdr))
    with pytest.raises(PNGError):
        read_png(b"\x89PNG\r\n\x1a\n" + chunk)


@pytest.mark.parametrize("depth", [2, 4, 16])
def test_reader_rejects_other_bit_depths(depth):
    row_bytes = 4 * depth // 8
    blob = _png(4, 4, zlib.compress(bytes((row_bytes + 1) * 4)), depth)
    with pytest.raises(PNGError, match="1-bit and 8-bit"):
        read_png(blob)


def _depth(blob):
    return blob[24]  # the IHDR's bit depth byte


def test_bool_arrays_are_written_at_depth_one(rng):
    for shape in ((1, 1), (7, 3), (3, 9), (64, 64), (120, 37)):
        gen = np.random.default_rng(rng.randrange(2 ** 31))
        light = gen.random(shape) < 0.5
        blob = image_of(light).to_png()
        assert _depth(blob) == 1
        back = _pixels(blob)
        assert back.dtype == np.bool_
        assert np.array_equal(back, light)
    assert _depth(write_png(np.zeros((4, 4), dtype=np.uint8))) == 8


def test_one_bit_rows_are_read_packed_with_white_padding():
    rows = np.array([[0b10100000], [0b01000000]], dtype=np.uint8)
    blob = _png_with_filter(rows, 0, width=3, depth=1)  # padding bits 0
    got, width, depth = read_png(blob)
    assert (width, depth) == (3, 1)
    assert got.tolist() == [[0b10111111], [0b01011111]]
    assert read_png(write_png(got, width, depth))[0].tolist() == got.tolist()


def test_writer_refuses_rows_that_do_not_hold_the_width():
    with pytest.raises(PNGError, match="do not hold"):
        write_png(np.zeros((2, 2), dtype=np.uint8), 17, 1)
    with pytest.raises(PNGError, match="do not hold"):
        write_png(np.zeros((2, 2), dtype=np.uint8), 3, 8)
    with pytest.raises(PNGError, match="uint8"):
        write_png(np.ones((2, 8), dtype=bool))


def test_from_png_thresholds_eight_bit_files_at_128():
    pix = np.array([[0, 127, 128, 255]], dtype=np.uint8)
    image = codec.PseudoImage.from_png(write_png(pix))
    assert light_of(image).tolist() == [[False, False, True, True]]


def test_stand_ins_are_one_bit_and_small():
    locator = "https://i.imgur.example/v1/objects/" + "a" * 31
    image = codec.encode_qr(codec.IndirectionPayload(locator=locator))
    blob = image.to_png()
    assert _depth(blob) == 1
    assert len(blob) <= 2048
    assert np.array_equal(_pixels(blob), light_of(image))
    # padded, upscaled and read-back rasters are 1-bit too
    for other in (pad_with_border(image, 600, 600),
                  upscale(image, 2),
                  codec.PseudoImage.from_png(blob)):
        assert _depth(other.to_png()) == 1
        assert np.array_equal(_pixels(other.to_png()), light_of(other))


def _chunk(tag, payload):
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload)))


def _png(width, height, idat, depth=8):
    ihdr = struct.pack(">IIBBBBB", width, height, depth, 0, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", idat) + _chunk(b"IEND", b""))


def _png_with_filter(pix, filter_type, width=None, depth=8):
    """Encode rows with fixed filter types; exercises the unfilterer.

    filter_type is one type for every row, or a sequence with one per row.
    At depth 1, pix holds the packed rows and width the pixels per row.
    """
    h, w = pix.shape
    kinds = [filter_type] * h if isinstance(filter_type, int) else filter_type
    raw = bytearray()
    prev = np.zeros(w, dtype=np.int16)
    for r, kind in enumerate(kinds):
        row = pix[r].astype(np.int16)
        if kind == 0:
            out = row
        elif kind == 1:
            out = row - np.concatenate(([0], row[:-1]))
        elif kind == 2:
            out = row - prev
        elif kind == 3:
            left = np.concatenate(([0], row[:-1]))
            out = row - (left + prev) // 2
        else:  # paeth
            left = np.concatenate(([0], row[:-1]))
            upleft = np.concatenate(([0], prev[:-1]))
            p = left + prev - upleft
            pa, pb, pc = (np.abs(p - left), np.abs(p - prev),
                          np.abs(p - upleft))
            pred = np.where((pa <= pb) & (pa <= pc), left,
                            np.where(pb <= pc, prev, upleft))
            out = row - pred
        raw.append(kind)
        raw.extend((out % 256).astype(np.uint8).tobytes())
        prev = row
    return _png(width or w, h, zlib.compress(bytes(raw)), depth)


@pytest.mark.parametrize("filter_type", [0, 1, 2, 3, 4])
def test_reader_handles_all_filter_types(filter_type, rng):
    pix = np.random.default_rng(rng.randrange(2 ** 31)).integers(
        0, 256, (23, 31), dtype=np.uint8)
    blob = _png_with_filter(pix, filter_type)
    assert np.array_equal(_pixels(blob), pix)


def test_reader_rejects_unknown_filter_type():
    raw = b"\x00" + bytes(4) + b"\x05" + bytes(4)
    with pytest.raises(PNGError, match="filter type 5"):
        read_png(_png(4, 2, zlib.compress(raw)))


def test_average_and_paeth_rows_are_budgeted():
    # their per-byte loop reads at most 256 KiB, one 512x512 8-bit image
    def blob(slow_rows, height=300, width=1024):
        raw = b"".join(bytes([3 + r % 2]) + bytes(width)
                       for r in range(slow_rows))
        raw += (b"\x00" + bytes(width)) * (height - slow_rows)
        return _png(width, height, zlib.compress(raw))

    assert not read_png(blob(256))[0].any()
    with pytest.raises(PNGError, match="Average or Paeth"):
        read_png(blob(257))


def _zeros_stream(n_bytes):
    """A deflate stream of n_bytes zeros, built without holding them all."""
    z = zlib.compressobj(9)
    block = bytes(1 << 20)
    parts = [z.compress(block) for _ in range(n_bytes >> 20)]
    return b"".join(parts) + z.flush()


def test_reader_rejects_bomb_dimensions_before_inflating():
    for depth in (1, 8):
        bomb = _png(20000, 20000, _zeros_stream(16 << 20), depth)
        t0 = time.perf_counter()
        with pytest.raises(PNGError, match="dimensions"):
            read_png(bomb)
        assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("depth", [1, 8])
@pytest.mark.parametrize("width,height", [(1025, 8), (8, 1025),
                                          (4096, 4096)])
def test_edge_limit_is_checked_before_inflating(depth, width, height):
    blob = _png(width, height, _zeros_stream(16 << 20), depth)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(PNGTooLarge, match="exceed 1024"):
            read_png(blob, max_edge=1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 0.5
    assert peak < 1 << 16
    with pytest.raises(PNGTooLarge):  # a caller cannot lift MAX_EDGE
        read_png(_png(MAX_EDGE + 1, 8, b"", depth), max_edge=10 ** 6)
    if max(width, height) <= MAX_EDGE:  # the limit is the caller's
        with pytest.raises(PNGError, match="does not match"):
            read_png(_png(width, height, zlib.compress(b"\0"), depth))


@pytest.mark.parametrize("width,height", [(0, 8), (8, 0),
                                          (MAX_EDGE + 1, 8)])
def test_reader_rejects_out_of_range_dimensions(width, height):
    with pytest.raises(PNGError):
        read_png(_png(width, height, zlib.compress(b"")))


def test_reader_stops_inflating_an_oversized_stream():
    for depth in (1, 8):
        blob = _png(64, 64, _zeros_stream(16 << 20), depth)
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(PNGError, match="does not match"):
                read_png(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 0.5
        assert peak < 1 << 20  # inflated no further than 65 x 64 bytes + 1


def test_reader_rejects_short_stream():
    for depth, stride in ((1, 2), (8, 9)):  # 8 pixels: 1 or 8 bytes + 1
        with pytest.raises(PNGError, match="does not match"):
            read_png(_png(8, 8, zlib.compress(bytes(stride * 7)), depth))


def test_reader_rejects_unterminated_stream():
    for depth, stride in ((1, 2), (8, 9)):
        z = zlib.compressobj()
        body = z.compress(bytes(stride * 8)) + z.flush(zlib.Z_SYNC_FLUSH)
        assert len(zlib.decompressobj().decompress(body)) == stride * 8
        with pytest.raises(PNGError, match="does not match"):
            read_png(_png(8, 8, body, depth))  # no end of stream


_images = st.tuples(st.integers(1, 12), st.integers(1, 12),
                    st.integers(0, 2 ** 32 - 1))


@given(_images, st.data())
def test_property_mixed_filters_decode(shape, data):
    h, w, seed = shape
    pix = np.random.default_rng(seed).integers(0, 256, (h, w),
                                               dtype=np.uint8)
    kinds = data.draw(st.lists(st.integers(0, 4), min_size=h, max_size=h))
    assert np.array_equal(_pixels(_png_with_filter(pix, kinds)), pix)


@given(_images, st.data())
def test_property_truncated_streams_fail_typed(shape, data):
    h, w, seed = shape
    pix = np.random.default_rng(seed).integers(0, 256, (h, w),
                                               dtype=np.uint8)
    kinds = data.draw(st.lists(st.integers(0, 4), min_size=h, max_size=h))
    blob = _png_with_filter(pix, kinds)
    cut = data.draw(st.integers(0, len(blob) - 1))
    try:
        out = _pixels(blob[:cut])
    except PNGError:
        return
    # only a cut inside the trailing IEND chunk leaves the image whole
    assert np.array_equal(out, pix)


@given(st.integers(1, 8), st.integers(1, 8), st.binary(min_size=1),
       st.data())
def test_property_bad_filter_bytes_fail_typed(h, w, body, data):
    stride = w + 1
    raw = bytearray((body * (stride * h))[:stride * h])
    row = data.draw(st.integers(0, h - 1))
    raw[row * stride] = data.draw(st.integers(5, 255))
    with pytest.raises(PNGError, match="filter type"):
        read_png(_png(w, h, zlib.compress(bytes(raw))))


_bilevel = st.tuples(st.integers(1, 12), st.integers(1, 20),
                     st.integers(0, 2 ** 32 - 1))


def _bilevel_png(shape, data):
    """A random 1-bit image with drawn filter types and padding bits."""
    h, w, seed = shape
    light = np.random.default_rng(seed).random((h, w)) < 0.5
    rows = np.packbits(light, axis=1)
    rows[:, -1] |= data.draw(st.integers(0, (1 << (-w % 8)) - 1))
    kinds = data.draw(st.lists(st.integers(0, 4), min_size=h, max_size=h))
    blob = _png_with_filter(rows, kinds, width=w, depth=1)
    return blob, rows, light


@given(_bilevel, st.data())
def test_property_one_bit_mixed_filters_decode(shape, data):
    blob, _, want = _bilevel_png(shape, data)
    assert np.array_equal(_pixels(blob), want)


@given(_bilevel, st.data())
def test_property_one_bit_truncated_streams_fail_typed(shape, data):
    blob, _, want = _bilevel_png(shape, data)
    cut = data.draw(st.integers(0, len(blob) - 1))
    try:
        out = _pixels(blob[:cut])
    except PNGError:
        return
    assert np.array_equal(out, want)  # the cut fell inside IEND


@given(_bilevel, st.integers(1, 300), st.booleans())
def test_property_one_bit_long_or_unterminated_streams_fail_typed(
        shape, extra, sync):
    h, w, _ = shape
    raw = bytes(((w + 7) // 8 + 1) * h + extra)
    if sync:  # the declared rows, then no end of stream
        z = zlib.compressobj()
        body = z.compress(raw[:len(raw) - extra]) + z.flush(zlib.Z_SYNC_FLUSH)
    else:
        body = zlib.compress(raw)
    with pytest.raises(PNGError, match="does not match"):
        read_png(_png(w, h, body, depth=1))


@given(_bilevel, st.binary(min_size=1), st.data())
def test_property_one_bit_bad_filter_bytes_fail_typed(shape, body, data):
    h, w, _ = shape
    stride = (w + 7) // 8 + 1
    raw = bytearray((body * (stride * h))[:stride * h])
    for r in range(h):
        raw[r * stride] %= 5
    row = data.draw(st.integers(0, h - 1))
    raw[row * stride] = data.draw(st.integers(5, 255))
    with pytest.raises(PNGError, match="filter type"):
        read_png(_png(w, h, zlib.compress(bytes(raw)), depth=1))


@given(st.binary(max_size=200))
def test_property_arbitrary_chunks_fail_typed(tail):
    try:
        read_png(b"\x89PNG\r\n\x1a\n" + tail)
    except PNGError:
        pass


@pytest.mark.skipif(Image is None, reason="Pillow not installed")
def test_pillow_reads_writer_output(rng):
    pix = np.random.default_rng(5).integers(0, 256, (50, 40), dtype=np.uint8)
    with Image.open(io.BytesIO(write_png(pix))) as im:
        assert im.mode == "L"
        assert np.array_equal(np.asarray(im), pix)


@pytest.mark.skipif(Image is None, reason="Pillow not installed")
def test_reader_reads_pillow_output(rng):
    pix = np.random.default_rng(6).integers(0, 256, (33, 62), dtype=np.uint8)
    buf = io.BytesIO()
    Image.fromarray(pix, mode="L").save(buf, format="PNG")
    assert np.array_equal(_pixels(buf.getvalue()), pix)
