"""Grayscale PNG carrier: writer output, reader filters, error paths."""

import struct
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from r2o.codec.png import MAX_EDGE, PNGError, read_png, write_png

try:
    from PIL import Image
    import io
except ImportError:
    Image = None


def test_round_trip_random(rng):
    for shape in ((1, 1), (7, 3), (64, 64), (120, 37)):
        seed = rng.randrange(2 ** 31)
        pix = np.random.default_rng(seed).integers(0, 256, shape,
                                                   dtype=np.uint8)
        assert np.array_equal(read_png(write_png(pix)), pix)


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
    # hand-build an RGB IHDR; the reader only speaks 8-bit grayscale
    ihdr = struct.pack(">IIBBBBB", 4, 4, 8, 2, 0, 0, 0)
    chunk = struct.pack(">I", len(ihdr)) + b"IHDR" + ihdr
    chunk += struct.pack(">I", zlib.crc32(b"IHDR" + ihdr))
    with pytest.raises(PNGError):
        read_png(b"\x89PNG\r\n\x1a\n" + chunk)


def _chunk(tag, payload):
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload)))


def _png(width, height, idat):
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", idat) + _chunk(b"IEND", b""))


def _png_with_filter(pix, filter_type):
    """Encode rows with fixed filter types; exercises the unfilterer.

    filter_type is one type for every row, or a sequence with one per row.
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
    return _png(w, h, zlib.compress(bytes(raw)))


@pytest.mark.parametrize("filter_type", [0, 1, 2, 3, 4])
def test_reader_handles_all_filter_types(filter_type, rng):
    pix = np.random.default_rng(rng.randrange(2 ** 31)).integers(
        0, 256, (23, 31), dtype=np.uint8)
    blob = _png_with_filter(pix, filter_type)
    assert np.array_equal(read_png(blob), pix)


def test_reader_rejects_unknown_filter_type():
    raw = b"\x00" + bytes(4) + b"\x05" + bytes(4)
    with pytest.raises(PNGError, match="filter type 5"):
        read_png(_png(4, 2, zlib.compress(raw)))


def _zeros_stream(n_bytes):
    """A deflate stream of n_bytes zeros, built without holding them all."""
    z = zlib.compressobj(9)
    block = bytes(1 << 20)
    parts = [z.compress(block) for _ in range(n_bytes >> 20)]
    return b"".join(parts) + z.flush()


def test_reader_rejects_bomb_dimensions_before_inflating():
    bomb = _png(20000, 20000, _zeros_stream(16 << 20))
    t0 = time.perf_counter()
    with pytest.raises(PNGError, match="dimensions"):
        read_png(bomb)
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("width,height", [(0, 8), (8, 0),
                                          (MAX_EDGE + 1, 8)])
def test_reader_rejects_out_of_range_dimensions(width, height):
    with pytest.raises(PNGError):
        read_png(_png(width, height, zlib.compress(b"")))


def test_reader_stops_inflating_an_oversized_stream():
    blob = _png(64, 64, _zeros_stream(16 << 20))
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
    with pytest.raises(PNGError, match="does not match"):
        read_png(_png(8, 8, zlib.compress(bytes(9 * 7))))


def test_reader_rejects_unterminated_stream():
    z = zlib.compressobj()
    body = z.compress(bytes(9 * 8)) + z.flush(zlib.Z_SYNC_FLUSH)  # no end
    assert len(zlib.decompressobj().decompress(body)) == 9 * 8
    with pytest.raises(PNGError, match="does not match"):
        read_png(_png(8, 8, body))


_images = st.tuples(st.integers(1, 12), st.integers(1, 12),
                    st.integers(0, 2 ** 32 - 1))


@given(_images, st.data())
def test_property_mixed_filters_decode(shape, data):
    h, w, seed = shape
    pix = np.random.default_rng(seed).integers(0, 256, (h, w),
                                               dtype=np.uint8)
    kinds = data.draw(st.lists(st.integers(0, 4), min_size=h, max_size=h))
    assert np.array_equal(read_png(_png_with_filter(pix, kinds)), pix)


@given(_images, st.data())
def test_property_truncated_streams_fail_typed(shape, data):
    h, w, seed = shape
    pix = np.random.default_rng(seed).integers(0, 256, (h, w),
                                               dtype=np.uint8)
    kinds = data.draw(st.lists(st.integers(0, 4), min_size=h, max_size=h))
    blob = _png_with_filter(pix, kinds)
    cut = data.draw(st.integers(0, len(blob) - 1))
    try:
        out = read_png(blob[:cut])
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
    assert np.array_equal(read_png(buf.getvalue()), pix)
