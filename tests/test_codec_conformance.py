"""Cross-checks of the symbol codec against independent readers.

Two directions, two judges: the strict in-repo oracle reader (written
separately from the production decoder, grid sampling and fixed-pattern
checks of its own) and, when OpenCV is importable, its QR detector and
encoder as an outside implementation that shares no code with this repo.
"""

import random

import numpy as np
import pytest

import qr_oracle
from r2o import codec
from r2o.codec import tables
from r2o.codec.encoder import QUIET_ZONE
from resize import (gray, image_of, light_of, pad_with_border, tight,
                    upscale)

try:
    import cv2
except ImportError:
    cv2 = None

URLS = [
    "http://a.example/p.png",
    "https://b.example/albums/2019/holiday-042.png",
    "http://c.example/" + "x" * 40,
    "https://d.example/" + "y" * 90,
    # keep the longest case inside version-10 capacity at level Q
    "http://e.example/" + "z" * 120,
]


def _encode(url, level="M"):
    return codec.encode_qr(codec.IndirectionPayload(locator=url),
                           tight(url, ec_level=level))


# -- in-repo oracle ---------------------------------------------------------

def test_oracle_accepts_encoder_output():
    for url in URLS:
        for level in ("M", "Q"):
            image = _encode(url, level)
            payload = qr_oracle.oracle_decode_pixels(gray(light_of(image)))
            assert payload == url.encode("ascii"), (url, level)


def test_oracle_accepts_upscaled_output():
    url = "http://a.example/up.png"
    image = upscale(_encode(url), 3)
    assert (qr_oracle.oracle_decode_pixels(gray(light_of(image)))
            == url.encode())


def test_oracle_rejects_tampered_format_info():
    image = _encode("http://a.example/t.png")
    pix = gray(light_of(image))
    # both format copies live inside the symbol; breaking four modules of
    # one copy must fail the oracle's agreement check
    qz = QUIET_ZONE
    for c in (0, 1, 2, 3):
        pix[qz + 8, qz + c] ^= 255
    with pytest.raises(qr_oracle.OracleReject):
        qr_oracle.oracle_decode_pixels(pix)


def test_oracle_rejects_broken_timing():
    image = _encode("http://a.example/t2.png")
    pix = gray(light_of(image))
    qz = QUIET_ZONE
    pix[qz + 6, qz + 8] ^= 255  # timing row module
    with pytest.raises(qr_oracle.OracleReject):
        qr_oracle.oracle_decode_pixels(pix)


def test_oracle_matches_production_decoder_on_random_urls(rng):
    for _ in range(25):
        length = rng.randint(20, 180)
        url = "http://r.example/" + "".join(
            rng.choice("abcdefghijklmnopqrstuvwxyz0123456789")
            for _ in range(length))
        image = _encode(url)
        assert (qr_oracle.oracle_decode_pixels(gray(light_of(image)))
                == codec.decode_qr(image).locator.encode())


# -- OpenCV, both directions ------------------------------------------------

@pytest.mark.skipif(cv2 is None, reason="OpenCV not installed")
def test_opencv_reads_encoder_output():
    detector = cv2.QRCodeDetectorAruco()
    for url in URLS:
        for level in ("L", "M", "Q", "H"):
            if len(url) > tables.byte_capacity(tables.MAX_VERSION, level):
                continue
            # the vision pipeline needs several pixels per module
            image = upscale(_encode(url, level), 8)
            text, _, _ = detector.detectAndDecode(gray(light_of(image)))
            assert text == url, (url, level)


@pytest.mark.skipif(cv2 is None, reason="OpenCV not installed")
def test_decoder_reads_opencv_output():
    rng = random.Random(404)
    enc = cv2.QRCodeEncoder_create()
    for _ in range(12):
        length = rng.randint(20, 140)
        url = "http://cv.example/" + "".join(
            rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(length))
        raw = enc.encode(url)  # 0 = dark, tight 2-module quiet zone
        light = raw > 0
        image = pad_with_border(
            image_of(light),
            light.shape[1] + 8, light.shape[0] + 8)
        assert codec.decode_qr(image).locator == url


@pytest.mark.skipif(cv2 is None, reason="OpenCV not installed")
def test_format_words_match_opencv_symbols():
    # the 15-bit format words are recalled constants; cross-check a few by
    # reading them straight out of OpenCV-encoded matrices
    enc = cv2.QRCodeEncoder_create()
    raw = enc.encode("http://fw.example/abcdef")
    dark = raw == 0
    # locate the symbol bounds inside OpenCV's quiet zone
    rows = np.flatnonzero(dark.any(axis=1))
    cols = np.flatnonzero(dark.any(axis=0))
    grid = dark[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1].astype(np.uint8)
    # copy A of the format word, MSB first, timing row/column skipped
    coords = [(8, 0), (8, 1), (8, 2), (8, 3), (8, 4), (8, 5), (8, 7),
              (8, 8), (7, 8), (5, 8), (4, 8), (3, 8), (2, 8), (1, 8), (0, 8)]
    word = 0
    for r, c in coords:
        word = (word << 1) | int(grid[r, c])
    published = {tables.format_info(level, mask)
                 for level in tables.EC_LEVELS for mask in range(8)}
    assert word in published
