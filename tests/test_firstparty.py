"""First-party simulator: albums, PNG-only photos, captions, page shape."""

import struct
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from r2o import codec, firstparty
from r2o.codec.png import write_png
from r2o.core import FetchError, HttpFetcher, InProcessFetcher, write_path
from r2o.firstparty import (
    AlbumNotFound,
    FirstPartyService,
    HttpFirstPartyClient,
    PhotoNotFound,
    UnsupportedMediaType,
    album_page_path,
    serve_firstparty,
)
from r2o.store import ContentItem, MemoryStore


def png_item(edge=96, seed=0):
    pix = np.random.default_rng(seed).integers(0, 256, (edge, edge),
                                               dtype=np.uint8)
    return ContentItem(data=write_png(pix), media_type="image/png")


@pytest.fixture
def svc():
    return FirstPartyService(response_delay_ms=0)


def test_album_and_photo_lifecycle(svc):
    album = svc.create_album("trip")
    photo_id, static_url = svc.upload_photo(album, png_item(), "r2o:1 pic")
    assert static_url == f"/fp/photos/{photo_id}.png"
    photo = svc.get_photo(photo_id)
    assert photo.caption == "r2o:1 pic"
    assert photo.width == photo.height == 96
    assert svc.get_photo_bytes(photo_id) == png_item().data


def test_upload_stores_a_copy(svc):
    album = svc.create_album("a")
    item = png_item()
    mutable = bytearray(item.data)
    photo_id, _ = svc.upload_photo(
        album, ContentItem(data=bytes(mutable), media_type="image/png"), "")
    mutable[50] ^= 0xFF
    assert svc.get_photo_bytes(photo_id) == item.data


def test_png_only(svc):
    album = svc.create_album("a")
    with pytest.raises(UnsupportedMediaType):
        svc.upload_photo(album, ContentItem(data=b"GIF89a...",
                                            media_type="image/gif"), "")
    with pytest.raises(UnsupportedMediaType):
        svc.upload_photo(album, ContentItem(data=b"\x89PNG\r\n\x1a\nbroken",
                                            media_type="image/png"), "")


def test_unknown_ids(svc):
    with pytest.raises(AlbumNotFound):
        svc.upload_photo("deadbeefdeadbeef", png_item(), "")
    with pytest.raises(PhotoNotFound):
        svc.get_photo("deadbeefdeadbeef")
    with pytest.raises(AlbumNotFound):
        svc.render_album_page("deadbeefdeadbeef")


def test_photo_id_from_path(svc):
    album = svc.create_album("a")
    photo_id, static_url = svc.upload_photo(album, png_item(), "")
    assert svc.photo_id_from_path(static_url) == photo_id
    with pytest.raises(PhotoNotFound):
        svc.photo_id_from_path("/elsewhere/abc.png")
    with pytest.raises(PhotoNotFound):
        svc.photo_id_from_path("/fp/photos/abc.jpg")


def test_album_page_is_deterministic_and_escaped(svc):
    album = svc.create_album("summer <2020>")
    photo_id, static_url = svc.upload_photo(
        album, png_item(), 'r2o:1 "quoted" & <tagged>')
    page_one = svc.render_album_page(album)
    page_two = svc.render_album_page(album)
    assert page_one == page_two
    assert static_url in page_one
    assert "&lt;tagged&gt;" in page_one
    assert "<tagged>" not in page_one
    assert page_one == (
        '<!DOCTYPE html>\n<html><head><meta charset="utf-8">'
        "<title>summer &lt;2020&gt;</title></head>\n<body>\n"
        "<h1>summer &lt;2020&gt;</h1>\n"
        f'  <figure class="photo" id="photo-{photo_id}">\n'
        f'    <img src="{static_url}" width="96" height="96" alt="">\n'
        "    <figcaption>r2o:1 &quot;quoted&quot; &amp; &lt;tagged&gt;"
        "</figcaption>\n  </figure>\n</body></html>\n")


def test_page_carries_dimensions(svc):
    album = svc.create_album("a")
    _, static_url = svc.upload_photo(album, png_item(edge=128), "cap")
    page = svc.render_album_page(album)
    assert 'width="128"' in page and 'height="128"' in page


def test_response_delay_applies_only_to_photo_reads():
    svc = FirstPartyService(response_delay_ms=60)
    t0 = time.perf_counter()
    album = svc.create_album("a")
    photo_id, _ = svc.upload_photo(album, png_item(), "")
    svc.render_album_page(album)
    composition_ms = (time.perf_counter() - t0) * 1000
    assert composition_ms < 50, "only static photo reads pay the delay"
    t0 = time.perf_counter()
    svc.get_photo_bytes(photo_id)
    read_ms = (time.perf_counter() - t0) * 1000
    assert read_ms >= 60


def test_seeded_ids_are_reproducible():
    firstparty.seed_ids(4)
    try:
        a = FirstPartyService(response_delay_ms=0).create_album("x")
        firstparty.seed_ids(4)
        b = FirstPartyService(response_delay_ms=0).create_album("y")
    finally:
        firstparty.seed_ids(None)
    assert a == b


# -- HTTP surface -----------------------------------------------------------

@pytest.fixture
def served():
    server = serve_firstparty(("127.0.0.1", 0),
                              FirstPartyService(response_delay_ms=0))
    yield server
    server.shutdown()


def _post(url, body, headers=None):
    req = urllib.request.Request(url, data=body, method="POST",
                                 headers=headers or {})
    with urllib.request.urlopen(req, timeout=5) as resp:
        return resp.status, resp.read()


def test_http_album_photo_page_flow(served):
    base = served.base_url
    status, body = _post(f"{base}/fp/albums", b"holiday")
    assert status == 201 or status == 200
    album_id = body.decode().strip()

    status, body = _post(f"{base}/fp/albums/{album_id}/photos",
                         png_item().data,
                         {"Content-Type": "image/png",
                          "X-Caption": "r2o:1 over http"})
    photo_id, static_url = body.decode().splitlines()[:2]
    assert static_url == f"/fp/photos/{photo_id}.png"

    with urllib.request.urlopen(f"{base}{static_url}", timeout=5) as resp:
        assert resp.headers["Content-Type"] == "image/png"
        assert resp.read() == png_item().data

    with urllib.request.urlopen(f"{base}/fp/albums/{album_id}/page",
                                timeout=5) as resp:
        page = resp.read().decode()
    assert static_url in page
    assert "over http" in page


def _http_error(call, *args, **kwargs):
    """The HTTPError `call` raises, closed so its socket does not leak."""
    with pytest.raises(urllib.error.HTTPError) as err:
        call(*args, **kwargs)
    err.value.close()
    return err.value


def test_http_errors(served):
    base = served.base_url
    err = _http_error(urllib.request.urlopen,
                      f"{base}/fp/photos/{'0' * 16}.png", timeout=5)
    assert err.code == 404
    err = _http_error(_post, f"{base}/fp/albums/{'0' * 16}/photos",
                      png_item().data, {"Content-Type": "image/png"})
    assert err.code == 404
    # the first party takes no comments
    err = _http_error(_post, f"{base}/fp/photos/{'0' * 16}/comments", b"hi")
    assert err.code == 404
    # non-PNG upload to a real album
    status, body = _post(f"{base}/fp/albums", b"t")
    album_id = body.decode().strip()
    err = _http_error(_post, f"{base}/fp/albums/{album_id}/photos",
                      b"JFIF...", {"Content-Type": "image/jpeg"})
    assert err.code == 415


def _not_ihdr_first(blob):
    """Variants of a valid PNG whose first chunk is not a 13-byte IHDR."""
    sig, ihdr, rest = blob[:8], blob[8:33], blob[33:]
    # a 12-byte tEXt chunk (CRC unchecked) puts 5000 where IHDR's width was
    text = struct.pack(">I4sII", 12, b"tEXt", 5000, 5000) + bytes(8)
    long_ihdr = (struct.pack(">I", 14) + b"IHDR" + ihdr[8:21] + b"\x00"
                 + ihdr[21:])
    return [sig + text + ihdr + rest,  # IHDR second
            sig + long_ihdr + rest,
            sig + ihdr[:20]]  # IHDR cut short


def test_upload_refuses_png_without_leading_ihdr(svc, served):
    album = svc.create_album("a")
    http_album = _post(f"{served.base_url}/fp/albums", b"t")[1].decode()
    upload_url = f"{served.base_url}/fp/albums/{http_album.strip()}/photos"
    for data in _not_ihdr_first(png_item().data):
        with pytest.raises(UnsupportedMediaType):
            svc.upload_photo(album, ContentItem(data=data,
                                                media_type="image/png"), "")
        err = _http_error(_post, upload_url, data,
                          {"Content-Type": "image/png"})
        assert err.code == 415


def test_in_process_and_http_reads_share_one_route():
    """The same paths give the same bytes and media type, or fail, on both,
    each under its own base; a write through either client places a
    stand-in that its transport reads back."""
    svc = FirstPartyService(response_delay_ms=0)
    album = svc.create_album("parity")
    _, photo = svc.upload_photo(album, png_item(), "")
    page = album_page_path(album)
    cases = [(photo, True), (f"{photo}?v=2", True), (page, True),
             (f"{page}?x", True), (f"{page}/", False),
             (f"/fp/photos/{'0' * 16}.png", False),
             (album_page_path("0" * 16), False)]
    foreign = "http://127.0.0.1:9"  # under no host's base

    def read(fetcher, url):
        try:
            item = fetcher.fetch(url)
        except FetchError:
            return None
        return item.data, item.media_type

    with serve_firstparty(("127.0.0.1", 0), svc) as served:
        transports = [(svc, InProcessFetcher(firstparty=svc)),
                      (HttpFirstPartyClient(served.base_url), HttpFetcher())]
        try:
            for path, found in cases:
                got = [read(fetcher, client.base_url + path)
                       for client, fetcher in transports]
                assert got[0] == got[1], path
                assert (got[0] is not None) == found, path
            for client, fetcher in transports:
                assert read(fetcher, foreign + photo) is None
                receipt = write_path(png_item(seed=1), "parity", album,
                                     MemoryStore(), client)
                assert receipt.pseudo_locator == (
                    f"{client.base_url}/fp/photos/{receipt.photo_id}.png")
                item = fetcher.fetch(receipt.pseudo_locator)
                assert item.media_type == "image/png"
                assert codec.decode_qr(codec.PseudoImage.from_png(
                    item.data)).locator == receipt.offsite_locator
        finally:
            for client, fetcher in transports[1:]:
                client.close()
                fetcher.close()
