"""The shared HTTP layer: kept-alive connections, request and response bounds."""

import http.client
import socket
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from r2o import _http
from r2o.cache import MappingsCache
from r2o.codec.png import write_png
from r2o.core import (
    FetchError,
    HttpFetcher,
    HttpFirstPartyClient,
    resolve_page,
    write_path,
)
from r2o.firstparty import FirstPartyService, serve_firstparty
from r2o.store import (
    MAX_PAYLOAD_DEFAULT,
    ContentItem,
    HttpStoreClient,
    MemoryStore,
    PayloadTooLarge,
    StoreUnavailable,
    serve_store,
)


def png_item(seed=0, edge=210):
    pix = np.random.default_rng(seed).integers(0, 256, size=(edge, edge),
                                               dtype=np.uint8)
    return ContentItem(data=write_png(pix), media_type="image/png")


@pytest.fixture
def connects(monkeypatch):
    """Every HTTPConnection.connect made while the test runs."""
    calls = []
    connect = http.client.HTTPConnection.connect

    def counting(self):
        calls.append((self.host, self.port))
        return connect(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counting)
    return calls


@pytest.fixture
def store_server():
    backing = MemoryStore(name="backing")
    server = serve_store(("127.0.0.1", 0), backing)
    yield server, backing
    server.shutdown()


@pytest.fixture
def fp_server():
    server = serve_firstparty(("127.0.0.1", 0),
                              FirstPartyService(response_delay_ms=0))
    yield server
    server.shutdown()


@contextmanager
def raw_server(reply: bytes, close_after: bool):
    """One-connection server that answers any request with `reply`."""
    listener = socket.create_server(("127.0.0.1", 0))

    def run():
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(5)
            conn.recv(65536)
            conn.sendall(reply)
            if close_after:
                conn.shutdown(socket.SHUT_WR)
            try:
                while conn.recv(65536):
                    pass
            except OSError:
                pass

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}"
    finally:
        listener.close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def _raw_post(base_url: str, path: str, length: str | None,
              body: bytes = b""):
    """POST with a hand-set Content-Length; returns (status, will_close)."""
    host, port = base_url.split("//")[1].split("/")[0].split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=3)
    try:
        conn.putrequest("POST", path)
        if length is not None:
            conn.putheader("Content-Length", length)
        conn.endheaders(body or None)
        resp = conn.getresponse()
        resp.read()
        return resp.status, resp.will_close
    finally:
        conn.close()


# -- connection reuse ---------------------------------------------------------

def test_second_resolve_of_a_page_opens_no_connection(store_server,
                                                      fp_server, connects):
    server, _ = store_server
    fp = HttpFirstPartyClient(fp_server.base_url)
    offsite = HttpStoreClient(server.base_url)
    album = fp.create_album("reuse")
    write_path(png_item(1), "pier", album, offsite, fp)
    fetcher = HttpFetcher()
    cache = MappingsCache()
    page = fp.page_url(album)

    first = resolve_page(page, fetcher, cache=cache)
    opened = len(connects)
    second = resolve_page(page, fetcher, cache=cache)
    assert second == first
    assert opened >= 1
    assert len(connects) == opened
    for client in (fetcher, fp, offsite):
        client.close()


def test_sequential_gets_do_not_stall(store_server):
    # a kept-alive response written as header and body segments waits out
    # the client's delayed ACK (~40 ms) unless the server disables Nagle
    server, backing = store_server
    data = png_item(2).data
    assert len(data) > 40_000
    uploader = HttpStoreClient(server.base_url)
    locator = uploader.upload(ContentItem(data=data, media_type="image/png"))
    uploader.close()
    fetcher = HttpFetcher()
    assert fetcher.fetch(locator).data == data
    t0 = time.perf_counter()
    for _ in range(50):
        assert fetcher.fetch(locator).data == data
    assert time.perf_counter() - t0 < 1.0
    fetcher.close()


def test_fetch_after_shutdown_fails_cleanly():
    backing = MemoryStore(name="gone")
    server = serve_store(("127.0.0.1", 0), backing)
    uploader = HttpStoreClient(server.base_url)
    locator = uploader.upload(ContentItem(data=b"x"))
    uploader.close()
    fetcher = HttpFetcher(timeout=3)
    assert fetcher.fetch(locator).data == b"x"
    server.shutdown()
    t0 = time.perf_counter()
    with pytest.raises(FetchError):
        fetcher.fetch(locator)
    assert time.perf_counter() - t0 < 1.0


def test_restarted_server_is_reached_through_the_retry(connects):
    backing = MemoryStore(name="restart")
    server = serve_store(("127.0.0.1", 0), backing)
    port = int(server.base_url.split(":")[2].split("/")[0])
    client = HttpStoreClient(server.base_url)
    locator = client.upload(ContentItem(data=b"still here"))
    assert client.fetch(locator).data == b"still here"
    server.shutdown()
    server = serve_store(("127.0.0.1", port), backing)
    try:
        before = len(connects)
        assert client.fetch(locator).data == b"still here"
        assert len(connects) == before + 1  # the stale one, then one fresh
    finally:
        server.shutdown()
        client.close()


def test_fresh_connection_is_not_retried(connects):
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    listener.close()  # nothing listens on the port now
    with pytest.raises(FetchError):
        HttpFetcher(timeout=3).fetch(f"http://127.0.0.1:{port}/x")
    assert len(connects) == 1


def test_idle_connection_is_dropped(store_server, monkeypatch):
    assert _http.Handler.timeout == _http.IDLE_TIMEOUT_S
    monkeypatch.setattr(_http.Handler, "timeout", 0.2)
    server, _ = store_server
    host, port = server.base_url.split("//")[1].split("/")[0].split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=3)
    try:
        conn.request("GET", "/v1/objects/" + "0" * 16)
        resp = conn.getresponse()
        resp.read()
        assert resp.status == 404 and not resp.will_close
        t0 = time.perf_counter()
        assert conn.sock.recv(1) == b""  # the server hung up
        assert time.perf_counter() - t0 < 2.0
    finally:
        conn.close()


# -- request bodies -----------------------------------------------------------

@pytest.mark.parametrize("length", [None, "abc", "-1", "1e3"])
def test_bad_content_length_answers_400(store_server, fp_server, length):
    server, backing = store_server
    for base, path in ((server.base_url, "/v1/objects"),
                       (fp_server.base_url, "/fp/albums")):
        status, will_close = _raw_post(base, path, length)
        assert status == 400
        if length is not None:
            assert will_close
    assert len(backing) == 0


def test_oversized_body_answers_413_and_closes(store_server, fp_server):
    server, backing = store_server
    backing.max_payload = 100
    assert _raw_post(server.base_url, "/v1/objects", "1000") == (413, True)
    assert _raw_post(fp_server.base_url, "/fp/albums",
                     str(MAX_PAYLOAD_DEFAULT + 1)) == (413, True)
    assert _raw_post(fp_server.base_url, "/fp/albums",
                     "9" * 30) == (413, True)


def test_unread_body_closes_the_connection(store_server):
    server, _ = store_server
    assert _raw_post(server.base_url, "/v1/elsewhere", "5",
                     b"hello") == (404, True)


def test_non_utf8_album_title_answers_400(fp_server):
    assert _raw_post(fp_server.base_url, "/fp/albums", "1",
                     b"\xff") == (400, False)


def test_rejected_upload_keeps_the_client_working(store_server):
    server, backing = store_server
    client = HttpStoreClient(server.base_url)
    backing.max_payload = 100
    with pytest.raises(PayloadTooLarge):
        client.upload(ContentItem(data=b"z" * 200))
    locator = client.upload(ContentItem(data=b"small"))
    assert client.fetch(locator).data == b"small"
    client.close()


# -- response bodies ----------------------------------------------------------

def test_declared_huge_response_raises_fast():
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: 1000000000000\r\n\r\nxx"
    with raw_server(reply, close_after=False) as base:
        t0 = time.perf_counter()
        with pytest.raises(FetchError, match="cap"):
            HttpFetcher(timeout=3).fetch(base + "/page")
        assert time.perf_counter() - t0 < 1.0
    with raw_server(reply, close_after=False) as base:
        with pytest.raises(StoreUnavailable, match="cap"):
            HttpStoreClient(base + "/v1/objects").fetch(
                base + "/v1/objects/" + "0" * 16)


@pytest.mark.parametrize("size, ok", [(1000, True), (1001, False)])
def test_undeclared_response_reads_at_most_the_cap(size, ok):
    reply = b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n" + b"y" * size
    with raw_server(reply, close_after=True) as base:
        client = HttpStoreClient(base + "/v1/objects", max_payload=1000)
        locator = base + "/v1/objects/" + "0" * 16
        if ok:
            assert client.fetch(locator).data == b"y" * size
        else:
            with pytest.raises(StoreUnavailable, match="cap"):
                client.fetch(locator)
