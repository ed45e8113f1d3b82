"""The shared HTTP layer: kept-alive connections, request and response bounds."""

import ast
import http.client
import select
import socket
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from r2o import _http, codec
from r2o.cache import MappingsCache
from r2o.codec.png import write_png
from r2o.core import (
    OUTCOME_FAILED,
    FetchError,
    HttpFetcher,
    HttpFirstPartyClient,
    read_path,
    resolve_page,
    write_path,
)
from r2o.filter import ElementDescriptor
from r2o.firstparty import (
    FirstPartyError,
    FirstPartyService,
    FirstPartyUnavailable,
    serve_firstparty,
)
from r2o.store import (
    MAX_PAYLOAD_DEFAULT,
    ContentItem,
    HttpStoreClient,
    MemoryStore,
    NotFound,
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
    """Every connection the HTTP client opens while the test runs."""
    calls = []
    create_connection = _http.socket.create_connection

    def counting(address, *args, **kwargs):
        calls.append(address)
        return create_connection(address, *args, **kwargs)

    monkeypatch.setattr(_http.socket, "create_connection", counting)
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
            try:
                conn.recv(65536)
                conn.sendall(reply)
                if close_after:
                    conn.shutdown(socket.SHUT_WR)
                while conn.recv(65536):
                    pass
            except OSError:
                pass  # the client hung up first

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}"
    finally:
        listener.close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def _raw_send(method: str, base_url: str, path: str, length: str | None,
              body: bytes = b""):
    """A request with a hand-set Content-Length; returns (status,
    will_close)."""
    host, port = base_url.split("//")[1].split("/")[0].split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=3)
    try:
        conn.putrequest(method, path)
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


def test_inline_refuses_markup_in_the_stores_content_type(store_server,
                                                          fp_server):
    # over HTTP the off-site media type is the store's Content-Type as
    # sent, so "image/png;q=1" is no image/<token> here either
    server, _ = store_server
    fp = HttpFirstPartyClient(fp_server.base_url)
    offsite = HttpStoreClient(server.base_url)
    fetcher = HttpFetcher()
    try:
        album = fp.create_album("inline")
        for media_type in ('image/png"onerror="x', "image/png;q=1"):
            refused = write_path(ContentItem(data=png_item(2).data,
                                             media_type=media_type),
                                 "refused", album, offsite, fp)
            assert fetcher.fetch(refused.offsite_locator).media_type == \
                media_type
        write_path(png_item(3), "ok", album, offsite, fp)
        original = fetcher.fetch(fp.page_url(album)).data
        out = resolve_page(fp.page_url(album), fetcher, inline=True)
    finally:
        for client in (fetcher, offsite, fp):
            client.close()
    assert b"onerror" not in out
    assert out.count(b"data:image/png;base64,") == 1
    # the refused elements are the first two: their tags are unchanged
    assert out.split(b"<img ")[1:3] == original.split(b"<img ")[1:3]


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
    fetcher = HttpFetcher()
    assert fetcher.fetch(locator).data == b"x"
    server.shutdown()
    t0 = time.perf_counter()
    with pytest.raises(FetchError):
        fetcher.fetch(locator)
    assert time.perf_counter() - t0 < 1.0


def test_served_store_shuts_down_at_once():
    # shutdown wakes the accept loop; it does not wait out a poll interval
    server = serve_store(("127.0.0.1", 0), MemoryStore(name="quick"))
    client = HttpStoreClient(server.base_url)
    try:
        client.upload(ContentItem(data=b"x"))  # leaves a kept-alive socket
        time.sleep(0.05)
        t0 = time.perf_counter()
        server.shutdown()
        assert time.perf_counter() - t0 < 0.1
    finally:
        client.close()


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


def test_a_closed_reused_connection_is_retried_on_the_deferred_read(
        store_server, connects, monkeypatch):
    # the write to a connection the server dropped as idle succeeds; the
    # read finds it closed and sends the request once more, on a fresh one
    monkeypatch.setattr(_http.Handler, "timeout", 0.2)
    server, backing = store_server
    url = f"{server.base_url}/{'0' * 16}"
    pool = _http.ConnectionPool()
    try:
        assert pool.request("GET", url).status == 404
        ((idle,),) = pool._idle.values()
        assert select.select([idle.sock], [], [], 5)[0]  # the server hung up
        receive = pool.send("PUT", url, b"late")
        assert len(connects) == 1
        assert receive().status == 201
        assert len(connects) == 2
    finally:
        pool.close()
    assert backing.fetch(backing._locator_for("0" * 16)).data == b"late"


def test_fetch_error_carries_the_status(store_server):
    # a reader can tell "gone" from "unreachable"
    server, _ = store_server
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    listener.close()
    fetcher = HttpFetcher()
    try:
        with pytest.raises(FetchError) as gone:
            fetcher.fetch(f"{server.base_url}/{'0' * 16}")
        with pytest.raises(FetchError) as refused:
            fetcher.fetch(f"http://127.0.0.1:{port}/x")
    finally:
        fetcher.close()
    assert gone.value.status == 404
    assert refused.value.status is None


def test_fresh_connection_is_not_retried(connects):
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    listener.close()  # nothing listens on the port now
    with pytest.raises(FetchError):
        HttpFetcher().fetch(f"http://127.0.0.1:{port}/x")
    assert len(connects) == 1
    # nor is one whose server hangs up before answering
    with raw_server(b"", close_after=True) as base:
        with pytest.raises(FetchError):
            HttpFetcher().fetch(base + "/x")
    assert len(connects) == 2


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

@pytest.mark.parametrize("length", [None, "abc", "-1", "1e3", "5, 6"])
def test_bad_content_length_answers_400(store_server, fp_server, length):
    server, backing = store_server
    for method, base, path in (
            ("PUT", server.base_url, "/v1/objects/" + "0" * 16),
            ("POST", fp_server.base_url, "/fp/albums")):
        status, will_close = _raw_send(method, base, path, length)
        assert status == 400
        if length is not None:
            assert will_close
    assert len(backing) == 0


def test_oversized_body_answers_413_and_closes(store_server, fp_server):
    server, backing = store_server
    backing.max_payload = 100
    assert _raw_send("PUT", server.base_url, "/v1/objects/" + "0" * 16,
                     "1000") == (413, True)
    assert _raw_send("POST", fp_server.base_url, "/fp/albums",
                     str(MAX_PAYLOAD_DEFAULT + 1)) == (413, True)
    assert _raw_send("POST", fp_server.base_url, "/fp/albums",
                     "9" * 30) == (413, True)


def test_unread_body_closes_the_connection(store_server):
    server, _ = store_server
    assert _raw_send("PUT", server.base_url, "/v1/elsewhere", "5",
                     b"hello") == (404, True)


def test_non_utf8_album_title_answers_400(fp_server):
    assert _raw_send("POST", fp_server.base_url, "/fp/albums", "1",
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
            HttpFetcher().fetch(base + "/page")
        assert time.perf_counter() - t0 < 1.0
    with raw_server(reply, close_after=False) as base:
        with pytest.raises(StoreUnavailable, match="cap"):
            HttpStoreClient(base + "/v1/objects").fetch(
                base + "/v1/objects/" + "0" * 16)


@pytest.mark.parametrize("size, ok", [(1000, True), (1001, False)])
def test_undeclared_response_reads_at_most_the_cap(size, ok):
    reply = b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n" + b"y" * size
    with raw_server(reply, close_after=True) as base:
        client = HttpStoreClient(base + "/v1/objects")
        client.max_payload = 1000
        locator = base + "/v1/objects/" + "0" * 16
        if ok:
            assert client.fetch(locator).data == b"y" * size
        else:
            with pytest.raises(StoreUnavailable, match="cap"):
                client.fetch(locator)


_HOSTILE = {
    "status line over 64 KiB":
        (b"HTTP/1.1 200 " + b"x" * 70_000 + b"\r\n\r\n", "line over"),
    "101 fields":
        (b"HTTP/1.1 200 OK\r\n" + b"X-F: v\r\n" * 101 + b"\r\n", "fields"),
    "negative length":
        (b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n", "Content-Length"),
    "exponent length":
        (b"HTTP/1.1 200 OK\r\nContent-Length: 1e3\r\n\r\n", "Content-Length"),
    "differing lengths":
        (b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n"
         b"hello", "Content-Length"),
    "gzip coding":
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\nxx",
         "Transfer-Encoding"),
    "garbage chunk size":
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nxx\r\n",
         "chunk size"),
    "chunk without its CRLF":
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nokXX"
         b"0\r\n\r\n", "chunk cut short"),
    "chunked over the cap":
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
         b"258\r\n" + b"c" * 600 + b"\r\n258\r\n" + b"c" * 600
         + b"\r\n0\r\n\r\n", "cap"),
    "body cut short":
        (b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhello", "cut short"),
    "HTTP/2 status line": (b"HTTP/2 200\r\n\r\n", "status line"),
    "endless interim responses":
        (b"HTTP/1.1 100 Continue\r\n\r\n" * (_http._MAX_INTERIM + 1),
         "interim responses"),
}


@pytest.mark.parametrize("reply, match", _HOSTILE.values(), ids=_HOSTILE)
def test_hostile_response_fails_fast(reply, match):
    with raw_server(reply, close_after=True) as base:
        client = HttpStoreClient(base + "/v1/objects")
        client.max_payload = 1000
        t0 = time.perf_counter()
        with pytest.raises(StoreUnavailable, match=match):
            client.fetch(base + "/v1/objects/" + "0" * 16)
        assert time.perf_counter() - t0 < 1.0
        client.close()


def test_a_trickling_response_fails_at_the_request_deadline(monkeypatch):
    # every byte comes well inside TIMEOUT_S, but the whole body does not
    monkeypatch.setattr(_http, "TIMEOUT_S", 0.5)
    listener = socket.create_server(("127.0.0.1", 0))

    def trickle():
        conn, _ = listener.accept()
        with conn:
            conn.recv(65536)
            try:
                conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 14\r\n\r\n")
                for byte in b"fourteen bytes":
                    time.sleep(0.2)
                    conn.sendall(bytes([byte]))
            except OSError:
                pass  # the client gave up

    thread = threading.Thread(target=trickle, daemon=True)
    thread.start()
    fetcher = HttpFetcher()
    try:
        t0 = time.perf_counter()
        with pytest.raises(FetchError):
            fetcher.fetch(f"http://127.0.0.1:{listener.getsockname()[1]}/x")
        assert time.perf_counter() - t0 < 1.5
    finally:
        fetcher.close()
        listener.close()
        thread.join(timeout=5)


def test_https_to_a_plain_http_server_is_an_http_error():
    # the TLS handshake reads an HTTP status line and fails
    reply = b"HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n"
    with raw_server(reply, close_after=True) as base:
        pool = _http.ConnectionPool()
        with pytest.raises(_http.HttpError):
            pool.request("GET", base.replace("http:", "https:") + "/x")
        pool.close()


@pytest.mark.parametrize("reply", [
    b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
    b"\r\nok",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1;x=y\r\no\r\n"
    b"1\r\nk\r\n0\r\nTrailer: t\r\n\r\n",
])
def test_interim_and_chunked_responses_are_read(reply):
    with raw_server(reply, close_after=False) as base:
        fetcher = HttpFetcher()
        assert fetcher.fetch(base + "/x").data == b"ok"
        fetcher.close()


@pytest.mark.parametrize("reply", [
    b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok",
    b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok",
])
def test_closing_response_is_not_reused(reply):
    # the raw server waits for the client to hang up; a pooled connection
    # would keep it waiting until the pool closes
    with raw_server(reply, close_after=False) as base:
        fetcher = HttpFetcher()
        assert fetcher.fetch(base + "/x").data == b"ok"
        t0 = time.perf_counter()
    assert time.perf_counter() - t0 < 1.0
    fetcher.close()


_LINES = st.sampled_from([
    b"HTTP/1.1 200 OK", b"HTTP/1.0 204 No", b"HTTP/1.1 100 Continue",
    b"HTTP/1.1 304 x", b"HTTP/1.1 99 x", b"Content-Length: 3",
    b"Content-Length: 5, 6", b"Content-Length: -1", b"content-length:007",
    b"Transfer-Encoding: chunked", b"Transfer-Encoding: gzip",
    b"Connection: close", b"3", b"0", b"ffffffffffffffffff", b"", b"x: y",
    b": v", b" folded", b"\xff\xfe: \x80",
])


@given(st.one_of(
    st.binary(max_size=300),
    st.lists(st.one_of(_LINES, st.binary(max_size=12)),
             max_size=14).map(b"\r\n".join)))
def test_property_any_response_bytes_give_response_or_http_error(reply):
    with raw_server(reply, close_after=True) as base:
        pool = _http.ConnectionPool()
        try:
            resp = pool.request("GET", base + "/x", max_body=100)
        except _http.HttpError:
            pass
        else:
            assert isinstance(resp, _http.Response)
            assert len(resp.body) <= 100
        finally:
            pool.close()


def test_request_head_cannot_be_forged():
    pool = _http.ConnectionPool()
    with pytest.raises(ValueError, match="CR or LF"):
        pool.request("POST", "http://127.0.0.1:9/fp/albums", body=b"x",
                     headers={"X-Caption": "r2o:1 a\r\nX-Author: mallory"})
    with pytest.raises(_http.HttpError, match="unsupported URL"):
        pool.request("GET", "http://127.0.0.1:9/a b HTTP/1.1\r\nX: y")


def test_text_outside_latin1_is_refused_before_sending(connects):
    pool = _http.ConnectionPool()
    with pytest.raises(_http.HttpError, match="unsupported URL"):
        pool.request("GET", "http://127.0.0.1:9/fp/photos/\u00e9.png")
    with pytest.raises(_http.HttpError, match="not latin-1"):
        pool.request("POST", "http://127.0.0.1:9/fp/albums", body=b"x",
                     headers={"X-Caption": "r2o:1 5\u20ac"})
    elem = ElementDescriptor(
        source_url="http://127.0.0.1:9/fp/photos/\u20ac.png", width=512,
        height=512, media_subtype="png", caption="r2o:1 x")
    (res,) = read_path([elem], None, MappingsCache(), HttpFetcher())
    assert res.outcome == OUTCOME_FAILED
    assert not connects


def test_caption_outside_latin1_fails_the_write_and_deletes(fp_server):
    fp = HttpFirstPartyClient(fp_server.base_url)
    offsite = MemoryStore(name="offsite")
    uploaded = []

    class SpyingStore:
        def upload(self, item, draw=None):
            uploaded.append(offsite.upload(item, draw=draw))
            return uploaded[-1]

        def delete(self, locator):
            offsite.delete(locator)

    album = fp.create_album("euro")
    with pytest.raises(FirstPartyUnavailable, match="not latin-1"):
        write_path(png_item(3), "5\u20ac", album, SpyingStore(), fp)
    assert len(uploaded) == 1
    with pytest.raises(NotFound):
        offsite.fetch(uploaded[0])


def test_an_encoder_that_raises_deletes_the_object_in_flight(
        store_server, fp_server, connects, monkeypatch):
    # the stand-in is drawn while the PUT is in flight; when drawing fails,
    # the writer reads the store's answer, deletes its object and posts
    # nothing, and the connection goes back to the pool for the next write
    server, backing = store_server
    backing.simulated_latency = 100
    held = []

    def failing_encode(payload, config):
        held.append(len(backing))
        raise RuntimeError("encoder broke")

    fp = HttpFirstPartyClient(fp_server.base_url)
    offsite = HttpStoreClient(server.base_url)
    try:
        album = fp.create_album("broken")
        monkeypatch.setattr(codec, "encode_qr", failing_encode)
        opened = len(connects)
        with pytest.raises(RuntimeError, match="encoder broke"):
            write_path(png_item(5), "c", album, offsite, fp)
        assert held == [0]
        assert len(backing) == 0
        # the PUT's answer was read, so its connection carried the DELETE
        assert len(connects) == opened + 1
        (idle,) = offsite._pool._idle.values()
        assert len(idle) == 1 and idle[0].sock.fileno() != -1
        assert offsite.fetch(offsite.upload(ContentItem(b"next"))).data == \
            b"next"
        assert len(connects) == opened + 1
        assert b"<img" not in fp._pool.request("GET",
                                               fp.page_url(album)).body
    finally:
        fp.close()
        offsite.close()


_ALBUM_ID, _PHOTO_ID = b"00000000000000aa", b"00000000000000bb"
_PHOTO_PATH = "/fp/photos/00000000000000bb.png"
# answered ids off the pattern: not ASCII, a path, one hex digit short
_BAD_IDS = {"not-ascii": b"\xff\xfe", "path": b"../../x?y",
            "15-hex": b"0" * 15}


@pytest.mark.parametrize("album, photo, path, error, match", [
    *(pytest.param(_ALBUM_ID, _PHOTO_ID, path, FirstPartyError, "photo path",
                   id=path)
      for path in ["@evil.example/x", "evil.example/x",
                   '/x"onerror="alert(1)', ""]),
    *(pytest.param(bad, _PHOTO_ID, _PHOTO_PATH, FirstPartyUnavailable,
                   "bad id", id=f"album-{name}")
      for name, bad in _BAD_IDS.items()),
    *(pytest.param(_ALBUM_ID, bad, _PHOTO_PATH, FirstPartyUnavailable,
                   "bad id", id=f"photo-{name}")
      for name, bad in _BAD_IDS.items()),
])
def test_a_photo_path_off_the_first_partys_base_fails_the_write(
        album, photo, path, error, match):
    # joined to the base URL, "@evil.example/x" names another host, and an
    # id is spliced into the next request's path
    class OffBase(_http.Handler):
        def do_POST(self):
            self._body()
            if self.path == "/fp/albums":
                self._reply(201, album + b"\n")
            else:
                self._reply(201, photo + f"\n{path}\n".encode())

    offsite = MemoryStore(name="offsite")
    with _http.Server(("127.0.0.1", 0), OffBase, "", None) as server:
        fp = HttpFirstPartyClient(server.base_url)
        try:
            with pytest.raises(error, match=match):
                album_id = fp.create_album("evil")
                write_path(png_item(4), "x", album_id, offsite, fp)
        finally:
            fp.close()
    assert len(offsite) == 0


def _send_raw(base_url: str, data: bytes) -> bytes:
    """Send bytes to a server and read what it answers until it closes."""
    host, port = base_url.split("//")[1].split("/")[0].split(":")
    with socket.create_connection((host, int(port)), timeout=3) as sock:
        sock.sendall(data)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


_MALFORMED = {
    "bad request line": (b"GARBAGE\r\n\r\n", 400),
    "four words": (b"GET /v1/objects HTTP/1.1 extra\r\n\r\n", 400),
    "request line over 64 KiB":
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
    "101 fields": (b"GET / HTTP/1.1\r\n" + b"X-F: v\r\n" * 101 + b"\r\n", 431),
    "field without a colon": (b"GET / HTTP/1.1\r\nbad field\r\n\r\n", 400),
    "unknown method": (b"BREW /v1/objects HTTP/1.1\r\n\r\n", 501),
    "HTTP/1.0": (b"GET /v1/objects/" + b"0" * 16 + b" HTTP/1.0\r\n\r\n", 404),
}


@pytest.mark.parametrize("request_bytes, status", _MALFORMED.values(),
                         ids=_MALFORMED)
def test_server_answers_malformed_requests_and_closes(store_server,
                                                      request_bytes, status):
    server, _ = store_server
    reply = _send_raw(server.base_url, request_bytes)
    head = reply.split(b"\r\n\r\n", 1)[0].split(b"\r\n")
    assert head[0].startswith(b"HTTP/1.1 %d " % status)
    assert b"Connection: close" in head


def test_204_has_no_content_length_and_keeps_the_connection(store_server):
    server, backing = store_server
    oid = backing.upload(ContentItem(data=b"x")).rsplit("/", 1)[1]
    host, port = server.base_url.split("//")[1].split("/")[0].split(":")
    target = f"/v1/objects/{oid} HTTP/1.1\r\nHost: {host}\r\n\r\n"
    with socket.create_connection((host, int(port)), timeout=3) as sock, \
            sock.makefile("rb") as rfile:
        sock.sendall(f"DELETE {target}".encode())
        start, fields = _http._read_head(rfile)
        assert start.startswith(b"HTTP/1.1 204 ")
        assert "content-length" not in fields
        assert "connection" not in fields
        sock.sendall(f"GET {target}".encode())
        start, fields = _http._read_head(rfile)
        assert start.startswith(b"HTTP/1.1 404 ")
        assert rfile.read(int(fields["content-length"])) == \
            b"no such object\n"


def test_no_module_imports_the_stdlib_http_client_or_server():
    # one HTTP path: r2o's own wire code is the only client and server
    found = []
    for path in sorted(Path(_http.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}"
                                         for alias in node.names]
            else:
                continue
            found += [(path.name, name) for name in names
                      if name in ("http.client", "http.server")]
    assert found == []
