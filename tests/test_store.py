"""Off-site providers: locators, latency floors, the v1 HTTP protocol."""

import json
import os
import pathlib
import re
import subprocess
import sys
import threading
import time
from contextlib import closing

import numpy as np
import pytest

from r2o import _http, bench, store
from r2o._http import ConnectionPool, Server
from r2o.codec.png import write_png
from r2o.core import write_path
from r2o.firstparty import FirstPartyService
from r2o.store import (
    LATENCY_PRESETS,
    ContentItem,
    FilesystemStore,
    HttpStoreClient,
    MemoryStore,
    NotFound,
    ObjectExists,
    PayloadTooLarge,
    StoreUnavailable,
    preset_store,
    serve_store,
)

LOCATOR_RE = re.compile(r"^http://[^/]+/v1/objects/[0-9a-f]{16}$")


@pytest.fixture(params=["memory", "filesystem"])
def provider(request, tmp_path):
    if request.param == "memory":
        return MemoryStore(name="mem")
    return FilesystemStore(tmp_path / "objs", name="fs")


def test_upload_fetch_delete(provider):
    item = ContentItem(data=b"hello bytes", media_type="text/plain")
    locator = provider.upload(item)
    assert LOCATOR_RE.match(locator), locator
    got = provider.fetch(locator)
    assert got.data == b"hello bytes"
    assert got.media_type == "text/plain"
    provider.delete(locator)
    with pytest.raises(NotFound):
        provider.fetch(locator)


def test_locators_are_distinct(provider):
    seen = {provider.upload(ContentItem(data=bytes([i])))
            for i in range(40)}
    assert len(seen) == 40


def test_fetch_unknown_and_malformed(provider):
    base = provider.base_url
    with pytest.raises(NotFound):
        provider.fetch(f"{base}/{'0' * 16}")
    with pytest.raises(NotFound):
        provider.fetch(f"{base}/nothex")
    with pytest.raises(NotFound):
        provider.fetch("http://other.example/v1/objects/" + "0" * 16)


def test_upload_under_a_named_id(provider):
    oid = "0123456789abcdef"
    locator = provider.upload(ContentItem(data=b"named"), oid)
    assert locator == f"{provider.base_url}/{oid}"
    with pytest.raises(ObjectExists):
        provider.upload(ContentItem(data=b"other"), oid)
    assert provider.fetch(locator).data == b"named"
    for bad in ("../escape", "0" * 15, "0" * 16 + "/x"):
        with pytest.raises(NotFound):
            provider.upload(ContentItem(data=b"x"), bad)


def test_payload_cap(provider):
    provider.max_payload = 1024
    with pytest.raises(PayloadTooLarge):
        provider.upload(ContentItem(data=b"x" * 1025))
    provider.upload(ContentItem(data=b"x" * 1024))


def test_latency_floor_applies_to_upload_and_fetch():
    slow = MemoryStore(name="slow", simulated_latency=40)
    t0 = time.perf_counter()
    locator = slow.upload(ContentItem(data=b"x"))
    upload_ms = (time.perf_counter() - t0) * 1000
    t0 = time.perf_counter()
    slow.fetch(locator)
    fetch_ms = (time.perf_counter() - t0) * 1000
    assert upload_ms >= 40 and fetch_ms >= 40


def test_zero_latency_is_fast():
    fast = MemoryStore(name="fast")
    t0 = time.perf_counter()
    fast.fetch_locator = fast.upload(ContentItem(data=b"y" * 1000))
    assert (time.perf_counter() - t0) * 1000 < 20


def test_filesystem_persists_across_instances(tmp_path):
    first = FilesystemStore(tmp_path / "d", name="fs")
    locator = first.upload(ContentItem(data=b"persist me",
                                       media_type="image/png"))
    second = FilesystemStore(tmp_path / "d", name="fs")
    got = second.fetch(locator)
    assert got.data == b"persist me"
    assert got.media_type == "image/png"


def test_presets_table():
    assert LATENCY_PRESETS["facebook_cdn"] == 11
    assert LATENCY_PRESETS["imageshack"] == 434
    assert len(LATENCY_PRESETS) == 8
    s = preset_store("imgur")
    assert (s.name, s.simulated_latency) == ("imgur", 12)
    with pytest.raises(KeyError, match="unknown preset 'geocities'"):
        preset_store("geocities")


def test_local_stores_live_under_a_private_base(tmp_path):
    # a reader reaches a local store only through `serve_store`
    ram = MemoryStore("ram", 3.0)
    disk = FilesystemStore(tmp_path / "o", "disk")
    assert (ram.name, ram.base_url, ram.simulated_latency) == (
        "ram", "http://ram.offsite.invalid/v1/objects", 3.0)
    assert (disk.name, disk.base_url, disk.simulated_latency, disk.root) == (
        "disk", "http://disk.offsite.invalid/v1/objects", None,
        tmp_path / "o")
    with pytest.raises(ValueError, match="simulated_latency must be >= 0"):
        MemoryStore("ram", -1.0)
    with pytest.raises(ValueError, match="simulated_latency must be >= 0"):
        FilesystemStore(tmp_path / "o", "disk", -1.0)


def test_measure_store_respects_floor():
    ((name, median),) = bench.bench_providers([preset_store("imgur")],
                                              repetitions=6)
    assert name == "imgur"
    assert 12 <= median <= 32


def test_seeded_ids_are_reproducible():
    store.seed_ids(99)
    try:
        a = MemoryStore(name="a").upload(ContentItem(data=b"1"))
        store.seed_ids(99)
        b = MemoryStore(name="b").upload(ContentItem(data=b"2"))
    finally:
        store.seed_ids(None)
    assert a.rsplit("/", 1)[1] == b.rsplit("/", 1)[1]


# -- HTTP protocol ----------------------------------------------------------

@pytest.fixture
def http_pair():
    backing = MemoryStore(name="backing")
    server = serve_store(("127.0.0.1", 0), backing)
    client = HttpStoreClient(server.base_url, name="client")
    yield client, backing
    client.close()
    server.shutdown()


def test_http_round_trip(http_pair):
    client, backing = http_pair
    locator = client.upload(ContentItem(data=b"over the wire",
                                        media_type="image/png"))
    assert LOCATOR_RE.match(locator)
    got = client.fetch(locator)
    assert got.data == b"over the wire"
    assert got.media_type == "image/png"
    client.delete(locator)
    with pytest.raises(NotFound):
        client.fetch(locator)


def test_http_404_and_413(http_pair):
    client, backing = http_pair
    with pytest.raises(NotFound):
        client.fetch(f"{client.base_url}/{'a' * 16}")
    backing.max_payload = 100
    with pytest.raises(PayloadTooLarge):
        client.upload(ContentItem(data=b"z" * 200))


def test_http_upload_refuses_a_locator_outside_rfc_3986(monkeypatch):
    # a base URL whose locators would close the src attribute they land in
    # is refused before any byte is sent
    opened = []
    monkeypatch.setattr(_http.socket, "create_connection",
                        lambda *args, **kwargs: opened.append(args))
    with closing(HttpStoreClient(
            'http://127.0.0.1:9/v1/objects"onerror="alert(1)')) as client:
        with pytest.raises(StoreUnavailable, match="RFC 3986"):
            client.upload(ContentItem(data=b"x", media_type="image/png"))
    assert opened == []


def test_put_to_a_taken_id_answers_409_and_keeps_the_object(http_pair):
    client, backing = http_pair
    locator = client.upload(ContentItem(data=b"first",
                                        media_type="image/png"))
    with closing(ConnectionPool()) as pool:
        assert pool.request("PUT", locator, b"second",
                            {"Content-Type": "text/plain"}).status == 409
    got = client.fetch(locator)
    assert (got.data, got.media_type) == (b"first", "image/png")
    assert len(backing) == 1


@pytest.mark.parametrize("path", ["", "/", "/" + "A" * 16, "/" + "0" * 15,
                                  "/" + "0" * 17, "/" + "0" * 16 + "/x"])
def test_put_to_a_bad_id_answers_404(http_pair, path):
    client, backing = http_pair
    with closing(ConnectionPool()) as pool:
        assert pool.request("PUT", client.base_url + path,
                            b"x").status == 404
    assert len(backing) == 0


def _png(seed: int) -> ContentItem:
    pixels = np.random.default_rng(seed).integers(0, 256, (64, 64),
                                                  dtype=np.uint8)
    return ContentItem(data=write_png(pixels), media_type="image/png")


def test_a_store_that_keeps_the_bytes_but_answers_500_ends_empty():
    # the PUT's object is the writer's own, so it deletes it, and the
    # first party never sees a stand-in for it
    backing = MemoryStore(name="backing")
    kept = []

    class KeepsButFails(store._StoreHandler):
        def do_PUT(self):
            kept.append(backing.upload(ContentItem(self._body()),
                                       self._object_id()))
            self._reply(500, b"lost the answer\n")

    service = FirstPartyService(response_delay_ms=0)
    album = service.create_album("refused")
    with Server(("127.0.0.1", 0), KeepsButFails, store.OBJECTS_PATH,
                backing) as server, \
            closing(HttpStoreClient(server.base_url)) as client:
        with pytest.raises(StoreUnavailable, match="HTTP 500"):
            write_path(_png(1), "c", album, client, service)
    assert len(kept) == 1
    assert len(backing) == 0
    assert b"<img" not in service.get(service.page_url(album)).data


def test_a_409_deletes_nothing(http_pair):
    # the id the writer drew is taken: the object there is someone else's,
    # so it stays, and the write lands under a secure id instead
    client, backing = http_pair
    deleted = []
    backing.delete = deleted.append
    service = FirstPartyService(response_delay_ms=0)
    album = service.create_album("taken")
    store.seed_ids(5)
    try:
        oid = store.fresh_id(lambda oid: False)
        backing.upload(ContentItem(data=b"theirs"), oid)
        store.seed_ids(5)
        receipt = write_path(_png(2), "c", album, client, service)
    finally:
        store.seed_ids(None)
    assert backing.fetch(backing._locator_for(oid)).data == b"theirs"
    assert receipt.offsite_locator != client._locator_for(oid)
    assert client.fetch(receipt.offsite_locator).data == _png(2).data
    assert (len(backing), deleted) == (2, [])
    assert service.get(receipt.pseudo_locator).media_type == "image/png"


def test_a_store_that_answers_409_to_every_put_gets_two_and_no_delete():
    # one retry: a second 409 fails the write, deletes nothing and posts
    # nothing, as neither id's object is the writer's
    puts, deletes = [], []

    class AlwaysTaken(store._StoreHandler):
        def do_PUT(self):
            self._body()
            puts.append(self._object_id())
            self._reply(409, b"object id taken\n")

        def do_DELETE(self):
            deletes.append(self.path)
            self._reply(204)

    service = FirstPartyService(response_delay_ms=0)
    album = service.create_album("taken")
    with Server(("127.0.0.1", 0), AlwaysTaken, store.OBJECTS_PATH,
                MemoryStore(name="backing")) as server, \
            closing(HttpStoreClient(server.base_url)) as client:
        with pytest.raises(ObjectExists):
            write_path(_png(3), "c", album, client, service)
        with pytest.raises(ObjectExists):
            client.upload(ContentItem(data=b"x"))
    assert len(puts) == 4 and len(set(puts)) == 4
    assert deletes == []
    assert b"<img" not in service.get(service.page_url(album)).data


def test_http_upload_retries_a_taken_seeded_id(http_pair):
    # the retry's id is off the seeded stream, whose next ids the store
    # may hold too
    client, backing = http_pair
    store.seed_ids(6)
    try:
        earlier = [client.upload(ContentItem(data=b"one")),
                   client.upload(ContentItem(data=b"two"))]
        store.seed_ids(6)
        again = client.upload(ContentItem(data=b"three"))
    finally:
        store.seed_ids(None)
    assert again not in earlier
    assert [client.fetch(loc).data for loc in [*earlier, again]] == \
        [b"one", b"two", b"three"]


_SERVE_BOTH = """
import json, sys
from r2o import firstparty, store
with firstparty.serve_firstparty(("127.0.0.1", 0)) as fp, \\
        store.serve_store(("127.0.0.1", 0), store.MemoryStore("m")) as st:
    print(json.dumps([fp.base_url, st.base_url]), flush=True)
    sys.stdin.readline()
    print(json.dumps(sorted({"numpy", "ssl"} & set(sys.modules))))
"""


def test_servers_start_without_numpy():
    # the codec loads numpy in over 0.1 s and ssl takes about 10 ms, and a
    # process that serves the first party and a store needs neither
    import r2o
    src = str(pathlib.Path(r2o.__file__).parents[1])
    serving = subprocess.Popen(
        [sys.executable, "-c", _SERVE_BOTH], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": src})
    # leaving the block closes the child's stdin, so it ends even when an
    # assertion fails
    with serving as proc, closing(ConnectionPool()) as pool:
        fp, objects = json.loads(proc.stdout.readline())
        album = pool.request("POST", f"{fp}/fp/albums", b"trip")
        assert album.status == 201
        album_url = f"{fp}/fp/albums/{album.body.decode().strip()}"
        png = write_png(np.zeros((8, 16), dtype=np.uint8))
        upload = pool.request("POST", f"{album_url}/photos", png)
        assert upload.status == 201
        assert pool.request("POST", f"{album_url}/photos",
                            b"GIF89a").status == 415
        static_url = upload.body.decode().split()[1]
        page = pool.request("GET", f"{album_url}/page").body.decode()
        assert f'src="{static_url}" width="16" height="8"' in page
        assert pool.request("GET", fp + static_url).body == png
        locator = f"{objects}/{'0' * 16}"
        assert pool.request("PUT", locator, b"bytes").status == 201
        assert pool.request("GET", locator).body == b"bytes"
        assert pool.request("DELETE", locator).status == 204
        assert pool.request("GET", locator).status == 404
        loaded, _ = proc.communicate("report\n", timeout=30)
    assert json.loads(loaded) == []


def test_http_concurrent_uploads(http_pair):
    client, _ = http_pair
    locators = []
    lock = threading.Lock()

    def work(i):
        loc = client.upload(ContentItem(data=bytes([i]) * 10))
        with lock:
            locators.append(loc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(12)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(locators)) == 12


def test_http_burst_of_gets_is_not_dropped(http_pair):
    # a page's fetches arrive in one burst; a listen backlog smaller than
    # the burst drops SYNs, which then wait out a 1 s retransmit
    client, _ = http_pair
    locator = client.upload(ContentItem(data=b"x" * 1024))
    n = 64
    start = threading.Barrier(n)
    elapsed = [None] * n

    def work(i):
        start.wait()
        t0 = time.perf_counter()
        assert client.fetch(locator).data == b"x" * 1024
        elapsed[i] = time.perf_counter() - t0

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert None not in elapsed
    assert max(elapsed) < 0.5


def test_bind_failure():
    backing = MemoryStore(name="b")
    server = serve_store(("127.0.0.1", 0), backing)
    try:
        port = int(server.base_url.split(":")[2].split("/")[0])
        with pytest.raises(OSError):
            serve_store(("127.0.0.1", port), backing)
    finally:
        server.shutdown()
