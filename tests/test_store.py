"""Off-site providers: locators, latency floors, the v1 HTTP protocol."""

import os
import pathlib
import re
import subprocess
import sys
import threading
import time

import pytest

from r2o import bench, store
from r2o.store import (
    LATENCY_PRESETS,
    ContentItem,
    FilesystemStore,
    HttpStoreClient,
    MemoryStore,
    NotFound,
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
    base = provider.descriptor.base_url
    with pytest.raises(NotFound):
        provider.fetch(f"{base}/{'0' * 16}")
    with pytest.raises(NotFound):
        provider.fetch(f"{base}/nothex")
    with pytest.raises(NotFound):
        provider.fetch("http://other.example/v1/objects/" + "0" * 16)


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
    assert s.descriptor.simulated_latency == 12
    with pytest.raises(KeyError):
        preset_store("geocities")


def test_measure_store_respects_floor():
    ((name, median),) = bench.bench_providers([preset_store("imgur")],
                                              item_size=2048, repetitions=6)
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
        client.fetch(f"{client.descriptor.base_url}/{'a' * 16}")
    backing.max_payload = 100
    with pytest.raises(PayloadTooLarge):
        client.upload(ContentItem(data=b"z" * 200))


def test_http_upload_refuses_a_locator_outside_rfc_3986():
    # a server whose locator would close the src attribute it lands in
    class Hostile(MemoryStore):
        def upload(self, item):
            super().upload(item)
            return 'http://x.example/v1/objects/a"onerror="alert(1)'

    server = serve_store(("127.0.0.1", 0), Hostile(name="hostile"))
    client = HttpStoreClient(server.base_url)
    try:
        with pytest.raises(StoreUnavailable, match="RFC 3986"):
            client.upload(ContentItem(data=b"x", media_type="image/png"))
    finally:
        client.close()
        server.shutdown()


def test_servers_start_without_numpy():
    # the codec loads numpy in over 0.1 s, and neither server needs it
    import r2o
    src = str(pathlib.Path(r2o.__file__).parents[1])
    code = ("import sys, r2o.firstparty, r2o.store; "
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


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
        with pytest.raises(store.BindFailure):
            serve_store(("127.0.0.1", port), backing)
    finally:
        server.shutdown()
