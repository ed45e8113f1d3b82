"""Write path, read path, and page resolution wiring."""

import struct
import threading
import time
import zlib
from urllib.parse import urljoin

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from r2o import codec, core
from r2o.codec import encoder
from r2o.cache import MappingsCache
from r2o.codec.png import write_png
from r2o.core import (
    OUTCOME_FAILED,
    OUTCOME_NOT_INDIRECTION,
    OUTCOME_REPLACED,
    VIA_CACHE_HIT,
    VIA_DECODED,
    InProcessFetcher,
    PageUnreachable,
    read_path,
    resolve_page,
    write_path,
)
from r2o.filter import RULE_PREFIX, ElementDescriptor
from r2o.firstparty import FirstPartyService
from r2o.store import ContentItem, MemoryStore, NotFound
from recording_fetcher import RecordingFetcher
from resize import gray, light_of


def png_item(seed=0, edge=96):
    gen = np.random.default_rng(seed)
    pix = gen.integers(0, 256, size=(edge, edge), dtype=np.uint8)
    return ContentItem(data=write_png(pix), media_type="image/png")


class World:
    """One service + one provider wired through an in-process fetcher."""

    def __init__(self, delay_ms=0.0, latency_ms=None):
        self.service = FirstPartyService(response_delay_ms=delay_ms)
        self.store = MemoryStore(name="offsite", simulated_latency=latency_ms)
        self.client = self.service
        self.fetcher = InProcessFetcher(
            firstparty=self.service, providers=[self.store])
        self.album = self.service.create_album("vacation")
        self.cache = MappingsCache()

    def publish(self, seed=0, caption="beach"):
        return write_path(png_item(seed), caption, self.album, self.store,
                          self.client, cache=self.cache)

    def element(self, receipt):
        photo = self.service.get_photo(receipt.photo_id)
        return ElementDescriptor(source_url=receipt.pseudo_locator,
                                 width=photo.width, height=photo.height,
                                 media_subtype="png", caption=photo.caption)


# -- write path --------------------------------------------------------------

def test_write_path_receipt_and_placement():
    w = World()
    item = png_item(3)
    receipt = write_path(item, "holiday", w.album, w.store, w.client,
                         cache=w.cache)
    assert receipt.album_id == w.album
    assert receipt.offsite_locator.startswith(w.store.base_url + "/")
    assert receipt.pseudo_locator.startswith(
        w.client.base_url + "/fp/photos/")

    # the off-site object is the original; the first-party one is not
    assert w.store.fetch(receipt.offsite_locator).data == item.data
    placed = w.service.get_photo_bytes(receipt.photo_id)
    assert placed != item.data

    # the placed object decodes to the off-site locator
    payload = codec.decode_qr(codec.PseudoImage.from_png(placed))
    assert payload.locator == receipt.offsite_locator


def test_write_path_marks_caption_and_records_mapping():
    w = World()
    receipt = w.publish(caption="beach")
    photo = w.service.get_photo(receipt.photo_id)
    assert photo.caption == "r2o:1 beach"
    assert w.cache.lookup(receipt.pseudo_locator) == receipt.offsite_locator
    snapshot_frequent, _ = w.cache.snapshot()
    assert receipt.pseudo_locator in snapshot_frequent


def test_write_path_cleans_orphan_on_firstparty_failure():
    w = World()
    uploaded = []

    class SpyingStore:
        def upload(self, item, draw=None):
            uploaded.append(w.store.upload(item, draw=draw))
            return uploaded[-1]

        def delete(self, locator):
            w.store.delete(locator)

    class FailingClient:
        def upload_photo(self, album_id, item, caption):
            raise RuntimeError("quota exceeded")

    with pytest.raises(RuntimeError):
        write_path(png_item(), "c", w.album, SpyingStore(), FailingClient())
    assert len(uploaded) == 1
    with pytest.raises(NotFound):
        w.store.fetch(uploaded[0])


def test_a_draw_that_raises_leaves_the_store_empty_and_posts_nothing(
        monkeypatch):
    # a local store holds the object while the stand-in is drawn, and
    # deletes it when drawing fails; the first party gets nothing
    w = World()
    held = []

    def failing_encode(payload, config):
        held.append(len(w.store))
        raise RuntimeError("encoder broke")

    monkeypatch.setattr(codec, "encode_qr", failing_encode)
    with pytest.raises(RuntimeError, match="encoder broke"):
        w.publish()
    assert held == [1]
    assert len(w.store) == 0
    assert "<img" not in w.service.render_album_page(w.album)


def test_a_store_with_only_upload_and_delete_serves_the_write_path():
    w = World()

    class UploadAndDelete:
        def upload(self, item, draw=None):
            return w.store.upload(item, draw=draw)

        def delete(self, locator):
            w.store.delete(locator)

    receipt = write_path(png_item(4), "c", w.album, UploadAndDelete(),
                         w.client)
    (res,) = read_path([w.element(receipt)], None, MappingsCache(),
                       w.fetcher)
    assert res.outcome == OUTCOME_REPLACED
    assert res.content.data == png_item(4).data


@pytest.mark.parametrize("outside, inside", [(63, 64), (1025, 1024)])
def test_write_path_draws_only_stand_ins_a_reader_takes(outside, inside):
    # the stand-in is target_size pixels square, and a default reader
    # skips one whose edge is outside MIN_EDGE..MAX_EDGE
    w = World()
    with pytest.raises(ValueError, match=f"target_size {outside} "):
        write_path(png_item(), "c", w.album, w.store, w.client,
                   qr_config=codec.QrConfig(target_size=outside))
    page_url = w.client.page_url(w.album)
    assert len(w.store) == 0
    assert b"<img" not in w.fetcher.fetch(page_url).data
    receipt = write_path(png_item(), "c", w.album, w.store, w.client,
                         qr_config=codec.QrConfig(target_size=inside))
    out = resolve_page(page_url, w.fetcher)
    assert f'src="{receipt.offsite_locator}"'.encode() in out


def test_write_path_without_cache_is_fine():
    w = World()
    receipt = write_path(png_item(), None, w.album, w.store, w.client)
    assert w.store.fetch(receipt.offsite_locator).data == png_item().data


# -- read path ---------------------------------------------------------------

def test_read_path_cold_then_warm():
    w = World()
    receipt = w.publish(seed=7)
    elem = w.element(receipt)

    recording = RecordingFetcher(w.fetcher)
    (cold,) = read_path([elem], None, w.cache, recording)
    assert cold.outcome == OUTCOME_REPLACED
    assert cold.content.data == png_item(7).data
    assert cold.offsite_locator == receipt.offsite_locator
    # the mapping was pre-recorded at write time, so this was a cache hit
    assert cold.via == VIA_CACHE_HIT

    # with an empty cache the same element resolves by decoding
    fresh = MappingsCache()
    (decoded,) = read_path([elem], None, fresh, recording)
    assert decoded.via == VIA_DECODED
    assert decoded.content.data == png_item(7).data
    assert fresh.lookup(elem.source_url) == receipt.offsite_locator

    # and the learned mapping elides the pseudo-object fetch afterwards
    warm_recorder = RecordingFetcher(w.fetcher)
    (warm,) = read_path([elem], None, fresh, warm_recorder)
    assert warm.via == VIA_CACHE_HIT
    assert warm_recorder.count(elem.source_url) == 0
    assert warm_recorder.requests == [receipt.offsite_locator]


def test_repeated_page_views_start_no_threads(monkeypatch):
    w = World()
    elements = [w.element(w.publish(seed=s)) for s in range(4)]
    read_path(elements, None, MappingsCache(), w.fetcher)
    started = []
    start = threading.Thread.start

    def counting(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    # one worker at a time keeps the first view's threads enough for the rest
    for _ in range(3):
        results = read_path(elements[:1], None, MappingsCache(), w.fetcher)
        assert results[0].replaced
    assert started == []


def test_read_path_filter_rejection_is_networkless():
    w = World()
    rejected = ElementDescriptor(source_url="/static/banner.png",
                                 width=512, height=512, media_subtype="png",
                                 caption="r2o:1 x")
    recording = RecordingFetcher(w.fetcher)
    (res,) = read_path([rejected], None, w.cache, recording)
    assert res.outcome == OUTCOME_NOT_INDIRECTION
    assert res.reason == "prefix"
    assert recording.requests == []


def test_read_path_plain_png_is_not_indirection():
    w = World()
    # a photo uploaded around the toolkit: genuine PNG, no symbol
    photo_id, static_url = w.service.upload_photo(w.album, png_item(9),
                                                  "r2o:1 direct")
    elem = ElementDescriptor(source_url=w.client.base_url + static_url,
                             width=96, height=96, media_subtype="png",
                             caption="r2o:1 direct")
    (res,) = read_path([elem], None, w.cache, w.fetcher)
    assert res.outcome == OUTCOME_NOT_INDIRECTION
    assert res.reason == "no symbol found"


def test_read_path_non_png_pseudo_is_not_indirection():
    class JunkFetcher:
        def fetch(self, url):
            return ContentItem(data=b"GIF89a, not a PNG",
                               media_type="image/png")

    elem = ElementDescriptor(source_url="http://fp.example/fp/photos/x.png",
                             width=512, height=512, media_subtype="png",
                             caption="r2o:1 junk")
    (res,) = read_path([elem], None, MappingsCache(), JunkFetcher())
    assert res.outcome == OUTCOME_NOT_INDIRECTION
    assert res.reason == "not a PNG pseudo-object"


def _paeth_png(edge):
    """An edge x edge 8-bit PNG whose every row uses the Paeth filter."""
    z = zlib.compressobj(9)
    row = b"\x04" + bytes(edge)
    idat = b"".join(z.compress(row) for _ in range(edge)) + z.flush()

    def chunk(tag, payload):
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload)))

    ihdr = struct.pack(">IIBBBBB", edge, edge, 8, 0, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", idat) + chunk(b"IEND", b""))


def test_read_path_refuses_stand_in_above_edge_limit():
    bomb = ContentItem(data=_paeth_png(4096), media_type="image/png")

    class BombFetcher:
        def fetch(self, url):
            return bomb

    # the page claims 512 x 512, which passes the filter; the PNG header
    # says 4096 x 4096, above filter.MAX_EDGE
    elem = ElementDescriptor(source_url="http://fp.example/fp/photos/x.png",
                             width=512, height=512, media_subtype="png",
                             caption="r2o:1 bomb")
    t0 = time.perf_counter()
    (res,) = read_path([elem], None, MappingsCache(), BombFetcher())
    assert time.perf_counter() - t0 < 0.5
    assert res.outcome == OUTCOME_NOT_INDIRECTION
    assert res.reason == "pseudo-image edge above 1024"


def test_read_path_refuses_paeth_stand_in_fast():
    # 1024 px passes the edge limit, but unfiltering its Paeth rows one
    # byte at a time would hold the decode gate for about half a second
    bomb = ContentItem(data=_paeth_png(1024), media_type="image/png")

    class BombFetcher:
        def fetch(self, url):
            return bomb

    elem = ElementDescriptor(source_url="http://fp.example/fp/photos/x.png",
                             width=512, height=512, media_subtype="png",
                             caption="r2o:1 bomb")
    t0 = time.perf_counter()
    (res,) = read_path([elem], None, MappingsCache(), BombFetcher())
    assert time.perf_counter() - t0 < 0.1
    assert res.outcome == OUTCOME_NOT_INDIRECTION
    assert res.reason == "not a PNG pseudo-object"


def test_read_path_resolves_eight_bit_stand_in():
    # stand-ins written before the 1-bit writer are 8-bit grayscale
    w = World()
    locator = w.store.upload(png_item(5))
    image = codec.encode_qr(codec.IndirectionPayload(locator=locator))
    old = ContentItem(data=write_png(gray(light_of(image))),
                      media_type="image/png")
    assert old.data[24] == 8  # the IHDR's bit depth
    _, static_url = w.service.upload_photo(w.album, old, "r2o:1 old")
    elem = ElementDescriptor(source_url=w.client.base_url + static_url,
                             width=512, height=512, media_subtype="png",
                             caption="r2o:1 old")
    (res,) = read_path([elem], None, MappingsCache(), w.fetcher)
    assert res.outcome == OUTCOME_REPLACED
    assert res.via == VIA_DECODED
    assert res.content.data == png_item(5).data


def _peak_png_reads(monkeypatch):
    """Patch from_png to hold its stage; returns the running peak count."""
    inner = codec.PseudoImage.from_png
    lock = threading.Lock()
    active = [0]
    peak = [0]

    def gated_from_png(cls, data, **kwargs):
        with lock:
            active[0] += 1
            peak[0] = max(peak[0], active[0])
        time.sleep(0.05)  # hold the stage so overlapping calls would show
        with lock:
            active[0] -= 1
        return inner(data, **kwargs)

    monkeypatch.setattr(codec.PseudoImage, "from_png",
                        classmethod(gated_from_png))
    return peak


def test_read_path_parallelism_bounds_png_reads(monkeypatch):
    # the gate is shared: two pages resolving at once, each with fewer
    # stand-ins than the gate admits, together stay under its count
    w = World()
    pages = [[w.element(w.publish(seed=10 * p + i)) for i in range(6)]
             for p in range(2)]
    peak = _peak_png_reads(monkeypatch)
    results = [None, None]

    def resolve(p):
        results[p] = read_path(pages[p], None, MappingsCache(), w.fetcher)

    threads = [threading.Thread(target=resolve, args=(p,)) for p in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    for page in results:
        assert all(r.outcome == OUTCOME_REPLACED for r in page)
    assert 1 < peak[0] <= core._DECODE_SLOTS


def test_read_path_gate_of_one_serialises_png_reads(monkeypatch):
    w = World()
    elements = [w.element(w.publish(seed=i)) for i in range(4)]
    peak = _peak_png_reads(monkeypatch)
    monkeypatch.setattr(core, "_decode_gate", threading.BoundedSemaphore(1))
    results = read_path(elements, None, MappingsCache(), w.fetcher)
    assert all(r.outcome == OUTCOME_REPLACED for r in results)
    assert peak[0] == 1


def test_read_path_decodes_on_the_calling_thread(monkeypatch):
    w = World()
    elements = [w.element(w.publish(seed=i)) for i in range(4)]
    calls = []
    from_png, decode_qr = codec.PseudoImage.from_png, codec.decode_qr

    def recording_from_png(cls, data, **kwargs):
        calls.append(("from_png", threading.get_ident()))
        return from_png(data, **kwargs)

    def recording_decode_qr(image):
        calls.append(("decode_qr", threading.get_ident()))
        return decode_qr(image)

    monkeypatch.setattr(codec.PseudoImage, "from_png",
                        classmethod(recording_from_png))
    monkeypatch.setattr(codec, "decode_qr", recording_decode_qr)
    results = read_path(elements, None, MappingsCache(), w.fetcher)
    assert [r.via for r in results] == [VIA_DECODED] * 4
    assert sorted(name for name, _ in calls) == (["decode_qr"] * 4
                                                 + ["from_png"] * 4)
    assert {ident for _, ident in calls} == {threading.get_ident()}


class CountingFetcher:
    """Counts fetches started and still running; each takes `delay` s, or
    the time `delays` gives its URL."""

    def __init__(self, inner, delay, delays=None):
        self.inner = inner
        self.delay = delay
        self.delays = delays or {}
        self.started = 0
        self.running = 0
        self._lock = threading.Lock()

    def fetch(self, url):
        with self._lock:
            self.started += 1
            self.running += 1
        try:
            time.sleep(self.delays.get(url, self.delay))
            return self.inner.fetch(url)
        finally:
            with self._lock:
                self.running -= 1


def test_read_path_error_leaves_no_fetch_running(monkeypatch):
    w = World()
    elements = [w.element(w.publish(seed=i)) for i in range(6)]
    decode_qr = codec.decode_qr
    decoded = []

    def third_decode_raises(image):
        decoded.append(image)
        if len(decoded) == 3:
            raise RuntimeError("decoder bug")
        return decode_qr(image)

    monkeypatch.setattr(codec, "decode_qr", third_decode_raises)
    # the stand-ins arrive in two waves, and a wave's off-site fetches
    # start once all of its stand-ins are decoded: the first wave's two
    # are still running when the second wave's first decode raises
    waves = {e.source_url: 0.05 if n < 2 else 0.3
             for n, e in enumerate(elements)}
    fetcher = CountingFetcher(w.fetcher, delay=0.6, delays=waves)
    with pytest.raises(RuntimeError, match="decoder bug"):
        read_path(elements, None, MappingsCache(), fetcher)
    # two off-site fetches had started when the third decode raised
    assert fetcher.started >= 6 + 2
    assert fetcher.running == 0


def test_stand_in_whose_locator_holds_markup_is_refused():
    # a stand-in's QR may carry any bytes, and this store answers 200 to
    # any GET; a locator with '"' would add an attribute to the page
    w = World()
    hostile = 'http://off.example/v1/objects/x"onerror="alert(1)'
    modules, _, _ = encoder.encode_symbol(hostile.encode("ascii"))
    pseudo = encoder.render(modules, codec.QrConfig())
    photo_id, _ = w.service.upload_photo(
        w.album, ContentItem(data=pseudo.to_png(), media_type="image/png"),
        "r2o:1 x")

    class AnyGet:
        def fetch(self, url):
            if url.startswith(w.client.base_url):
                return w.fetcher.fetch(url)
            return png_item(1)

    elem = w.element(core.WriteReceipt(
        offsite_locator=hostile, photo_id=photo_id, album_id=w.album,
        pseudo_locator=w.client.base_url
        + w.service.get_photo(photo_id).static_url))
    (res,) = read_path([elem], None, MappingsCache(), AnyGet())
    assert res.outcome == OUTCOME_FAILED
    assert res.offsite_locator is None
    page_url = w.client.page_url(w.album)
    original = w.fetcher.fetch(page_url).data
    assert resolve_page(page_url, AnyGet(), cache=MappingsCache()) == original


def test_locator_that_would_end_a_single_quoted_src_is_not_spliced():
    # "'" is a URI character, so this locator decodes and resolves; in a
    # single-quoted src it would add an onerror attribute to the page
    w = World()
    hostile = "http://off.example/v1/objects/x'onerror='alert(1)"
    modules, _, _ = encoder.encode_symbol(hostile.encode("ascii"))
    pseudo = encoder.render(modules, codec.QrConfig())
    w.service.upload_photo(
        w.album, ContentItem(data=pseudo.to_png(), media_type="image/png"),
        "r2o:1 x")
    benign = w.publish(seed=5)
    page_url = w.client.page_url(w.album)

    class SingleQuotedPage:
        # the page with single quotes, and a store that answers any GET
        def fetch(self, url):
            if url == page_url:
                page = w.fetcher.fetch(url)
                return ContentItem(data=page.data.replace(b'"', b"'"),
                                   media_type=page.media_type)
            if url.startswith(w.client.base_url):
                return w.fetcher.fetch(url)
            return png_item(1)

    fetcher = SingleQuotedPage()
    original = fetcher.fetch(page_url).data
    out = resolve_page(page_url, fetcher, cache=MappingsCache())
    benign_src = w.service.get_photo(benign.photo_id).static_url
    # the hostile element keeps its src; the page's other one is replaced
    assert out == original.replace(benign_src.encode(),
                                   benign.offsite_locator.encode())
    assert b"onerror" not in out


def test_read_path_fetch_failures():
    w = World()
    gone = ElementDescriptor(source_url=w.client.base_url +
                             "/fp/photos/feedfacefeedface.png",
                             width=512, height=512, media_subtype="png",
                             caption="r2o:1 gone")
    (res,) = read_path([gone], None, w.cache, w.fetcher)
    assert res.outcome == OUTCOME_FAILED


def test_read_path_keeps_mapping_when_offsite_fetch_fails():
    w = World()
    receipt = w.publish(seed=4)
    elem = w.element(receipt)
    w.store.delete(receipt.offsite_locator)

    fresh = MappingsCache()
    (res,) = read_path([elem], None, fresh, w.fetcher)
    assert res.outcome == OUTCOME_FAILED
    # the decode result is retained so a retry skips the decode stage
    assert fresh.lookup(elem.source_url) == receipt.offsite_locator


def test_read_path_preserves_order_with_mixed_elements():
    w = World()
    receipts = [w.publish(seed=i) for i in range(3)]
    elements = [
        w.element(receipts[0]),
        ElementDescriptor(source_url="/static/logo.gif", width=128,
                          height=128, media_subtype="gif"),
        w.element(receipts[1]),
        ElementDescriptor(source_url="/fp/photos/abc.png", width=10,
                          height=10, media_subtype="png"),
        w.element(receipts[2]),
    ]
    results = read_path(elements, None, w.cache, w.fetcher)
    outcomes = [r.outcome for r in results]
    assert outcomes == [OUTCOME_REPLACED, OUTCOME_NOT_INDIRECTION,
                        OUTCOME_REPLACED, OUTCOME_NOT_INDIRECTION,
                        OUTCOME_REPLACED]
    assert results[1].reason == "prefix"
    assert results[3].reason == "bounds"
    for r, receipt in zip(results[::2], receipts):
        assert r.offsite_locator == receipt.offsite_locator


def test_read_path_overlaps_independent_fetches():
    w = World(latency_ms=30.0)
    receipts = [w.publish(seed=i) for i in range(8)]
    elements = [w.element(r) for r in receipts]
    start = time.perf_counter()
    results = read_path(elements, None, w.cache, w.fetcher)
    wall_ms = (time.perf_counter() - start) * 1000.0
    assert all(r.outcome == OUTCOME_REPLACED for r in results)
    # serial cost would be >= 8 x 30 ms
    assert wall_ms < 8 * 30.0


# -- page resolution ---------------------------------------------------------

def test_resolve_page_rewrites_schemata_in_place():
    w = World()
    receipt = w.publish(seed=11)
    page_url = w.client.page_url(w.album)
    original = w.fetcher.fetch(page_url).data

    out = resolve_page(page_url, w.fetcher, cache=MappingsCache())
    assert out != original
    assert receipt.offsite_locator.encode() in out
    # relative static path was absolutized for fetching, then replaced
    photo = w.service.get_photo(receipt.photo_id)
    assert photo.static_url.encode() not in out


def test_resolve_page_inline_embeds_bytes():
    import base64

    w = World()
    w.publish(seed=12)
    out = resolve_page(w.client.page_url(w.album), w.fetcher, inline=True)
    marker = b"data:image/png;base64,"
    assert marker in out
    start = out.index(marker) + len(marker)
    end = out.index(b'"', start)
    assert base64.b64decode(out[start:end]) == png_item(12).data


@pytest.mark.parametrize("media_type", [
    'image/png"onerror="alert(1)', "text/html", "image/", "image/png x",
    "image/png;q=1", "imagepng"])
def test_inline_keeps_the_src_of_a_media_type_that_is_not_an_image_token(
        media_type):
    # the off-site media type goes into the data: URL, so markup in it
    # would land in the page; such an element keeps its stand-in
    w = World()
    item = png_item(13)
    w.publish(seed=13)  # one clean element, replaced as usual
    write_path(ContentItem(data=item.data, media_type=media_type), "evil",
               w.album, w.store, w.client)
    page_url = w.client.page_url(w.album)
    original = w.fetcher.fetch(page_url).data
    out = resolve_page(page_url, w.fetcher, inline=True)
    assert out.count(b"data:image/png;base64,") == 1
    assert b"onerror" not in out
    assert f"data:{media_type};".encode() not in out
    # the refused element's img tag is byte for byte the original one
    tags = original.split(b"<img ")
    assert out.split(b"<img ")[2] == tags[2]


@pytest.mark.parametrize("media_type", ["image/png", "IMAGE/PNG",
                                        "image/svg+xml", "image/x-icon"])
def test_inline_takes_an_image_token_media_type(media_type):
    w = World()
    write_path(ContentItem(data=png_item(14).data, media_type=media_type),
               "ok", w.album, w.store, w.client)
    out = resolve_page(w.client.page_url(w.album), w.fetcher, inline=True)
    assert f"data:{media_type};base64,".encode() in out


def test_resolve_page_untouched_without_candidates():
    w = World()
    w.service.upload_photo(w.album, png_item(1), "plain")
    page_url = w.client.page_url(w.album)
    original = w.fetcher.fetch(page_url).data
    # the sole photo is real content: decode finds no symbol, no rewrite
    assert resolve_page(page_url, w.fetcher) == original


class Swapping:
    """Answers some URLs from a table of its own, the rest from `inner`."""

    def __init__(self, inner, table):
        self.inner = inner
        self.table = table

    def fetch(self, url):
        found = self.table.get(url)
        return self.inner.fetch(url) if found is None else found


def test_a_stand_in_that_names_itself_fails_and_is_not_recorded():
    w = World()
    _, path = w.service.upload_photo(w.album, png_item(1), "r2o:1")
    url = w.service.base_url + path
    png = codec.encode_qr(codec.IndirectionPayload(locator=url),
                          codec.QrConfig()).to_png()
    fetcher = RecordingFetcher(
        Swapping(w.fetcher, {url: ContentItem(png, "image/png")}))
    page_url = w.client.page_url(w.album)
    cache = MappingsCache()
    assert resolve_page(page_url, fetcher, cache=cache) == \
        w.fetcher.fetch(page_url).data
    assert fetcher.requests == [page_url, url]
    assert len(cache) == 0
    elem = ElementDescriptor(source_url=url, media_subtype="png",
                             caption="r2o:1")
    (res,) = read_path([elem], None, cache, fetcher)
    assert res.outcome == OUTCOME_FAILED
    assert res.reason == "stand-in names itself"
    assert len(cache) == 0


_BAD_SRC = "http://[bad/fp/photos/a.png"


def test_a_malformed_image_url_keeps_its_src_and_the_page_resolves():
    w = World()
    receipt = w.publish(seed=15)
    page_url = w.client.page_url(w.album)
    page = w.fetcher.fetch(page_url).data.replace(
        b"</body>",
        f'<img src="{_BAD_SRC}" width="512" height="512"></body>'.encode())
    fetcher = RecordingFetcher(
        Swapping(w.fetcher, {page_url: ContentItem(page, "text/html")}))
    out = resolve_page(page_url, fetcher, cache=MappingsCache())
    assert receipt.offsite_locator.encode() in out
    assert f'<img src="{_BAD_SRC}"'.encode() in out
    assert not any(url.startswith("http://[") for url in fetcher.requests)
    elem = ElementDescriptor(source_url=_BAD_SRC, width=512, height=512)
    (res,) = read_path([elem], None, MappingsCache(), fetcher)
    assert res.outcome == OUTCOME_NOT_INDIRECTION
    assert res.reason == RULE_PREFIX


def test_in_process_fetch_error_carries_the_status():
    # a host's miss reads 404, as over HTTP; a URL no host serves, None
    w = World()
    missing = "0" * 16
    urls = [f"{w.store.base_url}/{missing}",
            f"{w.service.base_url}/fp/photos/{missing}.png",
            w.service.page_url(missing)]
    for url in urls:
        with pytest.raises(core.FetchError) as gone:
            w.fetcher.fetch(url)
        assert gone.value.status == 404
    with pytest.raises(core.FetchError) as refused:
        w.fetcher.fetch("http://elsewhere.invalid/x")
    assert refused.value.status is None


def test_resolve_page_unreachable():
    w = World()
    with pytest.raises(PageUnreachable):
        resolve_page("http://nowhere.invalid/fp/albums/x/page",
                     InProcessFetcher())


_BASES = st.builds(
    lambda scheme, userinfo, host, path, query:
        f"{scheme}://{userinfo}{host}{path}{query}",
    st.sampled_from(["http", "HTTP", "Https"]),
    st.sampled_from(["", "u:p@", "user@"]),
    st.sampled_from(["fp.example", "127.0.0.1:8601", "[::1]:80"]),
    st.sampled_from(["", "/", "/fp/albums/a", "/fp/albums/a/"]),
    st.sampled_from(["", "?q=1", "?a/./b#f"]))
_SRCS = st.text("/.?#;:@%\t\n\r \\[]ab", max_size=14)


@settings(max_examples=1000)
@given(_BASES, st.one_of(_SRCS, _SRCS.map(lambda src: "/" + src)))
def test_property_a_page_src_joins_as_urljoin_joins_it(base, src):
    try:
        expected = urljoin(base, src)
    except ValueError:
        expected = src
    assert core._joiner(base)(src) == expected


def test_every_photo_src_on_an_album_page_is_joined_without_urljoin(
        monkeypatch):
    # a first-party page's srcs are plain absolute paths, so resolving it
    # parses its URL once, not once per element
    w = World()
    for seed in range(3):
        w.publish(seed=20 + seed)
    page_url = w.client.page_url(w.album)
    joined = []
    monkeypatch.setattr(core, "urljoin",
                        lambda base, src: joined.append(src) or src)
    out = resolve_page(page_url, w.fetcher, cache=w.cache)
    assert out.count(w.store.base_url.encode()) == 3
    assert joined == []
