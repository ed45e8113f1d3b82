"""Acceptance gate: eleven behavioral criteria, one verdict line each.

Every test prints `[criterion NN] PASS|FAIL <label>` through the terminal
reporter so the verdicts survive output capture. A criterion collects all
its violations before asserting, so the printed line always appears.
"""

import random
import sys
import time

import numpy as np
import pytest

import qr_oracle
from r2o import bench, codec
from r2o.cache import CacheConfig, MappingEntry, MappingsCache
from r2o.codec.png import write_png
from r2o.core import (
    InProcessFetcher,
    InProcessFirstPartyClient,
    read_path,
    resolve_page,
    write_path,
)
from r2o.filter import (
    RULE_ASPECT,
    RULE_SUBTYPE,
    ElementDescriptor,
    FilterConfig,
    is_candidate,
)
from r2o.firstparty import FirstPartyService
from r2o.rewriter import scan_html
from r2o.store import LATENCY_PRESETS, ContentItem, MemoryStore, preset_store

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from cache_reference import ReferenceCache  # noqa: E402
from recording_fetcher import RecordingFetcher  # noqa: E402

URL_CHARS = ("abcdefghijklmnopqrstuvwxyz"
             "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-._~/")


@pytest.fixture(scope="session")
def verdict(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _report(number: int, label: str, failures: list) -> None:
        status = "PASS" if not failures else "FAIL"
        line = f"[criterion {number:02d}] {status} {label}"
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line)

    return _report


def random_url(rng: random.Random, max_len: int = 200) -> str:
    prefix = "http://host.example/"
    body_len = rng.randrange(1, max_len - len(prefix) + 1)
    return prefix + "".join(rng.choice(URL_CHARS) for _ in range(body_len))


def png_item(seed: int, edge: int = 96) -> ContentItem:
    gen = np.random.default_rng(seed)
    pix = gen.integers(0, 256, size=(edge, edge), dtype=np.uint8)
    return ContentItem(data=write_png(pix), media_type="image/png")


class World:
    def __init__(self, delay_ms=0.0, latency_ms=None):
        self.service = FirstPartyService(response_delay_ms=delay_ms)
        self.store = MemoryStore(name="offsite", simulated_latency=latency_ms)
        self.client = InProcessFirstPartyClient(self.service)
        self.fetcher = InProcessFetcher(
            firstparty=self.service, providers=[self.store])
        self.album = self.service.create_album("gate")


# -- 1: encode/decode round trip under benign transforms ---------------------

def test_criterion_01_codec_round_trip(verdict):
    failures = []
    try:
        rng = random.Random(101)
        started = time.perf_counter()
        cfg = codec.QrConfig(target_size=None, module_scale=1)
        for i in range(500):
            url = random_url(rng)
            image = codec.encode_qr(
                codec.IndirectionPayload(locator=url), cfg)
            if codec.decode_qr(image).locator != url:
                failures.append(f"direct decode mismatch for {url!r}")
                continue
            padded = codec.pad_with_border(
                image, image.width + rng.randrange(1, 81),
                image.height + rng.randrange(1, 81))
            if codec.decode_qr(padded).locator != url:
                failures.append(f"padded decode mismatch for {url!r}")
            scaled = codec.upscale(image, 2 + i % 3)
            if codec.decode_qr(scaled).locator != url:
                failures.append(f"upscaled decode mismatch for {url!r}")
        elapsed = time.perf_counter() - started
        if elapsed >= 30.0:
            failures.append(f"round trip took {elapsed:.1f} s, bound 30 s")
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    verdict(1, "codec round trip with padding and upscaling", failures)
    assert not failures, failures[:5]


# -- 2: independent reference decoder agreement ------------------------------

def test_criterion_02_reference_decoder_spot_check(verdict):
    failures = []
    try:
        rng = random.Random(202)
        for i in range(10):
            url = random_url(rng, max_len=120)
            level = ("M", "Q")[i % 2]
            image = codec.encode_qr(
                codec.IndirectionPayload(locator=url),
                codec.QrConfig(ec_level=level, target_size=None,
                               module_scale=1))
            got = qr_oracle.oracle_decode_pixels(image.pixels)
            if got != url.encode("ascii"):
                failures.append(f"oracle read {got!r}, wanted {url!r}")
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    verdict(2, "independent reference decoder agreement", failures)
    assert not failures, failures[:5]


# -- 3: decode latency distribution ------------------------------------------

def test_criterion_03_decode_latency_distribution(verdict):
    failures = []
    try:
        report = bench.bench_decode(500, rng=random.Random(303))
        if len(report.samples) != 500:
            failures.append(f"expected 500 samples, got {len(report.samples)}")
        xs = [p[0] for p in report.cdf_points]
        fs = [p[1] for p in report.cdf_points]
        if xs != sorted(xs) or len(set(xs)) != len(xs):
            failures.append("CDF x-coordinates not strictly increasing")
        if fs != sorted(fs):
            failures.append("CDF fractions not monotone")
        if abs(fs[-1] - 1.0) > 1e-9:
            failures.append(f"CDF must end at 1.0, got {fs[-1]}")
        worst = max(report.samples)
        if worst > 50.0:
            failures.append(f"max decode {worst:.3f} ms exceeds 50 ms")
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    verdict(3, "decode latency CDF well-formed, max under 50 ms", failures)
    assert not failures, failures[:5]


# -- 4: provider latency presets ---------------------------------------------

def test_criterion_04_provider_latency_presets(verdict):
    failures = []
    try:
        started = time.perf_counter()
        rows = bench.bench_providers()
        elapsed = time.perf_counter() - started
        if len(rows) != 8:
            failures.append(f"expected 8 rows, got {len(rows)}")
        for name, median in rows:
            preset = LATENCY_PRESETS[name]
            if not preset <= median <= preset + 20.0:
                failures.append(
                    f"{name}: median {median:.2f} ms outside "
                    f"[{preset}, {preset + 20}]")
        if elapsed >= 120.0:
            failures.append(f"sweep took {elapsed:.1f} s, bound 120 s")
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    verdict(4, "provider medians inside preset+20ms, all 8 rows", failures)
    assert not failures, failures[:5]


# -- 5: end-to-end composition -----------------------------------------------

def test_criterion_05_end_to_end_composition(verdict):
    failures = []
    try:
        for offsite, low, high in ((147.0, 158.0, 188.0),
                                   (306.0, 317.0, 347.0)):
            report = bench.bench_end_to_end(11.0, offsite, use_cache=False)
            if not low <= report.median <= high:
                failures.append(
                    f"cold median at offsite {offsite:g} ms is "
                    f"{report.median:.2f}, bound [{low:g}, {high:g}]")
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    verdict(5, "cold read composes firstparty+offsite+toolkit slack",
            failures)
    assert not failures, failures[:5]


# -- 6: warm reads elide the pseudo object -----------------------------------

def test_criterion_06_cache_hit_elision(verdict):
    failures = []
    try:
        w = World(delay_ms=11.0, latency_ms=147.0)
        receipt = write_path(png_item(6), "pier", w.album, w.store, w.client)
        page_url = w.client.page_url(w.album)
        cache = MappingsCache()
        resolve_page(page_url, w.fetcher, cache=cache)  # cold prime

        recorder = RecordingFetcher(w.fetcher)
        samples = []
        for _ in range(9):
            t0 = time.perf_counter()
            resolve_page(page_url, recorder, cache=cache)
            samples.append((time.perf_counter() - t0) * 1000.0)
        samples.sort()
        median = samples[len(samples) // 2]
        if median - 147.0 > 10.0:
            failures.append(
                f"warm median {median:.2f} ms exceeds offsite 147 ms "
                f"by more than 10 ms")
        pseudo_hits = [u for u in recorder.requests if "/fp/photos/" in u]
        if pseudo_hits:
            failures.append(
                f"warm reads fetched pseudo objects: {pseudo_hits[:3]}")
        if recorder.count(receipt.offsite_locator) != 9:
            failures.append("warm reads should hit the off-site object "
                            "exactly once per resolve")
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    verdict(6, "warm reads skip pseudo fetch, pay only off-site", failures)
    assert not failures, failures[:5]


# -- 7: resolution parallelism -----------------------------------------------

def test_criterion_07_parallel_resolution(verdict):
    failures = []
    try:
        w = World(delay_ms=100.0, latency_ms=100.0)
        receipts = [write_path(png_item(20 + i), None, w.album, w.store,
                               w.client) for i in range(20)]
        elements = []
        for receipt in receipts:
            photo = w.service.get_photo(receipt.photo_id)
            elements.append(ElementDescriptor(
                source_url=receipt.pseudo_locator, width=photo.width,
                height=photo.height, media_subtype="png",
                caption=photo.caption))

        t0 = time.perf_counter()
        (single,) = read_path(elements[:1], None, MappingsCache(),
                              w.fetcher, parallelism=8)
        single_wall = (time.perf_counter() - t0) * 1000.0

        t0 = time.perf_counter()
        results = read_path(elements, None, MappingsCache(), w.fetcher,
                            parallelism=8)
        full_wall = (time.perf_counter() - t0) * 1000.0

        if not single.replaced:
            failures.append(f"single cold read failed: {single.reason}")
        bad = [r.reason for r in results if not r.replaced]
        if bad:
            failures.append(f"cold reads failed: {bad[:3]}")
        if full_wall >= 2.0 * single_wall:
            failures.append(
                f"20 schemata took {full_wall:.0f} ms, bound is 2x single "
                f"cold read ({single_wall:.0f} ms)")
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    verdict(7, "20 cold schemata under twice one cold read", failures)
    assert not failures, failures[:5]


# -- 8: cache policy equivalence ---------------------------------------------

def _cache_state(cache: MappingsCache):
    frequent, recent = cache.snapshot()

    def flat(segment):
        return {k: (e.offsite_locator, e.media_class, e.hit_count,
                    e.last_used) for k, e in segment.items()}

    return flat(frequent), flat(recent)


def test_criterion_08_cache_policy_equivalence(verdict):
    failures = []
    try:
        for seed in range(100):
            rng = random.Random(seed)
            n = rng.randrange(0, 9)
            m = rng.randrange(0, 9)
            cache = MappingsCache(CacheConfig(n_frequent=n, m_recent=m))
            ref = ReferenceCache(n, m)
            keys = [f"http://fp.example/fp/photos/{i}.png"
                    for i in range(20)]
            for step in range(10_000):
                key = rng.choice(keys)
                target = f"http://off.example/v1/objects/{key[-6:-4]:>02}"
                roll = rng.random()
                if roll < 0.35:
                    hits = rng.randrange(4)
                    cache.record_created(MappingEntry(
                        pseudo_locator=key, offsite_locator=target,
                        hit_count=hits))
                    ref.record_created(key, target, hits=hits)
                elif roll < 0.70:
                    cache.record_resolved(MappingEntry(
                        pseudo_locator=key, offsite_locator=target,
                        hit_count=1))
                    ref.record_resolved(key, target, hits=1)
                else:
                    mine, theirs = cache.lookup(key), ref.lookup(key)
                    if mine != theirs:
                        failures.append(
                            f"seed {seed} step {step}: lookup {mine!r} "
                            f"vs reference {theirs!r}")
                        break
                if _cache_state(cache) != ref.state():
                    failures.append(
                        f"seed {seed} step {step}: segment contents "
                        f"diverged (n={n}, m={m})")
                    break
            if failures:
                break
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    verdict(8, "cache policy matches brute-force reference", failures)
    assert not failures, failures[:5]


# -- 9: filter corpus --------------------------------------------------------

def test_criterion_09_filter_corpus(verdict):
    failures = []
    try:
        rng = random.Random(909)
        cfg = FilterConfig()
        corpus = []
        for i in range(400):
            edge = rng.randrange(64, 1025)
            corpus.append(("genuine", ElementDescriptor(
                source_url=f"/fp/photos/{i:016x}.png", width=edge,
                height=edge, media_subtype="png",
                caption=f"r2o:1 shot {i}")))
        for i in range(300):
            w = rng.randrange(64, 1025)
            h = rng.randrange(64, 1025)
            if h == w:
                h = w - 1 if w > 64 else w + 1
            corpus.append(("non_square", ElementDescriptor(
                source_url=f"/fp/photos/ns{i:014x}.png", width=w, height=h,
                media_subtype="png", caption="r2o:1 x")))
        for i in range(300):
            edge = rng.randrange(64, 1025)
            corpus.append(("excluded_subtype", ElementDescriptor(
                source_url=f"/fp/photos/gif{i:013x}.gif", width=edge,
                height=edge, media_subtype="gif", caption="r2o:1 x")))
        rng.shuffle(corpus)
        if len(corpus) != 1000:
            failures.append(f"corpus size {len(corpus)}")

        for kind, element in corpus:
            decision = is_candidate(element, cfg)
            if kind == "genuine" and not decision:
                failures.append(
                    f"false negative ({decision.reason}) on "
                    f"{element.source_url}")
            elif kind == "non_square":
                if decision or decision.reason != RULE_ASPECT:
                    failures.append(
                        f"non-square element got {decision.reason!r}, "
                        f"wanted {RULE_ASPECT!r}")
            elif kind == "excluded_subtype":
                if decision or decision.reason != RULE_SUBTYPE:
                    failures.append(
                        f"excluded subtype got {decision.reason!r}, "
                        f"wanted {RULE_SUBTYPE!r}")
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    verdict(9, "filter corpus: no false negatives, right reasons", failures)
    assert not failures, failures[:5]


# -- 10: rewriter locality ---------------------------------------------------

def _excise(document: bytes, spans) -> bytes:
    kept, cursor = [], 0
    for start, end in spans:
        kept.append(document[cursor:start])
        cursor = end
    kept.append(document[cursor:])
    return b"".join(kept)


def test_criterion_10_rewriter_locality(verdict):
    failures = []
    try:
        rng = random.Random(1010)
        for page_index in range(100):
            w = World()
            caption_pool = ["sunset <b>", 'say "cheese"', "r&d day",
                            "plain caption", ""]
            n_photos = rng.randrange(1, 5)
            schema_count = 0
            for k in range(n_photos):
                caption = rng.choice(caption_pool)
                if rng.random() < 0.6:
                    write_path(png_item(rng.randrange(10_000)), caption,
                               w.album, w.store, w.client)
                    schema_count += 1
                else:
                    w.service.upload_photo(w.album,
                                           png_item(rng.randrange(10_000)),
                                           caption)
            page_url = w.client.page_url(w.album)
            original = w.fetcher.fetch(page_url).data

            resolved = resolve_page(page_url, w.fetcher,
                                    cache=MappingsCache())
            if schema_count == 0:
                if resolved != original:
                    failures.append(
                        f"page {page_index}: rewritten without schemata")
                continue
            before = scan_html(original)
            after = scan_html(resolved)
            if len(before) != len(after):
                failures.append(
                    f"page {page_index}: element count changed "
                    f"{len(before)} -> {len(after)}")
                continue
            outside_before = _excise(original,
                                     [el.src_span for el in before])
            outside_after = _excise(resolved, [el.src_span for el in after])
            if outside_before != outside_after:
                failures.append(
                    f"page {page_index}: bytes outside src spans changed")
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    verdict(10, "rewrites touch only the replaced src spans", failures)
    assert not failures, failures[:5]


# -- 11: content sovereignty -------------------------------------------------

class RecordingFirstPartyClient:
    """Captures every byte handed to the first party."""

    def __init__(self, inner):
        self.inner = inner
        self.payloads: list[bytes] = []

    def upload_photo(self, album_id, item, caption):
        self.payloads.append(album_id.encode() + item.data +
                             caption.encode())
        return self.inner.upload_photo(album_id, item, caption)

    def page_url(self, album_id):
        return self.inner.page_url(album_id)


def test_criterion_11_content_sovereignty(verdict):
    failures = []
    try:
        w = World()
        recorder = RecordingFirstPartyClient(w.client)
        original = png_item(1111, edge=128)
        receipt = write_path(original, "the real one", w.album, w.store,
                             recorder)
        if not recorder.payloads:
            failures.append("no first-party request was recorded")
        for payload in recorder.payloads:
            if original.data in payload:
                failures.append(
                    "original image bytes crossed the first-party "
                    "boundary")
        fetched = w.fetcher.fetch(receipt.offsite_locator)
        if fetched.data != original.data:
            failures.append("off-site object is not byte-identical to "
                            "the original")
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    verdict(11, "originals never touch the first party; off-site copy "
               "exact", failures)
    assert not failures, failures[:5]
