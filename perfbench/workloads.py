"""Inputs, set-up, operations and output checks of the three workloads.

Every input derives from the workload seed: the photos, their captions, the
order of photos on a page and the imported mapping blob. The program only
receives these generated inputs, through the public API of `r2o.core`,
`r2o.codec`, `r2o.store`, `r2o.firstparty` and `r2o.cache`.
"""

from __future__ import annotations

import json
import random
import struct
import subprocess
import sys
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from urllib import request as urlrequest

import numpy as np

HOSTS_PY = Path(__file__).resolve().parent / "hosts.py"

WORKLOADS = ("publish", "browse-cold", "browse-warm")
# simulated delays that block one operation, ms: the store's 12 ms
# (imgur) and the first party's 11 ms photo read (facebook_cdn)
FLOOR_MS = {"publish": 12.0, "browse-cold": 23.0, "browse-warm": 12.0}

PHOTO_EDGE = 210             # 210x210 random grey pixels: a 44 KB PNG
ALBUMS = 4                   # browse pages; 4 x 20 = 80 mappings in play
STANDINS_PER_PAGE = 20
ORDINARY_NONSQUARE = ((240, 180), (180, 240))
ORDINARY_SQUARE = 2          # square, but captioned without the marker
IMPORTED_MAPPINGS = 1024     # fills the recent segment (M = 1024)
PUBLISH_ALBUMS = 8
PUBLISH_POOL = 32            # distinct photos the publisher cycles through
PRIMED_CREATED = 256         # fills the frequent segment (N = 256)
VERIFY_THREADS = 8

_WORDS = ("harbour", "lantern", "meadow", "granite", "orchard", "tide",
          "ember", "juniper", "quarry", "saffron", "willow", "basalt",
          "heron", "cobalt", "thistle", "fjord")


class CheckFailed(Exception):
    """An operation's output differs from what the inputs determine."""


# -- generated inputs -------------------------------------------------------

def png_bytes(pixels: np.ndarray) -> bytes:
    """8-bit greyscale PNG, written here so inputs do not depend on r2o."""
    h, w = pixels.shape
    raw = b"".join(b"\x00" + row.tobytes() for row in pixels)

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + tag + data
                + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF))

    return (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(raw, 6))
            + chunk(b"IEND", b""))


@dataclass
class Photo:
    data: bytes
    caption: str
    standin: bool   # published with write_path, else posted as-is


@dataclass
class Inputs:
    pages: list[list[Photo]] = field(default_factory=list)
    publish_pool: list[Photo] = field(default_factory=list)
    mapping_blob: bytes = b""


def make_inputs(workload: str, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    pick = random.Random(seed)

    def caption() -> str:
        return " ".join(pick.choice(_WORDS) for _ in range(3))

    def photo(w: int, h: int, standin: bool) -> Photo:
        pixels = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        return Photo(png_bytes(pixels), caption(), standin)

    inputs = Inputs()
    if workload == "publish":
        inputs.publish_pool = [photo(PHOTO_EDGE, PHOTO_EDGE, True)
                               for _ in range(PUBLISH_POOL)]
        return inputs
    for _ in range(ALBUMS):
        page = [photo(PHOTO_EDGE, PHOTO_EDGE, True)
                for _ in range(STANDINS_PER_PAGE)]
        ordinary = [photo(w, h, False) for w, h in ORDINARY_NONSQUARE]
        ordinary += [photo(PHOTO_EDGE, PHOTO_EDGE, False)
                     for _ in range(ORDINARY_SQUARE)]
        for p in ordinary:
            page.insert(pick.randrange(len(page) + 1), p)
        inputs.pages.append(page)
    lines = ["r2o-map/1"]
    for _ in range(IMPORTED_MAPPINGS):
        lines.append(
            f"http://firstparty.invalid/fp/photos/{pick.getrandbits(64):016x}"
            f".png\thttp://imgur.offsite.invalid/v1/objects/"
            f"{pick.getrandbits(64):016x}\timage")
    inputs.mapping_blob = ("\n".join(lines) + "\n").encode()
    return inputs


# -- hosts process ----------------------------------------------------------

class Hosts:
    """The child process serving the first party and the off-site store."""

    def __init__(self, seed: int, trace: bool):
        self.proc = subprocess.Popen(
            [sys.executable, str(HOSTS_PY), "--seed", str(seed),
             "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            urls = json.loads(self.proc.stdout.readline() or "null")
            if not urls:
                raise RuntimeError("hosts process exited before listening")
            self.firstparty_url = urls["firstparty"]
            self.store_url = urls["store"]
        except BaseException:
            self.close()
            raise

    def reset(self) -> None:
        self.proc.stdin.write("reset\n")
        self.proc.stdin.flush()
        if self.proc.stdout.readline().strip() != "ok":
            raise RuntimeError("hosts process did not acknowledge reset")

    def dump(self) -> dict[str, list[list[float]]]:
        """The hosts' call records: [wall ms, CPU ms] per call, by name."""
        self.proc.stdin.write("dump\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline() or "null")

    def close(self) -> None:
        """Idempotent teardown for every exit path."""
        if self.proc.poll() is None:
            try:
                self.proc.communicate("stop\n", timeout=10)
            except (subprocess.TimeoutExpired, OSError, ValueError):
                self.proc.kill()
        self.proc.wait()


# -- set-up -----------------------------------------------------------------

@dataclass
class Page:
    url: str
    expected: bytes
    standin_srcs: tuple[bytes, ...]


@dataclass
class Published:
    receipt: object
    original: bytes


@dataclass
class Bench:
    """One set-up: running hosts, clients, and the workload's state."""

    workload: str
    hosts: Hosts
    fp: object
    store: object
    fetcher: object
    pages: list[Page] = field(default_factory=list)
    cache: object = None
    albums: list[str] = field(default_factory=list)


def _get(url: str) -> bytes:
    with urlrequest.urlopen(url, timeout=30) as resp:
        return resp.read()


def expected_page(raw: bytes, swaps: list[tuple[str, str]]) -> bytes:
    """The resolved page: each stand-in's src becomes its off-site locator.

    `swaps` pairs a stand-in's src as it appears in the page with its
    receipt's off-site locator; every other byte stays.
    """
    out = raw
    for src, locator in swaps:
        old = f'src="{src}"'.encode()
        if raw.count(old) != 1:
            raise CheckFailed(f"stand-in {src} is not on its page once")
        out = out.replace(old, f'src="{locator}"'.encode())
    return out


def set_up(workload: str, seed: int, inputs: Inputs, trace: bool) -> Bench:
    from r2o import cache, core, store
    from r2o.store import ContentItem

    hosts = Hosts(seed, trace)
    try:
        fp = core.HttpFirstPartyClient(hosts.firstparty_url)
        bench = Bench(workload, hosts, fp, store.HttpStoreClient(
            hosts.store_url, name="imgur"), core.HttpFetcher())
        if workload == "publish":
            bench.albums = [fp.create_album(f"publish {i}")
                            for i in range(PUBLISH_ALBUMS)]
            bench.cache = cache.MappingsCache()
            for i in range(PRIMED_CREATED):
                bench.cache.record_created(cache.MappingEntry(
                    pseudo_locator=f"{hosts.firstparty_url}/fp/photos/"
                                   f"{i:016x}.png",
                    offsite_locator=f"{hosts.store_url}/{i:016x}"))
            return bench
        for n, photos in enumerate(inputs.pages):
            album = fp.create_album(f"album {n}")
            swaps = []
            for p in photos:
                item = ContentItem(data=p.data, media_type="image/png")
                if p.standin:
                    receipt = core.write_path(item, p.caption, album,
                                              bench.store, fp)
                    swaps.append((receipt.pseudo_locator[len(fp.base_url):],
                                  receipt.offsite_locator))
                else:
                    fp.upload_photo(album, item, p.caption)
            url = fp.page_url(album)
            bench.pages.append(Page(
                url, expected_page(_get(url), swaps),
                tuple(f'src="{s}"'.encode() for s, _ in swaps)))
        if workload == "browse-warm":
            bench.cache = cache.MappingsCache()
            for page in bench.pages:
                check_page(core.resolve_page(page.url, bench.fetcher,
                                             cache=bench.cache), page)
        return bench
    except BaseException:
        hosts.close()
        raise


# -- operations -------------------------------------------------------------

def fresh_reader_cache(inputs: Inputs):
    """browse-cold's reader cache: full of other albums' mappings."""
    from r2o.cache import MappingsCache
    reader = MappingsCache()
    reader.import_mappings(inputs.mapping_blob)
    return reader


def publish_op(bench: Bench, inputs: Inputs, i: int) -> Published:
    from r2o import core
    from r2o.store import ContentItem
    p = inputs.publish_pool[i % len(inputs.publish_pool)]
    receipt = core.write_path(
        ContentItem(data=p.data, media_type="image/png"), p.caption,
        bench.albums[i % len(bench.albums)], bench.store, bench.fp,
        cache=bench.cache)
    return Published(receipt, p.data)


def browse_op(bench: Bench, page: Page, reader_cache) -> bytes:
    from r2o import core
    return core.resolve_page(page.url, bench.fetcher, cache=reader_cache)


# -- output checks ----------------------------------------------------------

def check_page(output: bytes, page: Page) -> None:
    """Raise CheckFailed unless `output` is exactly the expected rewrite."""
    if output == page.expected:
        return
    left = [s for s in page.standin_srcs if s in output]
    if left:
        raise CheckFailed(f"{len(left)} stand-in(s) not replaced")
    at = next((i for i, (a, b) in enumerate(zip(output, page.expected))
               if a != b), min(len(output), len(page.expected)))
    raise CheckFailed(f"page differs from the expected rewrite at byte {at}")


def check_published(pub: Published, pseudo_png: bytes,
                    offsite: bytes) -> None:
    """Raise CheckFailed unless the pseudo-image decodes to the off-site
    locator and the off-site object holds the original bytes."""
    from r2o import codec
    try:
        payload = codec.decode_qr(codec.PseudoImage.from_png(pseudo_png))
    except (codec.CodecError, codec.PNGError) as exc:
        raise CheckFailed(f"pseudo-image does not decode: {exc}") from None
    if payload.locator != pub.receipt.offsite_locator:
        raise CheckFailed("pseudo-image decodes to another locator")
    if offsite != pub.original:
        raise CheckFailed("off-site object differs from the original")


def verify_published(published: list[Published]) -> list[str]:
    """Fetch and check every publish; returns one reason per failure."""
    def one(pub: Published) -> str | None:
        try:
            check_published(pub, _get(pub.receipt.pseudo_locator),
                            _get(pub.receipt.offsite_locator))
        except CheckFailed as exc:
            return str(exc)
        except OSError as exc:
            return f"fetch failed: {exc}"
        return None

    with ThreadPoolExecutor(max_workers=VERIFY_THREADS) as pool:
        return [r for r in pool.map(one, published) if r is not None]
