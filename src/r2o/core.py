"""Write/read orchestration: content out to the store, schemata in its place.

The write path uploads real bytes off-site, encodes the returned locator
into a QR pseudo-image, places that on the first party, and records the
mapping. The read path walks page elements the other way: filter gate,
cache lookup, pseudo fetch, decode, off-site fetch. Candidate elements are
resolved concurrently; the decode stage is bounded separately from IO
fan-out so a page costs about one network round trip, not one per element.
"""

from __future__ import annotations

import base64
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from urllib.parse import urljoin

from . import codec, rewriter
from ._http import ConnectionPool, HttpError
from .cache import MappingEntry, MappingsCache
from .filter import ElementDescriptor, FilterConfig, is_candidate, make_caption
from .firstparty import FirstPartyError, FirstPartyService, album_page_path
from .store import ContentItem

DEFAULT_PARALLELISM = 8
_IO_FANOUT_MAX = 64

OUTCOME_REPLACED = "replaced"
OUTCOME_NOT_INDIRECTION = "not_indirection"
OUTCOME_FAILED = "failed"

VIA_CACHE_HIT = "cache_hit"
VIA_DECODED = "decoded"


class CoreError(Exception):
    pass


class FetchError(CoreError):
    pass


class PageUnreachable(CoreError):
    pass


@dataclass(frozen=True)
class WriteReceipt:
    offsite_locator: str
    pseudo_locator: str
    photo_id: str
    album_id: str


@dataclass
class Resolution:
    element: ElementDescriptor
    outcome: str  # replaced | not_indirection | failed
    via: str | None = None  # cache_hit | decoded, when replaced
    content: ContentItem | None = None
    offsite_locator: str | None = None
    reason: str | None = None

    @property
    def replaced(self) -> bool:
        return self.outcome == OUTCOME_REPLACED


# -- fetchers ---------------------------------------------------------------

class HttpFetcher:
    """GET over kept-alive sockets; the normal fetcher for served pages."""

    def __init__(self, timeout: float = 10.0):
        self._pool = ConnectionPool(timeout)

    def fetch(self, url: str) -> ContentItem:
        try:
            resp = self._pool.request("GET", url)
        except HttpError as exc:
            raise FetchError(f"GET {url} failed: {exc}") from None
        if resp.status != 200:
            raise FetchError(f"GET {url} -> {resp.status}")
        return ContentItem(data=resp.body,
                           media_type=resp.content_type.split(";")[0])

    def close(self) -> None:
        """Close the kept-alive connections."""
        self._pool.close()


class InProcessFetcher:
    """Routes URLs to in-process components without sockets.

    A locator under a registered provider's base goes to that provider; any
    other URL goes through `FirstPartyService.get`, the route the HTTP first
    party serves, so both give the same bytes, media type and misses.
    Useful for tight latency measurements where socket noise is unwanted.
    """

    def __init__(self, firstparty: FirstPartyService | None = None,
                 providers=()):
        self.firstparty = firstparty
        self.providers = list(providers)

    def fetch(self, url: str) -> ContentItem:
        for provider in self.providers:
            if url.startswith(provider.descriptor.base_url + "/"):
                try:
                    return provider.fetch(url)
                except Exception as exc:
                    raise FetchError(str(exc)) from None
        if self.firstparty is None:
            raise FetchError(f"no route for {url!r}")
        try:
            return self.firstparty.get(url)
        except FirstPartyError as exc:
            raise FetchError(str(exc)) from None


# -- first-party clients ----------------------------------------------------

class InProcessFirstPartyClient:
    """Write-side adapter over a FirstPartyService instance."""

    def __init__(self, service: FirstPartyService,
                 base_url: str = "http://firstparty.invalid"):
        self.service = service
        self.base_url = base_url.rstrip("/")

    def upload_photo(self, album_id: str, item: ContentItem,
                     caption: str) -> tuple[str, str]:
        photo_id, static_url = self.service.upload_photo(album_id, item,
                                                         caption)
        return photo_id, self.base_url + static_url

    def page_url(self, album_id: str) -> str:
        return self.base_url + album_page_path(album_id)


class HttpFirstPartyClient:
    """Write-side adapter speaking the /fp HTTP API."""

    def __init__(self, base_url: str, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self._pool = ConnectionPool(timeout)

    def _post(self, path: str, body: bytes,
              headers: dict[str, str]) -> bytes:
        try:
            resp = self._pool.request("POST", self.base_url + path,
                                      body=body, headers=headers)
        except HttpError as exc:
            raise FetchError(f"POST {path} failed: {exc}") from None
        if not 200 <= resp.status < 300:
            raise FetchError(f"POST {path} -> {resp.status}")
        return resp.body

    def close(self) -> None:
        """Close the kept-alive connections."""
        self._pool.close()

    def create_album(self, title: str) -> str:
        return self._post("/fp/albums", title.encode("utf-8"),
                          {}).decode().strip()

    def upload_photo(self, album_id: str, item: ContentItem,
                     caption: str) -> tuple[str, str]:
        body = self._post(f"/fp/albums/{album_id}/photos", item.data,
                          {"Content-Type": item.media_type,
                           "X-Caption": caption})
        photo_id, static_url = body.decode().splitlines()[:2]
        return photo_id, self.base_url + static_url

    def page_url(self, album_id: str) -> str:
        return self.base_url + album_page_path(album_id)


# -- write path -------------------------------------------------------------

def write_path(image: ContentItem, caption: str | None, album_id: str,
               offsite_provider, firstparty_client,
               qr_config: codec.QrConfig | None = None,
               cache: MappingsCache | None = None,
               filter_cfg: FilterConfig | None = None) -> WriteReceipt:
    """Intercept content: store it off-site, place a schema first-party.

    The original bytes never reach the first party; on failure after the
    off-site upload, the orphaned object is deleted.
    """
    image.validate()
    filter_cfg = filter_cfg or FilterConfig()
    offsite_locator = offsite_provider.upload(image)
    try:
        pseudo = codec.encode_qr(
            codec.IndirectionPayload(locator=offsite_locator),
            qr_config or codec.QrConfig())
        full_caption = make_caption(caption, filter_cfg)
        photo_id, pseudo_locator = firstparty_client.upload_photo(
            album_id,
            ContentItem(data=pseudo.to_png(), media_type="image/png"),
            full_caption)
    except Exception:
        try:
            offsite_provider.delete(offsite_locator)
        except Exception:
            pass  # cleanup is best-effort; the original error wins
        raise
    if cache is not None:
        cache.record_created(MappingEntry(
            pseudo_locator=pseudo_locator, offsite_locator=offsite_locator,
            media_class=codec.MEDIA_IMAGE))
    return WriteReceipt(offsite_locator=offsite_locator,
                        pseudo_locator=pseudo_locator,
                        photo_id=photo_id, album_id=album_id)


# -- read path --------------------------------------------------------------

# fan-out threads shared by every page view and created on first use, so a
# page view starts and joins no threads of its own
_io_pool: ThreadPoolExecutor | None = None
_io_pool_lock = threading.Lock()


def _io_executor() -> ThreadPoolExecutor:
    global _io_pool
    with _io_pool_lock:
        if _io_pool is None:
            _io_pool = ThreadPoolExecutor(max_workers=_IO_FANOUT_MAX,
                                          thread_name_prefix="r2o-io")
        return _io_pool


def _resolve_one(e: ElementDescriptor, cache: MappingsCache, fetcher,
                 decode_gate: threading.Semaphore) -> Resolution:
    cached = cache.lookup(e.source_url)
    if cached is not None:
        try:
            content = fetcher.fetch(cached)
        except FetchError as exc:
            return Resolution(e, OUTCOME_FAILED, reason=str(exc))
        return Resolution(e, OUTCOME_REPLACED, via=VIA_CACHE_HIT,
                          content=content, offsite_locator=cached)

    try:
        pseudo_item = fetcher.fetch(e.source_url)
    except FetchError as exc:
        return Resolution(e, OUTCOME_FAILED, reason=str(exc))
    with decode_gate:
        try:
            image = codec.PseudoImage.from_png(pseudo_item.data)
        except codec.PNGError:
            return Resolution(e, OUTCOME_NOT_INDIRECTION,
                              reason="not a PNG pseudo-object")
        try:
            payload = codec.decode_qr(image)
        except codec.NotAQrSymbol:
            return Resolution(e, OUTCOME_NOT_INDIRECTION,
                              reason="no symbol found")
        except codec.DecodeFailure as exc:
            return Resolution(e, OUTCOME_FAILED, reason=str(exc))
    cache.record_resolved(MappingEntry(
        pseudo_locator=e.source_url, offsite_locator=payload.locator,
        media_class=payload.media_class, hit_count=1))
    try:
        content = fetcher.fetch(payload.locator)
    except FetchError as exc:
        # the mapping stays recorded: the lesson was learned even if the
        # fetch failed, so a retry skips the decode
        return Resolution(e, OUTCOME_FAILED, reason=str(exc))
    return Resolution(e, OUTCOME_REPLACED, via=VIA_DECODED, content=content,
                      offsite_locator=payload.locator)


def read_path(elements, filter_cfg: FilterConfig | None, cache: MappingsCache,
              fetcher, parallelism: int = DEFAULT_PARALLELISM) -> list[Resolution]:
    """Resolve page elements to real content; order-preserving.

    `parallelism` bounds concurrent PNG reads and decodes (the CPU stage);
    network fetches for distinct elements overlap freely up to an internal
    fan-out cap, so k independent elements cost about one round trip.
    """
    filter_cfg = filter_cfg or FilterConfig()
    elements = list(elements)
    results: list[Resolution | None] = [None] * len(elements)
    candidates: list[int] = []
    for i, e in enumerate(elements):
        decision = is_candidate(e, filter_cfg)
        if decision:
            candidates.append(i)
        else:
            results[i] = Resolution(e, OUTCOME_NOT_INDIRECTION,
                                    reason=decision.reason)
    if candidates:
        gate = threading.Semaphore(max(1, parallelism))
        pool = _io_executor()
        futures = {i: pool.submit(_resolve_one, elements[i], cache, fetcher,
                                  gate)
                   for i in candidates}
        wait(futures.values())  # no element outlives the call, even on error
        for i, fut in futures.items():
            results[i] = fut.result()
    return results  # type: ignore[return-value]


def resolve_page(album_page_url: str, fetcher,
                 filter_cfg: FilterConfig | None = None,
                 cache: MappingsCache | None = None,
                 parallelism: int = DEFAULT_PARALLELISM,
                 inline: bool = False) -> bytes:
    """Fetch a page, resolve its schemata, and rewrite their srcs.

    With inline=True the replacement src is a data: URL embedding the
    fetched bytes; otherwise it is the off-site locator.
    """
    cache = cache if cache is not None else MappingsCache()
    try:
        page = fetcher.fetch(album_page_url)
    except FetchError as exc:
        raise PageUnreachable(str(exc)) from None
    scan = rewriter.scan_html(page.data)
    descriptors = []
    for el in scan:
        d = el.descriptor
        absolute = urljoin(album_page_url, d.source_url)
        descriptors.append(ElementDescriptor(
            source_url=absolute, width=d.width, height=d.height,
            media_subtype=d.media_subtype, caption=d.caption))
    resolutions = read_path(descriptors, filter_cfg, cache, fetcher,
                            parallelism)
    replacements = []
    for el, res in zip(scan, resolutions):
        if not res.replaced:
            continue
        if inline:
            payload = base64.b64encode(res.content.data).decode("ascii")
            new_src = f"data:{res.content.media_type};base64,{payload}"
        else:
            new_src = res.offsite_locator
        replacements.append((el.src_span, new_src,
                             el.descriptor.source_url))
    return rewriter.rewrite_html(page.data, replacements)
