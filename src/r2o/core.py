"""Write/read orchestration: content out to the store, schemata in its place.

The write path uploads real bytes off-site, encodes the returned locator
into a QR pseudo-image, places that on the first party, and records the
mapping. The read path walks page elements the other way: filter gate,
cache lookup, pseudo fetch, decode, off-site fetch. A page's fetches run
at once on a shared fan-out pool, so a page costs about one network round
trip, not one per element; the pool threads only fetch. The thread
that resolves the page decodes each stand-in as its bytes arrive and
starts that element's off-site fetch at once. One decode gate serves the
whole process, so the memory held by PNG reads in flight is bounded
however many pages resolve at once.
"""

from __future__ import annotations

import base64
import re
import threading
from concurrent.futures import Future, ThreadPoolExecutor, as_completed, wait
from dataclasses import dataclass
from urllib.parse import urljoin

from . import codec, rewriter
from ._http import MAX_IDLE_PER_HOST, ConnectionPool, HttpError
from .cache import MappingEntry, MappingsCache
from .filter import ElementDescriptor, FilterConfig, is_candidate, make_caption
from .firstparty import FirstPartyError, FirstPartyService, album_page_path
from .store import ContentItem

OUTCOME_REPLACED = "replaced"
OUTCOME_NOT_INDIRECTION = "not_indirection"
OUTCOME_FAILED = "failed"

VIA_CACHE_HIT = "cache_hit"
VIA_DECODED = "decoded"

# an inline data: URL carries only `image/` plus an RFC 9110 token
_INLINE_MEDIA_TYPE = re.compile(r"image/[!#$%&'*+\-.^_`|~0-9A-Za-z]+",
                                re.IGNORECASE)


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

    def __init__(self):
        self._pool = ConnectionPool()

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
            if url.startswith(provider.base_url + "/"):
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

    base_url = "http://firstparty.invalid"

    def __init__(self, service: FirstPartyService):
        self.service = service

    def upload_photo(self, album_id: str, item: ContentItem,
                     caption: str) -> tuple[str, str]:
        photo_id, static_url = self.service.upload_photo(album_id, item,
                                                         caption)
        return photo_id, self.base_url + static_url

    def page_url(self, album_id: str) -> str:
        return self.base_url + album_page_path(album_id)


class HttpFirstPartyClient:
    """Write-side adapter speaking the /fp HTTP API."""

    def __init__(self, base_url: str):
        self.base_url = base_url.rstrip("/")
        self._pool = ConnectionPool()

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
               cache: MappingsCache | None = None) -> WriteReceipt:
    """Intercept content: store it off-site, place a schema first-party.

    The original bytes never reach the first party; on failure after the
    off-site upload, the orphaned object is deleted.
    """
    image.validate()
    offsite_locator = offsite_provider.upload(image)
    try:
        pseudo = codec.encode_qr(
            codec.IndirectionPayload(locator=offsite_locator),
            qr_config or codec.QrConfig())
        photo_id, pseudo_locator = firstparty_client.upload_photo(
            album_id,
            ContentItem(data=pseudo.to_png(), media_type="image/png"),
            make_caption(caption))
    except Exception:
        try:
            offsite_provider.delete(offsite_locator)
        except Exception:
            pass  # cleanup is best-effort; the original error wins
        raise
    if cache is not None:
        cache.record_created(MappingEntry(
            pseudo_locator=pseudo_locator, offsite_locator=offsite_locator))
    return WriteReceipt(offsite_locator=offsite_locator,
                        pseudo_locator=pseudo_locator,
                        photo_id=photo_id, album_id=album_id)


# -- read path --------------------------------------------------------------

# fan-out threads shared by every page view, each started on a submit that
# finds none idle, so a page view starts and joins no threads of its own;
# one per idle connection the HTTP layer keeps for a host
_io_pool = ThreadPoolExecutor(max_workers=MAX_IDLE_PER_HOST,
                              thread_name_prefix="r2o-io")

# PNG reads and decodes (the CPU stage) in flight across every page view
_DECODE_SLOTS = 8
_decode_gate = threading.BoundedSemaphore(_DECODE_SLOTS)


def _decode(e: ElementDescriptor, fetched: Future,
            max_edge: int) -> Resolution | str:
    """The off-site locator in a fetched stand-in, or its final Resolution."""
    try:
        data = fetched.result().data
    except FetchError as exc:
        return Resolution(e, OUTCOME_FAILED, reason=str(exc))
    with _decode_gate:
        try:
            image = codec.PseudoImage.from_png(data, max_edge=max_edge)
        except codec.PNGTooLarge:
            return Resolution(e, OUTCOME_NOT_INDIRECTION,
                              reason=f"pseudo-image edge above {max_edge}")
        except codec.PNGError:
            return Resolution(e, OUTCOME_NOT_INDIRECTION,
                              reason="not a PNG pseudo-object")
        try:
            return codec.decode_qr(image).locator
        except codec.NotAQrSymbol:
            return Resolution(e, OUTCOME_NOT_INDIRECTION,
                              reason="no symbol found")
        except codec.DecodeFailure as exc:
            return Resolution(e, OUTCOME_FAILED, reason=str(exc))


def read_path(elements, filter_cfg: FilterConfig | None, cache: MappingsCache,
              fetcher) -> list[Resolution]:
    """Resolve page elements to real content; order-preserving.

    Every fetch runs on the shared fan-out pool, so k independent elements
    cost about one round trip. The calling thread reads and decodes each
    stand-in as it arrives, under the process-wide gate of 8, and submits
    that element's off-site fetch at once; a cache hit goes straight to
    its off-site fetch. A stand-in whose PNG header declares an edge
    above `filter_cfg.max_edge` is refused before its pixels are inflated,
    whatever the page's width and height attributes said. No fetch
    outlives the call, even when it raises.
    """
    filter_cfg = filter_cfg or FilterConfig()
    elements = list(elements)
    results: list[Resolution | None] = [None] * len(elements)
    submit = _io_pool.submit
    pseudo: dict[Future, int] = {}
    offsite: dict[Future, tuple[int, str, str]] = {}  # index, via, locator
    try:
        for i, e in enumerate(elements):
            decision = is_candidate(e, filter_cfg)
            if not decision:
                results[i] = Resolution(e, OUTCOME_NOT_INDIRECTION,
                                        reason=decision.reason)
                continue
            cached = cache.lookup(e.source_url)
            if cached is None:
                pseudo[submit(fetcher.fetch, e.source_url)] = i
            else:
                offsite[submit(fetcher.fetch, cached)] = (i, VIA_CACHE_HIT,
                                                          cached)
        for fut in as_completed(pseudo):
            i = pseudo[fut]
            found = _decode(elements[i], fut, filter_cfg.max_edge)
            if isinstance(found, Resolution):
                results[i] = found
                continue
            cache.record_resolved(MappingEntry(
                pseudo_locator=elements[i].source_url,
                offsite_locator=found, hit_count=1))
            offsite[submit(fetcher.fetch, found)] = (i, VIA_DECODED, found)
        for fut, (i, via, locator) in offsite.items():
            try:
                results[i] = Resolution(elements[i], OUTCOME_REPLACED,
                                        via=via, content=fut.result(),
                                        offsite_locator=locator)
            except FetchError as exc:
                # a decoded mapping stays recorded: the lesson was learned
                # even if the fetch failed, so a retry skips the decode
                results[i] = Resolution(elements[i], OUTCOME_FAILED,
                                        reason=str(exc))
    finally:
        wait([*pseudo, *offsite])
    return results  # type: ignore[return-value]


def resolve_page(album_page_url: str, fetcher,
                 filter_cfg: FilterConfig | None = None,
                 cache: MappingsCache | None = None,
                 inline: bool = False) -> bytes:
    """Fetch a page, resolve its schemata, and rewrite their srcs.

    Elements resolve through `read_path`, under the process-wide decode
    gate. With inline=True the replacement src is a data: URL embedding the
    fetched bytes, and an element whose media type is not `image/<token>`
    keeps its src; otherwise it is the off-site locator. An element whose
    replacement would end its src value (a locator holding "'" in a
    single-quoted value) keeps its src too. Each rewrite checks that its
    span still holds the src that was scanned.
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
    resolutions = read_path(descriptors, filter_cfg, cache, fetcher)
    replacements = []
    for el, res in zip(scan, resolutions):
        if not res.replaced:
            continue
        if inline:
            media_type = res.content.media_type
            if not _INLINE_MEDIA_TYPE.fullmatch(media_type):
                continue
            payload = base64.b64encode(res.content.data).decode("ascii")
            new_src = f"data:{media_type};base64,{payload}"
        else:
            new_src = res.offsite_locator
        if rewriter.fits(el, new_src):
            replacements.append((el, new_src))
    return rewriter.rewrite_html(page.data, replacements)
