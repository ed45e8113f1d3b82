"""Write/read orchestration: content out to the store, schemata in its place.

The write path uploads real bytes off-site, encodes the object's locator
into a QR pseudo-image whose edge every reader accepts (`filter.MIN_EDGE`
to `filter.MAX_EDGE`), places that on the first party, and records the
mapping; it names the object itself, so it draws the stand-in while the
upload is in flight. The first-party client is `FirstPartyService` itself
in process, or `HttpFirstPartyClient` over HTTP (defined in `firstparty`,
beside the server, and re-exported here); either answers a photo's path,
and the write path alone joins it to the client's `base_url`. The read path walks
page elements the other way: filter gate, cache lookup, pseudo fetch,
decode, off-site fetch. A page's fetches run at once on a shared fan-out
pool, so a page costs about one network round trip, not one per element;
the pool threads only fetch. The thread that resolves the page takes
every stand-in that has arrived, reads, decodes and records them back to
back, and only then starts their off-site fetches: a fetch started
between two decodes wakes a pool thread that takes the interpreter lock
from the next one. One decode gate serves the whole process, so the
memory held by PNG reads in flight is bounded however many pages resolve
at once. A fetched object's media type is its host's Content-Type as sent,
over HTTP and in process alike, so inlining decides the same on both.
"""

from __future__ import annotations

import base64
import re
import threading
from concurrent.futures import (FIRST_COMPLETED, Future, ThreadPoolExecutor,
                                wait)
from dataclasses import dataclass
from urllib.parse import urljoin

from . import codec, rewriter
from ._http import MAX_IDLE_PER_HOST, ConnectionPool, HttpError
from .cache import MappingEntry, MappingsCache
from .filter import (MAX_EDGE, MIN_EDGE, ElementDescriptor, FilterConfig,
                     is_candidate, make_caption)
from .firstparty import (FirstPartyError, FirstPartyService,
                         HttpFirstPartyClient)  # re-exported
from .locator import InvalidPayload, validate_locator
from .store import ContentItem, ObjectExists, secure_id

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
    """A fetch that got no content: `status` is the HTTP status the host
    answered, or None when no response came back."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


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
            raise FetchError(f"GET {url} -> {resp.status}", resp.status)
        return ContentItem(data=resp.body, media_type=resp.content_type)

    def close(self) -> None:
        """Close the kept-alive connections."""
        self._pool.close()


class InProcessFetcher:
    """Routes URLs to in-process components without sockets.

    A URL under a registered provider's base goes to that provider, and
    one under the first party's base through `FirstPartyService.get`, the
    route the HTTP first party serves, so both give the same bytes, media
    type and misses. A URL under no host's base is a miss. Useful for
    tight latency measurements where socket noise is unwanted.
    """

    def __init__(self, firstparty: FirstPartyService | None = None,
                 providers=()):
        self.routes = [(p.base_url + "/", p.fetch) for p in providers]
        if firstparty is not None:
            self.routes.append((firstparty.base_url + "/", firstparty.get))

    def fetch(self, url: str) -> ContentItem:
        for base, route in self.routes:
            if url.startswith(base):
                try:
                    return route(url)
                except Exception as exc:
                    raise FetchError(str(exc)) from None
        raise FetchError(f"no route for {url!r}")


# -- write path -------------------------------------------------------------

def _photo_locator(base_url: str, path: str) -> str:
    """A placed photo's locator: the path the first party answered, which
    must start with '/', under its client's base URL."""
    try:
        if path.startswith("/"):
            return validate_locator(base_url + path)
    except InvalidPayload:
        pass
    raise FirstPartyError(f"first party answered a bad photo path {path!r}")


def _discard(provider, locator: str) -> None:
    try:
        provider.delete(locator)
    except Exception:
        pass  # cleanup is best-effort; the original error wins


def _store_and_draw(image: ContentItem, provider, qr_config: codec.QrConfig,
                    oid: str | None = None) -> tuple[str, bytes]:
    """Upload `image` under `oid` (or a fresh id) and draw its stand-in
    while the bytes are in flight; returns the locator and the stand-in's
    PNG. After a failed encode or confirmation the object is deleted, but
    not after ObjectExists: that object is someone else's."""
    locator, confirm = provider.begin_upload(image, oid)
    try:
        try:
            png = codec.encode_qr(codec.IndirectionPayload(locator=locator),
                                  qr_config).to_png()
        finally:
            confirm()
    except ObjectExists:
        raise
    except Exception:
        _discard(provider, locator)
        raise
    return locator, png


def write_path(image: ContentItem, caption: str | None, album_id: str,
               offsite_provider, firstparty_client,
               qr_config: codec.QrConfig | None = None,
               cache: MappingsCache | None = None) -> WriteReceipt:
    """Intercept content: store it off-site, place a schema first-party.

    The original bytes never reach the first party. `begin_upload` names
    the off-site locator as the upload starts, so the stand-in is encoded
    and written to PNG (about 0.6 ms) while the store takes the bytes (its
    12 ms delay, over HTTP); the first-party post waits for the store's
    confirmation. When the encode or the confirmation fails, or the first
    party refuses the stand-in, the off-site object is deleted (best
    effort) and nothing more is posted. An id the store says is taken is
    someone else's object and stays; the upload and the stand-in are
    retried once under a `secure_id`, off the seeded stream, so a seeded
    writer whose ids a store already holds still publishes. A
    `target_size` outside the filter's edges fails before the upload. The
    pseudo-locator is `firstparty_client.base_url` + the photo path the
    first party answers; a path that does not start with '/', or that
    joins into no valid locator, fails the write.
    """
    image.validate()
    qr_config = qr_config or codec.QrConfig()
    if not MIN_EDGE <= qr_config.target_size <= MAX_EDGE:
        raise ValueError(f"target_size {qr_config.target_size} is outside "
                         f"the stand-in edges {MIN_EDGE}-{MAX_EDGE}")
    try:
        offsite_locator, png = _store_and_draw(image, offsite_provider,
                                               qr_config)
    except ObjectExists:
        offsite_locator, png = _store_and_draw(image, offsite_provider,
                                               qr_config, secure_id())
    try:
        photo_id, path = firstparty_client.upload_photo(
            album_id, ContentItem(data=png, media_type="image/png"),
            make_caption(caption))
        pseudo_locator = _photo_locator(firstparty_client.base_url, path)
    except Exception:
        _discard(offsite_provider, offsite_locator)
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


def _decode(e: ElementDescriptor, fetched: Future) -> Resolution | str:
    """The off-site locator in a fetched stand-in, or its final Resolution."""
    try:
        data = fetched.result().data
    except FetchError as exc:
        return Resolution(e, OUTCOME_FAILED, reason=str(exc))
    with _decode_gate:
        try:
            image = codec.PseudoImage.from_png(data, max_edge=MAX_EDGE)
        except codec.PNGTooLarge:
            return Resolution(e, OUTCOME_NOT_INDIRECTION,
                              reason=f"pseudo-image edge above {MAX_EDGE}")
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
    cost about one round trip. The calling thread works in batches: it
    waits for at least one stand-in, reads, decodes and records every one
    that has arrived, in element order, each under the process-wide gate
    of 8, and then submits their off-site fetches; a cache hit goes
    straight to its off-site fetch. A stand-in whose PNG header declares
    an edge above `MAX_EDGE` is refused before its pixels are
    inflated, whatever the page's width and height attributes said. No
    fetch outlives the call, even when it raises.
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
        waiting = set(pseudo)
        while waiting:
            arrived, waiting = wait(waiting, return_when=FIRST_COMPLETED)
            located = []
            for fut in sorted(arrived, key=pseudo.get):
                i = pseudo[fut]
                found = _decode(elements[i], fut)
                if isinstance(found, Resolution):
                    results[i] = found
                    continue
                cache.record_resolved(MappingEntry(
                    pseudo_locator=elements[i].source_url,
                    offsite_locator=found, hit_count=1))
                located.append((i, found))
            for i, found in located:
                offsite[submit(fetcher.fetch, found)] = (i, VIA_DECODED,
                                                         found)
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
