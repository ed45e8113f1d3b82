"""Simulated first-party social service: albums, photos, captions.

Stands in for the social service hosting pseudo-objects, and holds its
`/fp` protocol whole: the service, its server and its HTTP client, as
`store` holds a store's. Photos are PNG-only and pages render
deterministically. Ids are `store.ID_PATTERN`'s on every route and in
every answer the client takes. An optional response delay on static
photo reads lets the simulator play the CDN row of the latency table. The
service is its own in-process client, under a private `.invalid` base
that no reader can reach; `serve_firstparty` puts it behind a URL.
"""

from __future__ import annotations

import html
import re
import threading
import time
from dataclasses import dataclass, field
from urllib.parse import urlsplit

from ._http import ConnectionPool, Handler, HttpError, Server
from .pngheader import PNGError, read_ihdr
# `seed_ids` is re-exported: one seeded stream mints every host's ids
from .store import ID_PATTERN, LATENCY_PRESETS, ContentItem, fresh_id, seed_ids

ALBUMS_PATH = "/fp/albums"
PHOTO_PATH_PREFIX = "/fp/photos/"
DEFAULT_RESPONSE_DELAY_MS = float(LATENCY_PRESETS["facebook_cdn"])


def album_page_path(album_id: str) -> str:
    """The path of an album's rendered page."""
    return f"{ALBUMS_PATH}/{album_id}/page"


def upload_path(album_id: str) -> str:
    """The path a photo is posted to, to join an album."""
    return f"{ALBUMS_PATH}/{album_id}/photos"


def photo_path(photo_id: str) -> str:
    """The path a photo is served at."""
    return f"{PHOTO_PATH_PREFIX}{photo_id}.png"


def _route(path_of) -> re.Pattern:
    """The paths `path_of` builds, for any id, with the id captured."""
    head, tail = path_of("\0").split("\0")
    return re.compile(f"{re.escape(head)}({ID_PATTERN.pattern})"
                      f"{re.escape(tail)}")


_PHOTO_PATH_RE = _route(photo_path)
_PAGE_PATH_RE = _route(album_page_path)
_UPLOAD_PATH_RE = _route(upload_path)


class FirstPartyError(Exception):
    pass


class FirstPartyUnavailable(FirstPartyError):
    pass


class AlbumNotFound(FirstPartyError):
    pass


class PhotoNotFound(FirstPartyError):
    pass


class UnsupportedMediaType(FirstPartyError):
    pass


@dataclass
class PhotoObject:
    photo_id: str
    image: ContentItem
    caption: str
    static_url: str
    width: int
    height: int


@dataclass
class Album:
    album_id: str
    title: str
    photo_ids: list[str] = field(default_factory=list)


class FirstPartyService:
    """In-process service core; the HTTP layer is a thin adapter over it.

    It is also its own client: `upload_photo` answers a photo's path, and
    `base_url + path` is its locator, which `InProcessFetcher` routes here.
    """

    base_url = "http://firstparty.invalid"

    def __init__(self, response_delay_ms: float | None = DEFAULT_RESPONSE_DELAY_MS):
        if response_delay_ms is not None and response_delay_ms < 0:
            raise ValueError("response_delay_ms must be >= 0")
        self.response_delay_ms = response_delay_ms or 0.0
        self._albums: dict[str, Album] = {}
        self._photos: dict[str, PhotoObject] = {}
        self._lock = threading.RLock()

    # -- albums ------------------------------------------------------------

    def create_album(self, title: str) -> str:
        with self._lock:
            album_id = fresh_id(self._albums.__contains__)
            self._albums[album_id] = Album(album_id=album_id, title=title)
            return album_id

    # -- photos ------------------------------------------------------------

    def upload_photo(self, album_id: str, image: ContentItem,
                     caption: str = "") -> tuple[str, str]:
        image.validate()
        if image.media_type != "image/png":
            raise UnsupportedMediaType(
                f"photos must be image/png, got {image.media_type!r}")
        try:
            width, height = read_ihdr(image.data)[:2]
        except PNGError as exc:
            raise UnsupportedMediaType(f"not a PNG stream: {exc}") from None
        with self._lock:
            album = self._albums.get(album_id)
            if album is None:
                raise AlbumNotFound(album_id)
            photo_id = fresh_id(self._photos.__contains__)
            static_url = photo_path(photo_id)
            self._photos[photo_id] = PhotoObject(
                photo_id=photo_id,
                image=ContentItem(data=bytes(image.data),
                                  media_type="image/png"),
                caption=caption, static_url=static_url,
                width=width, height=height)
            album.photo_ids.append(photo_id)
            return photo_id, static_url

    def page_url(self, album_id: str) -> str:
        return self.base_url + album_page_path(album_id)

    def get_photo(self, photo_id: str) -> PhotoObject:
        with self._lock:
            photo = self._photos.get(photo_id)
            if photo is None:
                raise PhotoNotFound(photo_id)
            return photo

    def get_photo_bytes(self, photo_id: str) -> bytes:
        """Static-content read; carries the simulated response delay."""
        photo = self.get_photo(photo_id)
        if self.response_delay_ms:
            time.sleep(self.response_delay_ms / 1000.0)
        return photo.image.data

    def photo_id_from_path(self, path: str) -> str:
        m = _PHOTO_PATH_RE.fullmatch(path)
        if m is None:
            raise PhotoNotFound(path)
        return m.group(1)

    def get(self, url: str) -> ContentItem:
        """The one GET route, for the HTTP server and in-process reads alike.

        Serves a photo or an album page; the path of `url` must match
        exactly, and its query is ignored. Any other path, or an unknown
        id, raises AlbumNotFound or PhotoNotFound.
        """
        path = urlsplit(url).path
        page = _PAGE_PATH_RE.fullmatch(path)
        if page is not None:
            doc = self.render_album_page(page.group(1))
            return ContentItem(data=doc.encode("utf-8"),
                               media_type="text/html")
        photo_id = self.photo_id_from_path(path)
        return ContentItem(data=self.get_photo_bytes(photo_id),
                           media_type="image/png")

    # -- rendering ---------------------------------------------------------

    def render_album_page(self, album_id: str) -> str:
        with self._lock:
            album = self._albums.get(album_id)
            if album is None:
                raise AlbumNotFound(album_id)
            photos = [self._photos[pid] for pid in album.photo_ids]
            title = html.escape(album.title)
            parts = [
                "<!DOCTYPE html>",
                '<html><head><meta charset="utf-8">'
                f"<title>{title}</title></head>",
                "<body>",
                f"<h1>{title}</h1>",
            ]
            for p in photos:
                parts.append(f'  <figure class="photo" id="photo-{p.photo_id}">')
                parts.append(
                    f'    <img src="{p.static_url}" width="{p.width}" '
                    f'height="{p.height}" alt="">')
                parts.append(
                    f"    <figcaption>{html.escape(p.caption)}</figcaption>")
                parts.append("  </figure>")
            parts.append("</body></html>")
            return "\n".join(parts) + "\n"


class _FirstPartyHandler(Handler):
    server_version = "r2o-fp/1"

    def do_POST(self):
        svc = self.server.backing
        body = self._body()
        if body is None:
            return
        try:
            if self.path == ALBUMS_PATH:
                album_id = svc.create_album(body.decode("utf-8"))
                self._reply(201, (album_id + "\n").encode())
                return
            m = _UPLOAD_PATH_RE.fullmatch(self.path)
            if m:
                caption = self.headers.get("x-caption", "")
                item = ContentItem(data=body, media_type="image/png")
                photo_id, static_url = svc.upload_photo(m.group(1), item,
                                                        caption)
                self._reply(201, f"{photo_id}\n{static_url}\n".encode())
                return
            self._reply(404, b"unknown path\n")
        except (AlbumNotFound, PhotoNotFound):
            self._reply(404, b"not found\n")
        except UnsupportedMediaType:
            self._reply(415, b"unsupported media type\n")
        except UnicodeDecodeError:
            self._reply(400, b"body is not UTF-8\n")

    def do_GET(self):
        try:
            item = self.server.backing.get(self.path)
        except (AlbumNotFound, PhotoNotFound):
            self._reply(404, b"not found\n")
            return
        self._reply(200, item.data, content_type=item.media_type)


def serve_firstparty(bind_address: tuple[str, int],
                     service: FirstPartyService | None = None) -> Server:
    """Serve the /fp API over HTTP, backed by `service` or a fresh one."""
    return Server(bind_address, _FirstPartyHandler, "",
                  service or FirstPartyService())


class HttpFirstPartyClient:
    """Client side of the /fp API, over keep-alive connections."""

    def __init__(self, base_url: str):
        self.base_url = base_url.rstrip("/")
        self._pool = ConnectionPool()

    def _post(self, path: str, body: bytes,
              headers: dict[str, str]) -> tuple[str, str]:
        """(the answered id, the rest of the answer); refuses a bad id."""
        try:
            resp = self._pool.request("POST", self.base_url + path,
                                      body=body, headers=headers)
        except HttpError as exc:
            raise FirstPartyUnavailable(f"POST {path} failed: {exc}") from None
        if not 200 <= resp.status < 300:
            raise FirstPartyUnavailable(f"POST {path} -> {resp.status}")
        text = resp.body.decode("ascii", "replace")
        answered, _, rest = text.partition("\n")
        if not ID_PATTERN.fullmatch(answered):
            raise FirstPartyUnavailable(
                f"POST {path} answered a bad id {answered!r}")
        return answered, rest.strip()

    def close(self) -> None:
        """Close the kept-alive connections."""
        self._pool.close()

    def create_album(self, title: str) -> str:
        return self._post(ALBUMS_PATH, title.encode("utf-8"), {})[0]

    def upload_photo(self, album_id: str, item: ContentItem,
                     caption: str) -> tuple[str, str]:
        """(photo id, photo path), as the service answers them."""
        return self._post(upload_path(album_id), item.data,
                          {"Content-Type": item.media_type,
                           "X-Caption": caption})

    def page_url(self, album_id: str) -> str:
        return self.base_url + album_page_path(album_id)
