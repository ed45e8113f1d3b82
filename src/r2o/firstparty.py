"""Simulated first-party social service: albums, photos, comments.

Stands in for the social service hosting pseudo-objects. Photos are
PNG-only, pages render deterministically, and comments can carry preview
links to the off-site original. An optional response delay on static photo
reads lets the simulator play the CDN row of the latency table.
"""

from __future__ import annotations

import html
import random
import re
import secrets
import threading
import time
from dataclasses import dataclass, field
from urllib.parse import urlsplit

from ._http import Handler, Server, serve
from .store import ContentItem

PHOTO_PATH_PREFIX = "/fp/photos/"
DEFAULT_RESPONSE_DELAY_MS = 11.0  # plays the "facebook_cdn" latency preset

_URL_RE = re.compile(r"https?://\S+")


def album_page_path(album_id: str) -> str:
    """The path of an album's rendered page."""
    return f"/fp/albums/{album_id}/page"


_PHOTO_PATH_RE = re.compile(PHOTO_PATH_PREFIX + r"([0-9a-f]+)\.png")
_PAGE_PATH_RE = re.compile(album_page_path("([0-9a-f]+)"))

_id_rng: random.Random | None = None


def seed_ids(seed: int | None) -> None:
    """Mint album/photo ids from a seeded stream; None restores secure ids."""
    global _id_rng
    # the string seed keeps equal seeds from colliding across modules
    _id_rng = None if seed is None else random.Random(f"firstparty:{seed}")


class FirstPartyError(Exception):
    pass


class AlbumNotFound(FirstPartyError):
    pass


class PhotoNotFound(FirstPartyError):
    pass


class UnsupportedMediaType(FirstPartyError):
    pass


@dataclass
class Comment:
    author: str
    body: str
    preview_locator: str | None = None


@dataclass
class PhotoObject:
    photo_id: str
    image: ContentItem
    caption: str
    static_url: str
    width: int
    height: int
    comments: list[Comment] = field(default_factory=list)


@dataclass
class Album:
    album_id: str
    title: str
    photo_ids: list[str] = field(default_factory=list)


class FirstPartyService:
    """In-process service core; the HTTP layer is a thin adapter over it."""

    def __init__(self, response_delay_ms: float | None = DEFAULT_RESPONSE_DELAY_MS):
        self.response_delay_ms = response_delay_ms or 0.0
        self._albums: dict[str, Album] = {}
        self._photos: dict[str, PhotoObject] = {}
        self._lock = threading.RLock()

    def _fresh_id(self) -> str:
        if _id_rng is not None:
            return f"{_id_rng.getrandbits(64):016x}"
        return secrets.token_hex(8)

    # -- albums ------------------------------------------------------------

    def create_album(self, title: str) -> str:
        with self._lock:
            album_id = self._fresh_id()
            while album_id in self._albums:
                album_id = self._fresh_id()
            self._albums[album_id] = Album(album_id=album_id, title=title)
            return album_id

    # -- photos ------------------------------------------------------------

    def upload_photo(self, album_id: str, image: ContentItem,
                     caption: str = "") -> tuple[str, str]:
        # imported on first upload, not at start: the codec loads numpy,
        # which takes over 0.1 s
        from .codec.png import PNGError, read_ihdr

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
            photo_id = self._fresh_id()
            while photo_id in self._photos:
                photo_id = self._fresh_id()
            static_url = f"{PHOTO_PATH_PREFIX}{photo_id}.png"
            self._photos[photo_id] = PhotoObject(
                photo_id=photo_id,
                image=ContentItem(data=bytes(image.data),
                                  media_type="image/png"),
                caption=caption, static_url=static_url,
                width=width, height=height)
            album.photo_ids.append(photo_id)
            return photo_id, static_url

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

    # -- comments ----------------------------------------------------------

    def add_comment(self, photo_id: str, author: str, body: str) -> Comment:
        match = _URL_RE.search(body)
        comment = Comment(author=author, body=body,
                          preview_locator=match.group(0) if match else None)
        with self._lock:
            photo = self._photos.get(photo_id)
            if photo is None:
                raise PhotoNotFound(photo_id)
            photo.comments.append(comment)
        return comment

    # -- rendering ---------------------------------------------------------

    def _render_comment(self, c: Comment) -> str:
        author = html.escape(c.author)
        if c.preview_locator and c.preview_locator in c.body:
            before, after = c.body.split(c.preview_locator, 1)
            url = html.escape(c.preview_locator, quote=True)
            body = (f"{html.escape(before)}"
                    f'<a rel="preview" href="{url}">{url}</a>'
                    f"{html.escape(after)}")
        else:
            body = html.escape(c.body)
        return (f'      <li class="comment">'
                f'<span class="author">{author}</span>: {body}</li>')

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
                if p.comments:
                    parts.append('    <ul class="comments">')
                    parts.extend(self._render_comment(c) for c in p.comments)
                    parts.append("    </ul>")
                parts.append("  </figure>")
            parts.append("</body></html>")
            return "\n".join(parts) + "\n"


class _FirstPartyHandler(Handler):
    server_version = "r2o-fp/1"
    service: FirstPartyService  # set per bound subclass

    def do_POST(self):
        svc = self.service
        body = self._body()
        if body is None:
            return
        try:
            if self.path == "/fp/albums":
                album_id = svc.create_album(body.decode("utf-8"))
                self._reply(201, (album_id + "\n").encode())
                return
            m = re.fullmatch(r"/fp/albums/([0-9a-f]+)/photos", self.path)
            if m:
                caption = self.headers.get("x-caption", "")
                item = ContentItem(data=body, media_type="image/png")
                photo_id, static_url = svc.upload_photo(m.group(1), item,
                                                        caption)
                self._reply(201, f"{photo_id}\n{static_url}\n".encode())
                return
            m = re.fullmatch(r"/fp/photos/([0-9a-f]+)/comments", self.path)
            if m:
                author = self.headers.get("x-author", "")
                comment = svc.add_comment(m.group(1), author,
                                          body.decode("utf-8"))
                photo = svc.get_photo(m.group(1))
                index = next(i for i, c in enumerate(photo.comments)
                             if c is comment)
                self._reply(201, f"{index}\n".encode())
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
            item = self.service.get(self.path)
        except (AlbumNotFound, PhotoNotFound):
            self._reply(404, b"not found\n")
            return
        self._reply(200, item.data, content_type=item.media_type)


def serve_firstparty(bind_address: tuple[str, int],
                     service: FirstPartyService | None = None) -> Server:
    """Serve the /fp API over HTTP, backed by `service` or a fresh one."""
    return serve(bind_address, _FirstPartyHandler,
                 {"service": service or FirstPartyService()}, name="fp")
