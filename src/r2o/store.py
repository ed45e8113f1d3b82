"""Pluggable off-site content hosting with simulated latency.

Three interchangeable providers (in-memory, filesystem, HTTP client) speak
one locator shape: <base_url>/<id>, where every host's ids (the first
party's too) come from `fresh_id` and match `ID_PATTERN`. The HTTP pieces
implement the v1 object protocol on r2o's one HTTP layer (`_http`): a
keep-alive server scaffold and a pooled client over r2o's own HTTP/1.1
wire code, so desk-scale measurements cross a real socket. Latency floors
are a pre-response sleep of exactly the configured duration.

The writer names each object: an upload is `PUT <base_url>/<id>` with an
id from `fresh_id`, answered 201 once stored, 409 for a taken id (nothing
is overwritten) and 404 for one outside `ID_PATTERN`. So `upload` runs
the writer's `draw(locator)` while the bytes are in flight: the write
path draws its stand-in (about 0.6 ms) during the store's 12 ms. A writer
whose seeded ids a store already holds (a second run with the same
`--seed`, or a `--root` store kept over a restart) meets a 409 and
`upload` retries once under a `secure_id`, drawing again, so each such
object costs one more round trip, not a walk down the seeded stream.
"""

from __future__ import annotations

import random
import re
import secrets
import threading
import time
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ._http import (
    MAX_PAYLOAD_DEFAULT,
    ConnectionPool,
    Handler,
    HttpError,
    Response,
    Server,
)
from .locator import InvalidPayload, validate_locator

OBJECTS_PATH = "/v1/objects"
_ID_HEX_LEN = 16
ID_PATTERN = re.compile("[0-9a-f]{%d}" % _ID_HEX_LEN)

# median retrieval times of popular image hosts, ms; shipped as presets
LATENCY_PRESETS = {
    "facebook_cdn": 11,
    "imgur": 12,
    "photobucket": 50,
    "postimage": 51,
    "flickr": 147,
    "dropbox": 306,
    "tinypic": 310,
    "imageshack": 434,
}


class StoreError(Exception):
    pass


class StoreUnavailable(StoreError):
    pass


class NotFound(StoreError):
    pass


class PayloadTooLarge(StoreError):
    pass


class ObjectExists(StoreError):
    """The id an upload named is taken; the object there is not the
    uploader's."""


@dataclass
class ContentItem:
    data: bytes
    media_type: str = "application/octet-stream"

    def validate(self) -> "ContentItem":
        if not self.media_type:
            raise ValueError("media_type must be non-empty")
        return self


_id_rng: random.Random | None = None


def seed_ids(seed: int | None) -> None:
    """Mint every host's ids (store objects, first-party albums and photos)
    from one seeded stream; None restores secure ids."""
    global _id_rng
    _id_rng = None if seed is None else random.Random(seed)


def secure_id() -> str:
    """An id matching `ID_PATTERN` from secure randomness, off the seeded
    stream."""
    return secrets.token_hex(_ID_HEX_LEN // 2)


def fresh_id(taken: Callable[[str], bool]) -> str:
    """A new id matching `ID_PATTERN` that is not `taken`."""
    while True:
        if _id_rng is not None:
            oid = f"{_id_rng.getrandbits(4 * _ID_HEX_LEN):0{_ID_HEX_LEN}x}"
        else:
            oid = secure_id()
        if not taken(oid):
            return oid


class _ProviderBase:
    """Shared locator parsing, payload cap and latency floor. A store has a
    `name`, the `base_url` its locators start with, and a
    `simulated_latency` (ms, or None) slept before each request."""

    simulated_latency: float | None = None
    max_payload = MAX_PAYLOAD_DEFAULT

    def _sleep_floor(self) -> None:
        s = self.simulated_latency
        if s:
            time.sleep(s / 1000.0)

    def _check_size(self, item: ContentItem) -> None:
        item.validate()
        if len(item.data) > self.max_payload:
            raise PayloadTooLarge(
                f"{len(item.data)} bytes exceeds cap {self.max_payload}")

    def close(self) -> None:
        """Release held connections; local stores hold none."""

    def _locator_for(self, oid: str) -> str:
        return f"{self.base_url}/{oid}"

    def _id_from(self, locator: str) -> str:
        prefix = self.base_url + "/"
        if not locator.startswith(prefix):
            raise NotFound(f"locator {locator!r} is not under {self.base_url}")
        oid = locator[len(prefix):]
        if not ID_PATTERN.fullmatch(oid):
            raise NotFound(f"malformed object id {oid!r}")
        return oid


class _LocalStore(_ProviderBase):
    """A store in this process. Its locators sit under a private `.invalid`
    base that no reader can reach; `serve_store` puts it behind a URL and
    stores each PUT through `upload(item, oid)`, which in-process writes
    call with no `oid` to take a fresh id."""

    def __init__(self, name: str, simulated_latency: float | None):
        if simulated_latency is not None and simulated_latency < 0:
            raise ValueError("simulated_latency must be >= 0")
        self.name = name
        self.base_url = f"http://{name}.offsite.invalid{OBJECTS_PATH}"
        self.simulated_latency = simulated_latency
        self._lock = threading.Lock()

    def upload(self, item: ContentItem, oid: str | None = None,
               draw: Callable[[str], None] | None = None) -> str:
        """Store `item` under `oid` (NotFound if malformed, ObjectExists if
        taken) or a fresh id, then run `draw(locator)`; returns the locator.
        A draw that raises deletes the object (best effort)."""
        self._check_size(item)
        self._sleep_floor()
        with self._lock:
            if oid is None:
                oid = fresh_id(self._taken)
            elif not ID_PATTERN.fullmatch(oid):
                raise NotFound(f"malformed object id {oid!r}")
            elif self._taken(oid):
                raise ObjectExists(f"object {oid} exists")
            self._write(oid, item)
        locator = self._locator_for(oid)
        if draw is not None:
            try:
                draw(locator)
            except BaseException:
                with suppress(Exception):
                    self.delete(locator)
                raise
        return locator


class MemoryStore(_LocalStore):
    """Dict-backed store; the default latency-simulation vehicle."""

    def __init__(self, name: str = "memory",
                 simulated_latency: float | None = None):
        super().__init__(name, simulated_latency)
        self._objects: dict[str, tuple[bytes, str]] = {}

    def _taken(self, oid: str) -> bool:
        return oid in self._objects

    def _write(self, oid: str, item: ContentItem) -> None:
        self._objects[oid] = (bytes(item.data), item.media_type)

    def fetch(self, locator: str) -> ContentItem:
        oid = self._id_from(locator)
        self._sleep_floor()
        with self._lock:
            found = self._objects.get(oid)
        if found is None:
            raise NotFound(f"no object {oid}")
        data, media_type = found
        return ContentItem(data=data, media_type=media_type)

    def delete(self, locator: str) -> None:
        oid = self._id_from(locator)
        self._sleep_floor()
        with self._lock:
            self._objects.pop(oid, None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._objects)


class FilesystemStore(_LocalStore):
    """Directory-backed store: <root>/<id> plus <root>/<id>.meta."""

    def __init__(self, root: str | Path, name: str = "filesystem",
                 simulated_latency: float | None = None):
        super().__init__(name, simulated_latency)
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _taken(self, oid: str) -> bool:
        return (self.root / oid).exists()

    def _write(self, oid: str, item: ContentItem) -> None:
        (self.root / oid).write_bytes(item.data)
        (self.root / f"{oid}.meta").write_text(item.media_type + "\n")

    def fetch(self, locator: str) -> ContentItem:
        oid = self._id_from(locator)
        self._sleep_floor()
        path = self.root / oid
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise NotFound(f"no object {oid}") from None
        meta = self.root / f"{oid}.meta"
        media_type = "application/octet-stream"
        if meta.exists():
            media_type = meta.read_text().strip() or media_type
        return ContentItem(data=data, media_type=media_type)

    def delete(self, locator: str) -> None:
        oid = self._id_from(locator)
        self._sleep_floor()
        with self._lock:
            (self.root / oid).unlink(missing_ok=True)
            (self.root / f"{oid}.meta").unlink(missing_ok=True)


class _StoreHandler(Handler):
    server_version = "r2o-store/1"

    def _object_id(self) -> str | None:
        prefix = OBJECTS_PATH + "/"
        if not self.path.startswith(prefix):
            return None
        oid = self.path[len(prefix):]
        return oid if ID_PATTERN.fullmatch(oid) else None

    def do_PUT(self):
        oid = self._object_id()
        if oid is None:
            self._reply(404, b"unknown path\n")
            return
        backing = self.server.backing
        body = self._body(backing.max_payload)
        if body is None:
            return
        media_type = self.headers.get("content-type",
                                      "application/octet-stream")
        try:
            backing.upload(ContentItem(data=body, media_type=media_type), oid)
        except PayloadTooLarge:
            self._reply(413, b"payload too large\n")
        except ObjectExists:
            self._reply(409, b"object id taken\n")
        else:
            self._reply(201)

    def do_GET(self):
        oid = self._object_id()
        if oid is None:
            self._reply(404, b"unknown path\n")
            return
        backing = self.server.backing
        try:
            item = backing.fetch(backing._locator_for(oid))
        except NotFound:
            self._reply(404, b"no such object\n")
            return
        self._reply(200, item.data, content_type=item.media_type)

    def do_DELETE(self):
        oid = self._object_id()
        if oid is None:
            self._reply(404, b"unknown path\n")
            return
        backing = self.server.backing
        backing.delete(backing._locator_for(oid))
        self._reply(204)


def serve_store(bind_address: tuple[str, int],
                backing: _ProviderBase) -> Server:
    """Serve the v1 object protocol on bind_address backed by a provider."""
    return Server(bind_address, _StoreHandler, OBJECTS_PATH, backing)


class HttpStoreClient(_ProviderBase):
    """Client side of the v1 object protocol, over keep-alive connections."""

    def __init__(self, base_url: str, name: str = "http"):
        self.name = name
        self.base_url = base_url.rstrip("/")
        self._pool = ConnectionPool()

    def _request(self, what: str, method: str, url: str,
                 **kwargs) -> Callable[[], Response]:
        """Write a request; returns the call that reads its response. Both
        raise StoreUnavailable for a request that fails."""
        try:
            receive = self._pool.send(method, url,
                                      max_body=self.max_payload, **kwargs)
        except HttpError as exc:
            raise StoreUnavailable(f"{what} failed: {exc}") from None

        def response() -> Response:
            try:
                return receive()
            except HttpError as exc:
                raise StoreUnavailable(f"{what} failed: {exc}") from None
        return response

    def upload(self, item: ContentItem,
               draw: Callable[[str], None] | None = None) -> str:
        """Write the PUT of `item` under a fresh id, run `draw(locator)`
        while the store takes the bytes, read its answer and return the
        locator. A 409 deletes nothing (the object is someone else's) and
        is tried once more under a `secure_id`; a second raises
        ObjectExists. Any other failure of the draw or the answer (413:
        PayloadTooLarge, not 201: StoreUnavailable) deletes the object
        (best effort). A bad locator is refused before any byte is sent."""
        self._check_size(item)
        try:
            return self._put(item, fresh_id(lambda oid: False), draw)
        except ObjectExists:
            return self._put(item, secure_id(), draw)

    def _put(self, item: ContentItem, oid: str,
             draw: Callable[[str], None] | None) -> str:
        locator = self._locator_for(oid)
        try:
            validate_locator(locator)
        except InvalidPayload as exc:
            raise StoreUnavailable(f"upload to {locator!r}: {exc}") from None
        response = self._request("upload", "PUT", locator, body=item.data,
                                 headers={"Content-Type": item.media_type})
        try:
            try:
                if draw is not None:
                    draw(locator)
            finally:
                # raised here, a 409 replaces the draw's own error, so the
                # taken object is not deleted and the id is tried again
                status = response().status
                if status == 409:
                    raise ObjectExists(f"{locator} is taken")
            if status == 413:
                raise PayloadTooLarge("server rejected payload")
            if status != 201:
                raise StoreUnavailable(f"upload failed: HTTP {status}")
        except ObjectExists:
            raise
        except BaseException:
            with suppress(Exception):
                self.delete(locator)
            raise
        return locator

    def fetch(self, locator: str) -> ContentItem:
        self._id_from(locator)  # validate shape before any network use
        resp = self._request("fetch", "GET", locator)()
        if resp.status == 404:
            raise NotFound(locator)
        if resp.status != 200:
            raise StoreUnavailable(f"fetch failed: HTTP {resp.status}")
        return ContentItem(data=resp.body, media_type=resp.content_type)

    def delete(self, locator: str) -> None:
        self._id_from(locator)
        resp = self._request("delete", "DELETE", locator)()
        if resp.status >= 300 and resp.status != 404:
            raise StoreUnavailable(f"delete failed: HTTP {resp.status}")

    def close(self) -> None:
        """Close the kept-alive connections."""
        self._pool.close()


def preset_store(name: str) -> MemoryStore:
    """Memory store with one of the shipped latency presets."""
    if name not in LATENCY_PRESETS:
        raise KeyError(f"unknown preset {name!r}; "
                       f"choose from {sorted(LATENCY_PRESETS)}")
    return MemoryStore(name, float(LATENCY_PRESETS[name]))
