"""Pluggable off-site content hosting with simulated latency.

Three interchangeable providers (in-memory, filesystem, HTTP client) speak
one locator shape: <base_url>/<16-hex-id>. The HTTP pieces implement the v1
object protocol on r2o's one HTTP layer (`_http`): a keep-alive server
scaffold and a pooled client over r2o's own HTTP/1.1 wire code, so
desk-scale measurements cross a real socket. Latency floors are a
pre-response sleep of exactly the configured duration.
"""

from __future__ import annotations

import random
import secrets
import threading
import time
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urljoin

from ._http import (
    MAX_PAYLOAD_DEFAULT,
    ConnectionPool,
    Handler,
    HttpError,
    Server,
)
from .locator import InvalidPayload, validate_locator

OBJECTS_PATH = "/v1/objects"
_ID_HEX_LEN = 16

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


def fresh_id() -> str:
    """A new id of 16 lowercase hex digits."""
    if _id_rng is not None:
        return f"{_id_rng.getrandbits(4 * _ID_HEX_LEN):0{_ID_HEX_LEN}x}"
    return secrets.token_hex(_ID_HEX_LEN // 2)


def _is_valid_id(oid: str) -> bool:
    return (len(oid) == _ID_HEX_LEN
            and all(c in "0123456789abcdef" for c in oid))


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
        if not _is_valid_id(oid):
            raise NotFound(f"malformed object id {oid!r}")
        return oid


class _LocalStore(_ProviderBase):
    """A store in this process. Its locators sit under a private `.invalid`
    base that no reader can reach; `serve_store` puts it behind a URL."""

    def __init__(self, name: str, simulated_latency: float | None):
        if simulated_latency is not None and simulated_latency < 0:
            raise ValueError("simulated_latency must be >= 0")
        self.name = name
        self.base_url = f"http://{name}.offsite.invalid{OBJECTS_PATH}"
        self.simulated_latency = simulated_latency
        self._lock = threading.Lock()


class MemoryStore(_LocalStore):
    """Dict-backed store; the default latency-simulation vehicle."""

    def __init__(self, name: str = "memory",
                 simulated_latency: float | None = None):
        super().__init__(name, simulated_latency)
        self._objects: dict[str, tuple[bytes, str]] = {}

    def upload(self, item: ContentItem) -> str:
        self._check_size(item)
        self._sleep_floor()
        with self._lock:
            oid = fresh_id()
            while oid in self._objects:
                oid = fresh_id()
            self._objects[oid] = (bytes(item.data), item.media_type)
        return self._locator_for(oid)

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

    def upload(self, item: ContentItem) -> str:
        self._check_size(item)
        self._sleep_floor()
        with self._lock:
            oid = fresh_id()
            while (self.root / oid).exists():
                oid = fresh_id()
            (self.root / oid).write_bytes(item.data)
            (self.root / f"{oid}.meta").write_text(item.media_type + "\n")
        return self._locator_for(oid)

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
        return oid if _is_valid_id(oid) else None

    def do_POST(self):
        if self.path != OBJECTS_PATH:
            self._reply(404, b"unknown path\n")
            return
        backing = self.server.backing
        body = self._body(backing.max_payload)
        if body is None:
            return
        media_type = self.headers.get("content-type",
                                      "application/octet-stream")
        try:
            locator = backing.upload(
                ContentItem(data=body, media_type=media_type))
        except PayloadTooLarge:
            self._reply(413, b"payload too large\n")
            return
        oid = locator.rsplit("/", 1)[1]
        public = f"{self.server.base_url}/{oid}"
        self._reply(201, (public + "\n").encode(),
                    extra={"Location": f"{OBJECTS_PATH}/{oid}"})

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

    def _request(self, what: str, method: str, url: str, **kwargs):
        try:
            return self._pool.request(method, url,
                                      max_body=self.max_payload, **kwargs)
        except HttpError as exc:
            raise StoreUnavailable(f"{what} failed: {exc}") from None

    def upload(self, item: ContentItem) -> str:
        self._check_size(item)
        resp = self._request("upload", "POST", self.base_url,
                             body=item.data,
                             headers={"Content-Type": item.media_type})
        if resp.status == 413:
            raise PayloadTooLarge("server rejected payload")
        if resp.status != 201:
            raise StoreUnavailable(f"upload failed: HTTP {resp.status}")
        locator = resp.body.decode("ascii", "replace").strip()
        try:
            return validate_locator(locator)
        except InvalidPayload as exc:
            # the server kept the object: delete it by the path in Location,
            # which `delete` takes only when it names an id under base_url
            with suppress(StoreError):
                self.delete(urljoin(self.base_url, resp.location))
            raise StoreUnavailable(f"upload returned {exc}") from None

    def fetch(self, locator: str) -> ContentItem:
        self._id_from(locator)  # validate shape before any network use
        resp = self._request("fetch", "GET", locator)
        if resp.status == 404:
            raise NotFound(locator)
        if resp.status != 200:
            raise StoreUnavailable(f"fetch failed: HTTP {resp.status}")
        return ContentItem(data=resp.body, media_type=resp.content_type)

    def delete(self, locator: str) -> None:
        self._id_from(locator)
        resp = self._request("delete", "DELETE", locator)
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
