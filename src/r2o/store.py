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


PROVIDER_KINDS = ("memory", "filesystem", "http")


def default_base_url(name: str) -> str:
    """Base URL of a named provider that was given none."""
    return f"http://{name}.offsite.invalid{OBJECTS_PATH}"


@dataclass(frozen=True)
class ProviderDescriptor:
    """A provider's settings; `open_provider` builds the store it names.

    An empty base_url becomes `default_base_url(name)`, except for the
    http kind, which needs one and takes no simulated_latency: its server
    sets its own. The filesystem kind needs a root.
    """

    name: str
    kind: str  # one of PROVIDER_KINDS
    base_url: str = ""
    simulated_latency: float | None = None  # milliseconds, upload and fetch
    root: str | None = None  # filesystem kind: the directory of objects

    def __post_init__(self):
        if self.kind not in PROVIDER_KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "http" and not self.base_url:
            raise ValueError("http kind needs base_url")
        if self.kind == "http" and self.simulated_latency is not None:
            raise ValueError("http kind takes no latency; its server sets "
                             "its own")
        if self.kind == "filesystem" and not self.root:
            raise ValueError("filesystem kind needs root")
        if self.simulated_latency is not None and self.simulated_latency < 0:
            raise ValueError("simulated_latency must be >= 0")
        if not self.base_url:
            object.__setattr__(self, "base_url", default_base_url(self.name))


# one in-memory provider per latency preset: the default provider table
PRESET_PROVIDERS = {
    name: ProviderDescriptor(name, "memory", simulated_latency=float(ms))
    for name, ms in LATENCY_PRESETS.items()
}


_id_rng: random.Random | None = None


def seed_ids(seed: int | None) -> None:
    """Mint object ids from a seeded stream; None restores secure ids."""
    global _id_rng
    # the string seed keeps equal seeds from colliding across modules
    _id_rng = None if seed is None else random.Random(f"store:{seed}")


def _fresh_id() -> str:
    if _id_rng is not None:
        return f"{_id_rng.getrandbits(4 * _ID_HEX_LEN):0{_ID_HEX_LEN}x}"
    return secrets.token_hex(_ID_HEX_LEN // 2)


def _is_valid_id(oid: str) -> bool:
    return (len(oid) == _ID_HEX_LEN
            and all(c in "0123456789abcdef" for c in oid))


class _ProviderBase:
    """Shared locator parsing, payload cap and latency floor."""

    descriptor: ProviderDescriptor
    max_payload = MAX_PAYLOAD_DEFAULT

    def _sleep_floor(self) -> None:
        s = self.descriptor.simulated_latency
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
        return f"{self.descriptor.base_url}/{oid}"

    def _id_from(self, locator: str) -> str:
        prefix = self.descriptor.base_url + "/"
        if not locator.startswith(prefix):
            raise NotFound(f"locator {locator!r} is not under "
                           f"{self.descriptor.base_url}")
        oid = locator[len(prefix):]
        if not _is_valid_id(oid):
            raise NotFound(f"malformed object id {oid!r}")
        return oid


class MemoryStore(_ProviderBase):
    """Dict-backed provider; the default latency-simulation vehicle."""

    def __init__(self, name: str = "memory",
                 simulated_latency: float | None = None,
                 base_url: str = ""):
        self.descriptor = ProviderDescriptor(
            name, "memory", base_url, simulated_latency)
        self._objects: dict[str, tuple[bytes, str]] = {}
        self._lock = threading.Lock()

    def upload(self, item: ContentItem) -> str:
        self._check_size(item)
        self._sleep_floor()
        with self._lock:
            oid = _fresh_id()
            while oid in self._objects:
                oid = _fresh_id()
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


class FilesystemStore(_ProviderBase):
    """Directory-backed provider: <root>/<id> plus <root>/<id>.meta."""

    def __init__(self, root: str | Path, name: str = "filesystem",
                 simulated_latency: float | None = None,
                 base_url: str = ""):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.descriptor = ProviderDescriptor(
            name, "filesystem", base_url, simulated_latency, str(root))
        self._lock = threading.Lock()

    def upload(self, item: ContentItem) -> str:
        self._check_size(item)
        self._sleep_floor()
        with self._lock:
            oid = _fresh_id()
            while (self.root / oid).exists():
                oid = _fresh_id()
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
    return Server(bind_address, _StoreHandler, OBJECTS_PATH, backing=backing)


class HttpStoreClient(_ProviderBase):
    """Client side of the v1 object protocol, over keep-alive connections."""

    def __init__(self, base_url: str, name: str = "http"):
        self.descriptor = ProviderDescriptor(name, "http",
                                             base_url.rstrip("/"))
        self._pool = ConnectionPool()

    def _request(self, what: str, method: str, url: str, **kwargs):
        try:
            return self._pool.request(method, url,
                                      max_body=self.max_payload, **kwargs)
        except HttpError as exc:
            raise StoreUnavailable(f"{what} failed: {exc}") from None

    def upload(self, item: ContentItem) -> str:
        self._check_size(item)
        resp = self._request("upload", "POST", self.descriptor.base_url,
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
                self.delete(urljoin(self.descriptor.base_url, resp.location))
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


def open_provider(desc: ProviderDescriptor) -> _ProviderBase:
    """The memory, filesystem or HTTP store that a descriptor names."""
    if desc.kind == "memory":
        return MemoryStore(desc.name, desc.simulated_latency, desc.base_url)
    if desc.kind == "filesystem":
        return FilesystemStore(desc.root, desc.name, desc.simulated_latency,
                               desc.base_url)
    return HttpStoreClient(desc.base_url, name=desc.name)


def preset_store(name: str) -> MemoryStore:
    """Memory store with one of the shipped latency presets."""
    if name not in PRESET_PROVIDERS:
        raise KeyError(f"unknown preset {name!r}; "
                       f"choose from {sorted(PRESET_PROVIDERS)}")
    return open_provider(PRESET_PROVIDERS[name])
