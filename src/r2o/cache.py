"""Two-segment mappings cache: pseudo-locator to off-site locator.

The frequent segment holds mappings the user created (evicted by lowest hit
count); the recent segment holds mappings resolved from others' content
(evicted LRU). Timestamps are a monotonic logical counter so behavior is
reproducible. A single instance is safe under concurrent use.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from copy import copy
from dataclasses import dataclass, field

from .codec import validate_locator

MAP_HEADER = "r2o-map/1"
MEDIA_CLASSES = ("image", "text")

SELECTION_ALL = "all"
SELECTION_FREQUENT = "frequent"
SELECTION_RECENT = "recent"
SELECTION_PREFIX = "by-prefix"


class UnsupportedVersion(ValueError):
    """Mapping blob header is not a version this code understands."""


@dataclass
class MappingEntry:
    pseudo_locator: str
    offsite_locator: str
    media_class: str = "image"
    hit_count: int = 0
    # stamped by the cache's clock on every insert and hit
    last_used: int | None = field(default=None, init=False)

    def validate(self) -> "MappingEntry":
        if not self.pseudo_locator or not self.offsite_locator:
            raise ValueError("locators must be non-empty")
        if self.pseudo_locator == self.offsite_locator:
            raise ValueError("pseudo and offsite locators must differ")
        validate_locator(self.offsite_locator)  # InvalidPayload, a ValueError
        if self.media_class not in MEDIA_CLASSES:
            raise ValueError(f"bad media class {self.media_class!r}")
        if self.hit_count < 0:
            raise ValueError("hit_count must be non-negative")
        return self


@dataclass(frozen=True)
class CacheConfig:
    n_frequent: int = 256
    m_recent: int = 1024

    def __post_init__(self):
        if self.n_frequent < 0 or self.m_recent < 0:
            raise ValueError("segment capacities must be non-negative")


class MappingsCache:
    """N-frequent / M-recent cache over pseudo -> offsite mappings."""

    def __init__(self, config: CacheConfig | None = None):
        self.config = config or CacheConfig()
        self._frequent: dict[str, MappingEntry] = {}
        # least recently used first: every stamp of a recent entry moves it
        # to the end, so the front is always the LRU victim
        self._recent: OrderedDict[str, MappingEntry] = OrderedDict()
        self._clock = 0
        self._lock = threading.RLock()
        self.skipped_on_last_import = 0  # malformed lines of the last import

    def _now(self) -> int:
        self._clock += 1
        return self._clock

    # -- recording ---------------------------------------------------------

    def record_created(self, entry: MappingEntry) -> None:
        """Insert a mapping the user just created into the frequent segment.

        last_used is stamped fresh. Over capacity, the lowest-hit-count
        entry goes; ties break toward the least recently used, then the
        smallest pseudo_locator.
        """
        entry.validate()
        with self._lock:
            stored = copy(entry)
            stored.last_used = self._now()
            self._frequent[stored.pseudo_locator] = stored
            while len(self._frequent) > self.config.n_frequent:
                victim = min(
                    self._frequent.values(),
                    key=lambda e: (e.hit_count, e.last_used,
                                   e.pseudo_locator))
                del self._frequent[victim.pseudo_locator]

    def record_resolved(self, entry: MappingEntry) -> None:
        """Insert or refresh a mapping resolved from someone else's schema.

        Re-recording an existing key counts as another use; last_used is
        always stamped fresh. Over capacity the LRU entry goes.
        """
        entry.validate()
        with self._lock:
            existing = self._recent.get(entry.pseudo_locator)
            if existing is not None:
                existing.offsite_locator = entry.offsite_locator
                existing.media_class = entry.media_class
                existing.hit_count += 1
                existing.last_used = self._now()
                self._recent.move_to_end(entry.pseudo_locator)
                return
            stored = copy(entry)
            stored.last_used = self._now()
            self._recent[stored.pseudo_locator] = stored
            while len(self._recent) > self.config.m_recent:
                self._recent.popitem(last=False)

    # -- queries -----------------------------------------------------------

    def _hit(self, pseudo_locator: str) -> MappingEntry | None:
        hit_f = self._frequent.get(pseudo_locator)
        hit_r = self._recent.get(pseudo_locator)
        if hit_f is None and hit_r is None:
            return None
        stamp = self._now()
        for hit in (hit_f, hit_r):
            if hit is not None:
                hit.hit_count += 1
                hit.last_used = stamp
        if hit_r is not None:
            self._recent.move_to_end(pseudo_locator)
        return hit_f if hit_f is not None else hit_r

    def lookup(self, pseudo_locator: str) -> str | None:
        """Resolve a pseudo-locator; hits bump both copies, misses mutate
        nothing."""
        with self._lock:
            hit = self._hit(pseudo_locator)
            return None if hit is None else hit.offsite_locator

    def __contains__(self, pseudo_locator: str) -> bool:
        with self._lock:
            return (pseudo_locator in self._frequent
                    or pseudo_locator in self._recent)

    def __len__(self) -> int:
        with self._lock:
            return len(self._frequent) + len(self._recent)

    def snapshot(self) -> tuple[dict[str, MappingEntry], dict[str, MappingEntry]]:
        """Deep copies of (frequent, recent); test and debugging aid."""
        with self._lock:
            return ({k: copy(v) for k, v in self._frequent.items()},
                    {k: copy(v) for k, v in self._recent.items()})

    # -- sharing -----------------------------------------------------------

    def export_mappings(self, selection: str = SELECTION_ALL, *,
                        prefix: str | None = None) -> bytes:
        """Serialize mappings to the r2o-map/1 wire format."""
        with self._lock:
            if selection == SELECTION_FREQUENT:
                pool = dict(self._frequent)
            elif selection == SELECTION_RECENT:
                pool = dict(self._recent)
            elif selection in (SELECTION_ALL, SELECTION_PREFIX):
                pool = dict(self._recent)
                pool.update(self._frequent)  # frequent wins a key collision
                if selection == SELECTION_PREFIX:
                    if prefix is None:
                        raise ValueError("by-prefix export needs a prefix")
                    pool = {k: v for k, v in pool.items()
                            if k.startswith(prefix)}
            else:
                raise ValueError(f"unknown selection {selection!r}")
            lines = [MAP_HEADER]
            for key in sorted(pool):
                e = pool[key]
                lines.append(
                    f"{e.pseudo_locator}\t{e.offsite_locator}\t{e.media_class}")
            return ("\n".join(lines) + "\n").encode("utf-8")

    def import_mappings(self, blob: bytes) -> int:
        """Merge a mapping blob; returns entries merged, skipping bad lines."""
        try:
            text = blob.decode("utf-8")
        except UnicodeDecodeError:
            raise UnsupportedVersion("blob is not UTF-8") from None
        lines = text.split("\n")
        if not lines or lines[0] != MAP_HEADER:
            head = lines[0] if lines else ""
            raise UnsupportedVersion(f"unsupported mapping header {head!r}")
        if lines and lines[-1] == "":
            lines.pop()
        merged = skipped = 0
        for line in lines[1:]:
            parts = line.split("\t")
            try:
                if len(parts) != 3:
                    raise ValueError("expected three tab-separated fields")
                self.record_resolved(MappingEntry(*parts))  # validates
            except ValueError:
                skipped += 1
            else:
                merged += 1
        self.skipped_on_last_import = skipped
        return merged
