"""A fetcher wrapper that records every URL it is asked for."""

from __future__ import annotations

import threading


class RecordingFetcher:
    """Wraps a fetcher and counts requests per URL."""

    def __init__(self, inner):
        self.inner = inner
        self.requests: list[str] = []
        self._lock = threading.Lock()

    def fetch(self, url: str):
        with self._lock:
            self.requests.append(url)
        return self.inner.fetch(url)

    def count(self, url: str) -> int:
        with self._lock:
            return self.requests.count(url)
