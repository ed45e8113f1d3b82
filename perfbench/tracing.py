"""In-memory spans recorded by wrappers around r2o's public entry points.

Nothing inside `r2o` is instrumented: `LayerTracer.install` swaps each
traced callable for a wrapper that records a span, and `uninstall` puts the
original back. A span is (id, name, start, end, parent id, request id,
cpu): start and end are `time.perf_counter` seconds, and cpu is the calling
thread's CPU seconds inside the call (`time.thread_time`), which leaves out
time spent waiting for the GIL, the network or other threads. The load
generator is one closed-loop client, so the request id is simply the
operation number it sets before each operation.

`read_path` fans its elements out to worker threads whose own span stack is
empty; their spans take as parent the innermost open span of the thread
that installed the tracer, which is the `core.read_path` span waiting on
them.
"""

from __future__ import annotations

import http.client
import itertools
import threading
import time
from collections import Counter
from urllib.parse import urlsplit

# url path -> fetch kind, for HttpFetcher.fetch spans
PAGE_SUFFIX = "/page"
PSEUDO_PREFIX = "/fp/photos/"


def fetch_kind(url: str) -> str:
    path = urlsplit(url).path
    if path.endswith(PAGE_SUFFIX):
        return "page"
    if path.startswith(PSEUDO_PREFIX):
        return "pseudo"
    return "offsite"


class Tracer:
    """Span and counter store; `call` runs a function inside a span."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.request: int | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def bind_main_thread(self) -> None:
        self._main_stack = self._stack()

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = None
        sid = next(self._ids)
        stack.append(sid)
        start, cpu = time.perf_counter(), time.thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            end, cpu = time.perf_counter(), time.thread_time() - cpu
            stack.pop()
            with self._lock:
                self.spans.append((sid, name, start, end, parent,
                                   self.request, cpu))

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] += 1


class LayerTracer:
    """Patches r2o's public entry points to record spans into a Tracer."""

    def __init__(self, tracer: Tracer):
        from r2o import cache, codec, core, rewriter, store

        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []
        t = tracer

        def plain(name, fn):
            return lambda *a, **k: t.call(name, fn, *a, **k)

        png_cls = codec.PseudoImage
        from_png = png_cls.from_png

        def fetch(self_, url):
            return t.call("fetch." + fetch_kind(url), fetch_orig, self_, url)
        fetch_orig = core.HttpFetcher.fetch

        def lookup(self_, key):
            found = t.call("cache.lookup", lookup_orig, self_, key)
            t.count("cache.hits" if found is not None else "cache.misses")
            return found
        lookup_orig = cache.MappingsCache.lookup

        def recorder(name, orig):
            def record(self_, entry):
                fresh = entry.pseudo_locator not in self_
                t.call(name, orig, self_, entry)
                if fresh:
                    t.count("cache.inserted")
            return record

        def is_candidate(element, cfg):
            decision = t.call("filter.is_candidate", candidate_orig,
                              element, cfg)
            if decision:
                t.count("filter.accepted")
            return decision
        candidate_orig = core.is_candidate

        def read_path(*a, **k):
            results = t.call("core.read_path", read_orig, *a, **k)
            for r in results:
                key = (f"core.replaced.{r.via}" if r.replaced
                       else f"core.{r.outcome}")
                t.count(key)
            return results
        read_orig = core.read_path

        self._patches = [
            (codec, "encode_qr", plain("codec.encode_qr", codec.encode_qr)),
            (codec, "decode_qr", plain("codec.decode_qr", codec.decode_qr)),
            (png_cls, "to_png", plain("codec.to_png", png_cls.to_png)),
            (png_cls, "from_png", classmethod(
                lambda cls, *a, **k: t.call("codec.from_png", from_png,
                                            *a, **k))),
            (store.HttpStoreClient, "upload",
             plain("store.upload", store.HttpStoreClient.upload)),
            (core.HttpFirstPartyClient, "upload_photo",
             plain("firstparty.upload_photo",
                   core.HttpFirstPartyClient.upload_photo)),
            (core.HttpFetcher, "fetch", fetch),
            (http.client.HTTPConnection, "connect",
             plain("http.connect", http.client.HTTPConnection.connect)),
            (cache.MappingsCache, "lookup", lookup),
            (cache.MappingsCache, "record_resolved",
             recorder("cache.record_resolved",
                      cache.MappingsCache.record_resolved)),
            (cache.MappingsCache, "record_created",
             recorder("cache.record_created",
                      cache.MappingsCache.record_created)),
            (core, "is_candidate", is_candidate),
            (rewriter, "scan_html",
             plain("rewriter.scan_html", rewriter.scan_html)),
            (rewriter, "rewrite_html",
             plain("rewriter.rewrite_html", rewriter.rewrite_html)),
            (core, "read_path", read_path),
            (core, "resolve_page",
             plain("core.resolve_page", core.resolve_page)),
            (core, "write_path", plain("core.write_path", core.write_path)),
        ]

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.tracer.bind_main_thread()
        for owner, attr, wrapper in self._patches:
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def covered(intervals: list[tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total
