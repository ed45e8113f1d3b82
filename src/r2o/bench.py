"""Desk-scale latency benchmarks over the indirection pipeline.

Three scenarios: the decode-time distribution over a batch of generated
symbols, per-provider fetch medians against the shipped latency presets,
and end-to-end page resolution split into cold (empty cache) and warm
(cache hit) paths. Every scenario yields a BenchReport whose CDF and
sample list serialize to CSV for plotting; medians feed the bound checks
that decide the exit code of a bench run.

Timing uses the monotonic performance counter. When a single operation
resolves below clock granularity the loop switches to the
repetition-division technique: run the operation R times, divide the
block duration by R. Three warm-up iterations precede each repetition
block and are excluded from the measurement; end-to-end loops prime once
before timing.
"""

from __future__ import annotations

import csv
import math
import random
import statistics
import time
from dataclasses import dataclass

import numpy as np

from . import codec, core
from .cache import MappingsCache
from .codec.png import write_png
from .firstparty import FirstPartyService
from .store import (
    LATENCY_PRESETS,
    ContentItem,
    MemoryStore,
    measure_store,
    median_ms,
    preset_store,
)

DECODE_REPETITIONS = 1000
WARMUP_ITERATIONS = 3
DEFAULT_ITEM_SIZE = 44 * 1024
DEFAULT_E2E_ITERATIONS = 9

PROVIDER_TOLERANCE_MS = 20.0
COMPOSITION_TOLERANCE_MS = 30.0
WARM_SLACK_MS = 10.0
DECODE_CEILING_MS = 50.0

_URL_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-._~"


# -- report -----------------------------------------------------------------

@dataclass(frozen=True)
class BenchReport:
    """One scenario's samples (ms) plus summary statistics and the CDF."""

    scenario: str
    samples: tuple[float, ...]
    median: float
    mean: float
    p95: float
    cdf_points: tuple[tuple[float, float], ...]


def make_report(scenario: str, samples: list[float]) -> BenchReport:
    """Summarize a sample list; p95 by the nearest-rank method."""
    if not samples:
        raise ValueError("a report needs at least one sample")
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(0.95 * n))
    points: list[tuple[float, float]] = []
    for i, value in enumerate(ordered):
        if i == n - 1 or ordered[i + 1] != value:
            points.append((value, (i + 1) / n))
    return BenchReport(scenario=scenario, samples=tuple(samples),
                       median=float(statistics.median(ordered)),
                       mean=float(statistics.fmean(ordered)),
                       p95=float(ordered[rank - 1]),
                       cdf_points=tuple(points))


# -- decode distribution ----------------------------------------------------

def random_urls(count: int, rng: random.Random,
                min_len: int = 24, max_len: int = 120) -> list[str]:
    """Random absolute http URLs within byte-mode capacity at level M."""
    urls = []
    for _ in range(count):
        length = rng.randint(min_len, max_len)
        prefix = "http://bench.invalid/"
        body = "".join(rng.choice(_URL_CHARS)
                       for _ in range(max(1, length - len(prefix))))
        urls.append(prefix + body)
    return urls


def _clock_granularity_ms() -> float:
    grain = float("inf")
    for _ in range(32):
        a = time.perf_counter()
        b = time.perf_counter()
        while b == a:
            b = time.perf_counter()
        grain = min(grain, b - a)
    return grain * 1000.0


def _time_once(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1000.0


def bench_decode(count: int, qr_config: codec.QrConfig | None = None,
                 rng: random.Random | None = None,
                 repetitions: int | None = None) -> BenchReport:
    """Time decode_qr over `count` symbols from random URLs.

    With repetitions=None the loop probes one decode first: if it resolves
    comfortably above clock granularity each sample is a single timed
    decode (after three excluded warm-ups); otherwise each symbol is
    decoded DECODE_REPETITIONS times and the block duration divided.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = rng or random.Random(0)
    cfg = qr_config or codec.QrConfig()
    symbols = [codec.encode_qr(codec.IndirectionPayload(locator=url), cfg)
               for url in random_urls(count, rng)]

    if repetitions is None:
        probe = _time_once(lambda: codec.decode_qr(symbols[0]))
        fine_enough = probe >= 100.0 * _clock_granularity_ms()
        repetitions = 1 if fine_enough else DECODE_REPETITIONS

    samples: list[float] = []
    if repetitions == 1:
        for _ in range(WARMUP_ITERATIONS):
            codec.decode_qr(symbols[0])
        for sym in symbols:
            samples.append(_time_once(lambda s=sym: codec.decode_qr(s)))
    else:
        for sym in symbols:
            for _ in range(WARMUP_ITERATIONS):
                codec.decode_qr(sym)
            t0 = time.perf_counter()
            for _ in range(repetitions):
                codec.decode_qr(sym)
            block = (time.perf_counter() - t0) * 1000.0
            samples.append(block / repetitions)
    return make_report(f"decode-{count}", samples)


# -- provider medians -------------------------------------------------------

def bench_providers(providers=None, item_size: int = DEFAULT_ITEM_SIZE,
                    repetitions: int = 10,
                    interval: float = 0.0) -> list[tuple[str, float]]:
    """Median fetch time per provider, in the shape of the preset table.

    With providers=None every shipped latency preset is measured, in
    ascending-latency order. Returns (name, median ms) rows.
    """
    if providers is None:
        providers = [preset_store(name) for name in LATENCY_PRESETS]
    providers = list(providers)
    if not providers:
        raise ValueError("no providers to measure")
    rows = []
    for provider in providers:
        samples = measure_store(provider, item_size, repetitions, interval)
        rows.append((provider.descriptor.name, median_ms(samples)))
    return rows


# -- end to end -------------------------------------------------------------

def _random_png(rng: random.Random, edge: int = 96) -> ContentItem:
    seed = rng.randrange(2 ** 32)
    pixels = np.random.default_rng(seed).integers(
        0, 256, size=(edge, edge), dtype=np.uint8)
    return ContentItem(data=write_png(pixels), media_type="image/png")


def _e2e_world(firstparty_delay: float, offsite_delay: float,
               rng: random.Random):
    service = FirstPartyService(response_delay_ms=firstparty_delay)
    provider = MemoryStore(name="bench", simulated_latency=offsite_delay)
    client = core.InProcessFirstPartyClient(service)
    album_id = service.create_album("bench album")
    core.write_path(_random_png(rng), None, album_id, provider, client)
    fetcher = core.InProcessFetcher(firstparty=service, providers=[provider])
    return fetcher, client.page_url(album_id)


def bench_end_to_end(firstparty_delay: float, offsite_delay: float,
                     use_cache: bool,
                     iterations: int = DEFAULT_E2E_ITERATIONS,
                     rng: random.Random | None = None) -> BenchReport:
    """Time resolve_page over one published photo, cold or warm.

    Cold clears the mappings cache before every iteration so each timed
    pass pays pseudo fetch + decode + off-site fetch. Warm primes the
    cache once and then reuses it, so each timed pass pays only the
    off-site fetch. One untimed priming pass precedes the loop in both
    modes.
    """
    if firstparty_delay < 0 or offsite_delay < 0:
        raise ValueError("delays must be >= 0")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    rng = rng or random.Random(0)
    fetcher, page_url = _e2e_world(firstparty_delay, offsite_delay, rng)

    cache = MappingsCache()
    core.resolve_page(page_url, fetcher, cache=cache)  # priming pass
    samples: list[float] = []
    for _ in range(iterations):
        if not use_cache:
            cache = MappingsCache()
        samples.append(_time_once(
            lambda: core.resolve_page(page_url, fetcher, cache=cache)))
    mode = "warm" if use_cache else "cold"
    scenario = f"e2e-f{firstparty_delay:g}-o{offsite_delay:g}-{mode}"
    return make_report(scenario, samples)


@dataclass(frozen=True)
class CacheEffect:
    """Cold and warm reports over the same delays, plus the saving."""

    cold: BenchReport
    warm: BenchReport
    saved_ms: float


def bench_cache_effect(firstparty_delay: float, offsite_delay: float,
                       iterations: int = DEFAULT_E2E_ITERATIONS,
                       rng: random.Random | None = None) -> CacheEffect:
    rng = rng or random.Random(0)
    cold = bench_end_to_end(firstparty_delay, offsite_delay, use_cache=False,
                            iterations=iterations, rng=rng)
    warm = bench_end_to_end(firstparty_delay, offsite_delay, use_cache=True,
                            iterations=iterations, rng=rng)
    return CacheEffect(cold=cold, warm=warm,
                       saved_ms=cold.median - warm.median)


# -- bound checks -----------------------------------------------------------

def check_decode_bounds(report: BenchReport,
                        ceiling_ms: float = DECODE_CEILING_MS) -> list[str]:
    worst = max(report.samples)
    if worst > ceiling_ms:
        return [f"{report.scenario}: max decode {worst:.2f} ms "
                f"exceeds {ceiling_ms:g} ms"]
    return []


def check_provider_bounds(rows: list[tuple[str, float]],
                          tolerance_ms: float = PROVIDER_TOLERANCE_MS
                          ) -> list[str]:
    """Each preset-named row's median must sit in [preset, preset + tol]."""
    problems = []
    for name, median in rows:
        floor = LATENCY_PRESETS.get(name)
        if floor is None:
            continue
        if not floor <= median <= floor + tolerance_ms:
            problems.append(f"provider {name}: median {median:.2f} ms "
                            f"outside [{floor}, {floor + tolerance_ms:g}]")
    return problems


def check_composition_bounds(report: BenchReport, firstparty_delay: float,
                             offsite_delay: float,
                             tolerance_ms: float = COMPOSITION_TOLERANCE_MS
                             ) -> list[str]:
    floor = firstparty_delay + offsite_delay
    if not floor <= report.median <= floor + tolerance_ms:
        return [f"{report.scenario}: median {report.median:.2f} ms outside "
                f"[{floor:g}, {floor + tolerance_ms:g}]"]
    return []


def check_warm_bounds(report: BenchReport, offsite_delay: float,
                      slack_ms: float = WARM_SLACK_MS) -> list[str]:
    overhead = report.median - offsite_delay
    if overhead > slack_ms:
        return [f"{report.scenario}: warm overhead {overhead:.2f} ms "
                f"exceeds {slack_ms:g} ms over the off-site floor"]
    return []


# -- output -----------------------------------------------------------------

def render_table(headers: list[str], rows: list[tuple]) -> str:
    """Plain aligned text table for standard output."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([f"{v:.2f}" if isinstance(v, float) else str(v)
                      for v in row])
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def summary_rows(reports: list[BenchReport]) -> list[tuple]:
    return [(r.scenario, r.median, r.mean, r.p95) for r in reports]


def write_samples_csv(reports: list[BenchReport], path: str) -> None:
    """scenario,sample_ms rows, one per sample, across all reports."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "sample_ms"])
        for report in reports:
            for sample in report.samples:
                writer.writerow([report.scenario, f"{sample:.6f}"])


def write_cdf_csv(reports: list[BenchReport], path: str) -> None:
    """scenario,ms,fraction rows tracing each report's CDF."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "ms", "fraction"])
        for report in reports:
            for ms, fraction in report.cdf_points:
                writer.writerow([report.scenario, f"{ms:.6f}",
                                 f"{fraction:.6f}"])
