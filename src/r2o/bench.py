"""The paper's latency evaluation over the indirection pipeline.

Three sweeps: the decode-time distribution over a batch of generated
symbols, per-provider fetch medians against the shipped latency presets,
and end-to-end page resolution split into cold (empty cache) and warm
(cache hit) paths. `evaluate` runs all three once, prints their tables,
optionally writes each report's samples and CDF to CSV, and returns the
bounds they violated; `r2o bench` exits 1 on any.

Timing uses the monotonic performance counter, one timed call per
sample: a decode takes about 0.1 ms on a 2 vCPU Xeon with Python 3.11,
far above the counter's resolution. Three untimed warm-up decodes precede
the decode samples; end-to-end loops prime once before timing.
"""

from __future__ import annotations

import csv
import math
import random
import secrets
import statistics
import time
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import codec, core
from .cache import MappingsCache
from .codec.png import write_png
from .firstparty import DEFAULT_RESPONSE_DELAY_MS, FirstPartyService
from .store import (
    LATENCY_PRESETS,
    ContentItem,
    MemoryStore,
    StoreError,
    preset_store,
)

WARMUP_ITERATIONS = 3
ITEM_SIZE = 44 * 1024
URL_LENGTHS = (24, 120)  # shortest and longest random bench URL

# sweep sizes: (decode symbols, fetches per provider, e2e iterations)
FULL_SWEEP = (500, 10, 9)
QUICK_SWEEP = (40, 3, 3)
FIRSTPARTY_DELAY_MS = DEFAULT_RESPONSE_DELAY_MS
OFFSITE_DELAYS_MS = (147.0, 306.0)

# bounds: a provider median within its store's latency + 20 ms, a cold
# read within first party + off-site + 30 ms, a warm read within off-site
# + 10 ms, and every decode under 50 ms
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

def random_urls(count: int, rng: random.Random) -> list[str]:
    """Random absolute http URLs within byte-mode capacity at level M."""
    urls = []
    for _ in range(count):
        length = rng.randint(*URL_LENGTHS)
        prefix = "http://bench.invalid/"
        body = "".join(rng.choice(_URL_CHARS)
                       for _ in range(max(1, length - len(prefix))))
        urls.append(prefix + body)
    return urls


def _time_once(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1000.0


def bench_decode(count: int, qr_config: codec.QrConfig | None = None,
                 rng: random.Random | None = None) -> BenchReport:
    """Time decode_qr over `count` symbols from random URLs.

    Each sample is one timed decode, after three excluded warm-ups.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = rng or random.Random(0)
    cfg = qr_config or codec.QrConfig()
    symbols = [codec.encode_qr(codec.IndirectionPayload(locator=url), cfg)
               for url in random_urls(count, rng)]
    for _ in range(WARMUP_ITERATIONS):
        codec.decode_qr(symbols[0])
    samples = [_time_once(lambda s=sym: codec.decode_qr(s))
               for sym in symbols]
    return make_report(f"decode-{count}", samples)


# -- provider medians -------------------------------------------------------

def _preset_stores() -> list[MemoryStore]:
    return [preset_store(name) for name in LATENCY_PRESETS]


def bench_providers(providers=None,
                    repetitions: int = 10) -> list[tuple[str, float]]:
    """Median fetch time per provider, in the shape of the preset table.

    Each provider gets one random item uploaded, fetched `repetitions`
    times back to back with every fetch checked byte for byte, and then
    deleted, also when a fetch fails.
    With providers=None every shipped latency preset is measured, in
    ascending-latency order. Returns (name, median ms) rows.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    providers = _preset_stores() if providers is None else list(providers)
    if not providers:
        raise ValueError("no providers to measure")
    rows = []
    for provider in providers:
        payload = secrets.token_bytes(ITEM_SIZE)
        locator = provider.upload(ContentItem(data=payload))
        samples = []
        try:
            for _ in range(repetitions):
                t0 = time.perf_counter()
                item = provider.fetch(locator)
                samples.append((time.perf_counter() - t0) * 1000.0)
                if item.data != payload:
                    raise StoreError("fetched bytes differ from the upload")
        finally:
            with suppress(StoreError):  # best-effort; a fetch error wins
                provider.delete(locator)
        rows.append((provider.name, statistics.median(samples)))
    return rows


# -- end to end -------------------------------------------------------------

def _random_png(rng: random.Random) -> ContentItem:
    seed = rng.randrange(2 ** 32)
    pixels = np.random.default_rng(seed).integers(
        0, 256, size=(96, 96), dtype=np.uint8)
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
                     iterations: int = FULL_SWEEP[2],
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


# -- bound checks -----------------------------------------------------------

def check_decode_bounds(report: BenchReport) -> list[str]:
    worst = max(report.samples)
    if worst > DECODE_CEILING_MS:
        return [f"{report.scenario}: max decode {worst:.2f} ms "
                f"exceeds {DECODE_CEILING_MS:g} ms"]
    return []


def check_provider_bounds(providers,
                          rows: list[tuple[str, float]]) -> list[str]:
    """Each row's median must sit in [L, L + tol], where L is the simulated
    latency of the store it measured; rows pair with providers in order.
    A store with no simulated latency, such as an HTTP client, has no
    bound."""
    problems = []
    for provider, (name, median) in zip(providers, rows, strict=True):
        floor = provider.simulated_latency
        if floor is None:
            continue
        if not floor <= median <= floor + PROVIDER_TOLERANCE_MS:
            problems.append(f"provider {name}: median {median:.2f} ms "
                            f"outside [{floor:g}, "
                            f"{floor + PROVIDER_TOLERANCE_MS:g}]")
    return problems


def check_composition_bounds(report: BenchReport, firstparty_delay: float,
                             offsite_delay: float) -> list[str]:
    floor = firstparty_delay + offsite_delay
    if not floor <= report.median <= floor + COMPOSITION_TOLERANCE_MS:
        return [f"{report.scenario}: median {report.median:.2f} ms outside "
                f"[{floor:g}, {floor + COMPOSITION_TOLERANCE_MS:g}]"]
    return []


def check_warm_bounds(report: BenchReport, offsite_delay: float) -> list[str]:
    overhead = report.median - offsite_delay
    if overhead > WARM_SLACK_MS:
        return [f"{report.scenario}: warm overhead {overhead:.2f} ms "
                f"exceeds {WARM_SLACK_MS:g} ms over the off-site floor"]
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


def write_samples_csv(reports: list[BenchReport], path: str | Path) -> None:
    """scenario,sample_ms rows, one per sample, across all reports."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "sample_ms"])
        for report in reports:
            for sample in report.samples:
                writer.writerow([report.scenario, f"{sample:.6f}"])


def write_cdf_csv(reports: list[BenchReport], path: str | Path) -> None:
    """scenario,ms,fraction rows tracing each report's CDF."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "ms", "fraction"])
        for report in reports:
            for ms, fraction in report.cdf_points:
                writer.writerow([report.scenario, f"{ms:.6f}",
                                 f"{fraction:.6f}"])


# -- the evaluation ---------------------------------------------------------

def _summary(reports: list[BenchReport]) -> str:
    return render_table(["scenario", "median_ms", "mean_ms", "p95_ms"],
                        summary_rows(reports))


def evaluate(quick: bool, qr_config: codec.QrConfig, providers,
             rng: random.Random | None, out_dir: str | None) -> list[str]:
    """Run the three sweeps, print their tables, return violated bounds.

    providers are the stores the provider table measures, or None for
    every latency preset. With out_dir, every report's samples and CDF
    go to out_dir/samples.csv and out_dir/cdf.csv.
    """
    symbols, repetitions, iterations = QUICK_SWEEP if quick else FULL_SWEEP
    print("== decode latency ==")
    decode = bench_decode(symbols, qr_config, rng)
    reports = [decode]
    print(_summary(reports))
    violations = check_decode_bounds(decode)

    print("\n== provider medians ==")
    providers = _preset_stores() if providers is None else list(providers)
    rows = bench_providers(providers, repetitions)
    print(render_table(["provider", "median_ms"], rows))
    violations += check_provider_bounds(providers, rows)

    print("\n== end to end ==")
    f = FIRSTPARTY_DELAY_MS
    for o in OFFSITE_DELAYS_MS:
        cold = bench_end_to_end(f, o, False, iterations, rng)
        warm = bench_end_to_end(f, o, True, iterations, rng)
        reports += [cold, warm]
        print(_summary([cold, warm]))
        print(f"cache saving at offsite {o:g} ms: "
              f"{cold.median - warm.median:.2f} ms")
        violations += (check_composition_bounds(cold, f, o)
                       + check_warm_bounds(warm, o))

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_samples_csv(reports, out / "samples.csv")
        write_cdf_csv(reports, out / "cdf.csv")
        print(f"\nwrote {out / 'samples.csv'} and {out / 'cdf.csv'}")
    return violations
