"""Report construction, timing harness behavior, and bound checks."""

import csv
import random

import pytest
from hypothesis import given, strategies as st

from r2o import bench, codec
from r2o.store import LATENCY_PRESETS, MemoryStore, preset_store


# -- report construction -----------------------------------------------------

def test_make_report_known_values():
    report = bench.make_report("x", [3.0, 1.0, 2.0, 2.0, 5.0])
    assert report.samples == (3.0, 1.0, 2.0, 2.0, 5.0)
    assert report.median == 2.0
    assert report.mean == pytest.approx(2.6)
    assert report.p95 == 5.0
    assert report.cdf_points == ((1.0, 0.2), (2.0, 0.6), (3.0, 0.8),
                                 (5.0, 1.0))


def test_make_report_single_sample():
    report = bench.make_report("one", [4.2])
    assert report.median == report.mean == report.p95 == 4.2
    assert report.cdf_points == ((4.2, 1.0),)


def test_make_report_p95_nearest_rank():
    samples = [float(i) for i in range(1, 101)]
    assert bench.make_report("p", samples).p95 == 95.0
    assert bench.make_report("p", samples[:20]).p95 == 19.0


def test_make_report_rejects_empty():
    with pytest.raises(ValueError):
        bench.make_report("none", [])


@given(st.lists(st.floats(min_value=0.0, max_value=1e4,
                          allow_nan=False), min_size=1, max_size=60))
def test_report_invariants(samples):
    report = bench.make_report("h", samples)
    xs = [p[0] for p in report.cdf_points]
    fs = [p[1] for p in report.cdf_points]
    assert xs == sorted(xs) and len(set(xs)) == len(xs)
    assert fs == sorted(fs)
    assert fs[-1] == pytest.approx(1.0)
    assert min(samples) <= report.median <= max(samples)
    assert report.p95 >= report.median
    assert report.mean == pytest.approx(sum(samples) / len(samples))


def test_random_urls_are_valid_and_deterministic():
    a = bench.random_urls(30, random.Random(5))
    b = bench.random_urls(30, random.Random(5))
    assert a == b
    assert len(set(a)) == 30
    for url in a:
        assert url.startswith("http://bench.invalid/")
        assert len(url) <= 200
        codec.serialize_payload(codec.IndirectionPayload(locator=url))


# -- decode timing -----------------------------------------------------------

def test_bench_decode_shape():
    report = bench.bench_decode(8, rng=random.Random(1))
    assert report.scenario == "decode-8"
    assert len(report.samples) == 8
    assert all(s > 0 for s in report.samples)


def test_bench_decode_rejects_zero():
    with pytest.raises(ValueError):
        bench.bench_decode(0)


# -- provider medians --------------------------------------------------------

def test_bench_providers_subset():
    fast = [preset_store("facebook_cdn"), preset_store("imgur")]
    rows = bench.bench_providers(fast, repetitions=5)
    assert [name for name, _ in rows] == ["facebook_cdn", "imgur"]
    for name, median in rows:
        preset = LATENCY_PRESETS[name]
        assert preset <= median <= preset + bench.PROVIDER_TOLERANCE_MS


def test_bench_providers_rejects_empty():
    with pytest.raises(ValueError):
        bench.bench_providers([])


# -- end to end --------------------------------------------------------------

def test_bench_end_to_end_cold_and_warm():
    rng = random.Random(3)
    cold = bench.bench_end_to_end(5.0, 25.0, use_cache=False, iterations=5,
                                  rng=rng)
    warm = bench.bench_end_to_end(5.0, 25.0, use_cache=True, iterations=5,
                                  rng=rng)
    assert cold.scenario == "e2e-f5-o25-cold"
    assert warm.scenario == "e2e-f5-o25-warm"
    # cold pays firstparty page + pseudo fetch + offsite; warm only
    # page + offsite
    assert cold.median >= 25.0 + 5.0
    assert warm.median >= 25.0
    assert cold.median > warm.median


def test_bench_end_to_end_validation():
    with pytest.raises(ValueError):
        bench.bench_end_to_end(-1.0, 0.0, use_cache=False)
    with pytest.raises(ValueError):
        bench.bench_end_to_end(0.0, 0.0, use_cache=False, iterations=0)


# -- bound checks ------------------------------------------------------------

def test_check_decode_bounds():
    ok = bench.make_report("decode-3", [1.0, 2.0, 3.0])
    assert bench.check_decode_bounds(ok) == []
    slow = bench.make_report("decode-3", [1.0, 2.0, 80.0])
    (violation,) = bench.check_decode_bounds(slow)
    assert "80" in violation


def test_check_provider_bounds():
    rows = [("imgur", 13.0), ("flickr", 150.0)]
    assert bench.check_provider_bounds(rows) == []
    assert bench.check_provider_bounds([("imgur", 40.0)])
    assert bench.check_provider_bounds([("imgur", 11.0)])
    # names outside the preset table carry no bound
    assert bench.check_provider_bounds([("lab", 999.0)]) == []


def test_check_composition_bounds():
    inside = bench.make_report("e2e", [160.0, 165.0, 170.0])
    assert bench.check_composition_bounds(inside, 11.0, 147.0) == []
    below = bench.make_report("e2e", [100.0])
    above = bench.make_report("e2e", [400.0])
    assert bench.check_composition_bounds(below, 11.0, 147.0)
    assert bench.check_composition_bounds(above, 11.0, 147.0)


def test_check_warm_bounds():
    good = bench.make_report("warm", [148.0, 149.0])
    assert bench.check_warm_bounds(good, 147.0) == []
    bad = bench.make_report("warm", [190.0])
    assert bench.check_warm_bounds(bad, 147.0)


# -- rendering and CSV -------------------------------------------------------

def test_render_table_alignment():
    text = bench.render_table(["name", "ms"], [("a", 1.5), ("bb", 10.25)])
    lines = text.splitlines()
    assert len(lines) == 4  # header, rule, two rows
    assert "name" in lines[0] and "ms" in lines[0]
    assert "1.50" in text and "10.25" in text
    assert len({len(line) for line in lines if line}) == 1


def test_summary_rows():
    reports = [bench.make_report("a", [1.0, 2.0]),
               bench.make_report("b", [3.0])]
    rows = bench.summary_rows(reports)
    # scenario, median, mean, p95
    assert rows == [("a", 1.5, 1.5, 2.0), ("b", 3.0, 3.0, 3.0)]


def test_csv_writers(tmp_path):
    reports = [bench.make_report("s1", [1.0, 2.0, 2.0]),
               bench.make_report("s2", [7.0])]
    samples_path = tmp_path / "samples.csv"
    cdf_path = tmp_path / "cdf.csv"
    bench.write_samples_csv(reports, str(samples_path))
    bench.write_cdf_csv(reports, str(cdf_path))

    with open(samples_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["scenario", "sample_ms"]
    assert len(rows) == 1 + 4
    assert rows[1][0] == "s1" and float(rows[1][1]) == 1.0

    with open(cdf_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["scenario", "ms", "fraction"]
    # s1 has two distinct values, s2 one
    assert len(rows) == 1 + 3
    by_scenario = {}
    for scenario, ms, fraction in rows[1:]:
        by_scenario.setdefault(scenario, []).append(
            (float(ms), float(fraction)))
    assert by_scenario["s1"][-1][1] == 1.0
    assert by_scenario["s2"] == [(7.0, 1.0)]
