"""The benchmark's own tests: its output checks catch corrupted outputs.

    python3 -m pytest -q perfbench/test_checks.py

Runs against real hosts on 127.0.0.1 with small inputs, so a check that
passes everything would fail here.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import covered  # noqa: E402
from workloads import CheckFailed  # noqa: E402


@pytest.fixture(scope="module")
def browse():
    inputs = workloads.make_inputs("browse-warm", seed=7)
    # one page: two stand-ins and the four ordinary photos
    page = [p for p in inputs.pages[0] if not p.standin]
    page[1:1] = [p for p in inputs.pages[0] if p.standin][:2]
    inputs.pages = [page]
    bench = workloads.set_up("browse-cold", 7, inputs, trace=False)
    yield bench, inputs
    bench.hosts.close()


def test_resolved_page_passes(browse):
    bench, inputs = browse
    page = bench.pages[0]
    out = workloads.browse_op(bench, page,
                              workloads.fresh_reader_cache(inputs))
    workloads.check_page(out, page)
    assert len(page.standin_srcs) == 2
    assert all(s not in out for s in page.standin_srcs)


def test_corrupted_ordinary_tag_is_caught(browse):
    bench, inputs = browse
    page = bench.pages[0]
    out = workloads.browse_op(bench, page,
                              workloads.fresh_reader_cache(inputs))
    corrupted = out.replace(b'width="240"', b'width="241"', 1)
    assert corrupted != out
    with pytest.raises(CheckFailed, match="differs"):
        workloads.check_page(corrupted, page)


def test_unreplaced_standin_is_caught(browse):
    bench, inputs = browse
    page = bench.pages[0]
    out = workloads.browse_op(bench, page,
                              workloads.fresh_reader_cache(inputs))
    raw = workloads._get(page.url)
    with pytest.raises(CheckFailed, match="not replaced"):
        workloads.check_page(raw, page)
    # one stand-in rewritten to the wrong locator
    locator = out.split(b'src="')[2].split(b'"')[0]
    assert locator.startswith(b"http://127.0.0.1:")
    wrong = locator[:-1] + (b"1" if locator.endswith(b"0") else b"0")
    with pytest.raises(CheckFailed, match="differs"):
        workloads.check_page(out.replace(locator, wrong), page)


def test_publish_checks_catch_corruption():
    inputs = workloads.make_inputs("publish", seed=7)
    bench = workloads.set_up("publish", 7, inputs, trace=False)
    try:
        good = [workloads.publish_op(bench, inputs, i) for i in range(2)]
        assert workloads.verify_published(good) == []
        wrong_bytes = dataclasses.replace(good[0], original=b"\x00" * 10)
        swapped = dataclasses.replace(good[0], receipt=dataclasses.replace(
            good[0].receipt, pseudo_locator=good[1].receipt.pseudo_locator))
        reasons = workloads.verify_published([wrong_bytes, swapped])
    finally:
        bench.hosts.close()
    assert reasons == ["off-site object differs from the original",
                       "pseudo-image decodes to another locator"]
    with pytest.raises(CheckFailed, match="does not decode"):
        workloads.check_published(good[0], b"not a png", good[0].original)


def test_expected_page_swaps_only_standin_srcs():
    raw = (b'<img src="/fp/photos/a.png" width="9">\n'
           b'<img src="/fp/photos/b.png" width="9">\n')
    out = workloads.expected_page(raw, [("/fp/photos/a.png", "http://x/1")])
    assert out == raw.replace(b"/fp/photos/a.png", b"http://x/1")
    with pytest.raises(CheckFailed):
        workloads.expected_page(raw, [("/fp/photos/c.png", "http://x/1")])


def test_inputs_follow_the_seed():
    a = workloads.make_inputs("browse-cold", seed=3)
    b = workloads.make_inputs("browse-cold", seed=3)
    c = workloads.make_inputs("browse-cold", seed=4)
    assert a.mapping_blob == b.mapping_blob != c.mapping_blob
    assert [p.data for p in a.pages[0]] == [p.data for p in b.pages[0]]
    assert a.pages[0][0].data != c.pages[0][0].data
    assert sum(p.standin for p in a.pages[0]) == workloads.STANDINS_PER_PAGE


def test_tail_and_coverage():
    samples = [float(i) for i in range(1, 101)]
    assert run.tail(samples) == (90.0, 90.0, 10)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0, 0)
    assert covered([(0, 2), (1, 3), (5, 9)], 0, 6) == 4


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == run.per_layer_spec()
