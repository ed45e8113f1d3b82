"""Candidate filter rules, order, reason codes, and caption marking."""

import pytest
from hypothesis import given, strategies as st

from r2o.filter import (
    CANDIDATE,
    CAPTION_MARKER,
    MAX_EDGE,
    MIN_EDGE,
    RULE_ASPECT,
    RULE_BOUNDS,
    RULE_CAPTION,
    RULE_PREFIX,
    RULE_SUBTYPE,
    Decision,
    ElementDescriptor,
    FilterConfig,
    is_candidate,
    make_caption,
)

CFG = FilterConfig()


def elem(**kw):
    base = dict(source_url="/fp/photos/abc123.png", width=512, height=512,
                media_subtype="png", caption="r2o:1 holiday")
    base.update(kw)
    return ElementDescriptor(**base)


def test_genuine_schema_is_candidate():
    d = is_candidate(elem(), CFG)
    assert d, d
    assert d.reason is None


def test_decision_truthiness():
    assert CANDIDATE
    assert not Decision(False, RULE_PREFIX)


def test_prefix_rule():
    d = is_candidate(elem(source_url="/static/banner.png"), CFG)
    assert not d and d.reason == RULE_PREFIX
    # absolute URLs are judged by path
    d = is_candidate(
        elem(source_url="http://fp.example/fp/photos/a.png"), CFG)
    assert d


def test_subtype_rule():
    d = is_candidate(elem(media_subtype="gif"), CFG)
    assert not d and d.reason == RULE_SUBTYPE
    d = is_candidate(elem(media_subtype="GIF"), CFG)
    assert not d and d.reason == RULE_SUBTYPE


def test_bounds_rule():
    for w, h in ((32, 32), (2000, 2000), (63, 63), (1025, 1025)):
        d = is_candidate(elem(width=w, height=h), CFG)
        assert not d and d.reason == RULE_BOUNDS, (w, h)
    for edge in (64, 512, 1024):
        assert is_candidate(elem(width=edge, height=edge), CFG)


def test_aspect_rule():
    d = is_candidate(elem(width=512, height=256), CFG)
    assert not d and d.reason == RULE_ASPECT


def test_unknown_dimensions_skip_geometry_rules():
    d = is_candidate(elem(width=0, height=0), CFG)
    assert d


def test_caption_rule():
    d = is_candidate(elem(caption="family picnic"), CFG)
    assert not d and d.reason == RULE_CAPTION
    assert is_candidate(elem(caption=None), CFG)  # absent caption: skip
    assert is_candidate(elem(caption="r2o:1"), CFG)


def test_rule_order_reports_first_failure():
    # wrong prefix AND gif AND non-square: prefix is the cheapest rule
    d = is_candidate(ElementDescriptor(source_url="/x/y.gif", width=10,
                                       height=20, media_subtype="gif"), CFG)
    assert d.reason == RULE_PREFIX
    # right prefix, gif, non-square: subtype precedes geometry
    d = is_candidate(ElementDescriptor(source_url="/fp/photos/a.gif",
                                       width=10, height=20,
                                       media_subtype="gif"), CFG)
    assert d.reason == RULE_SUBTYPE


def test_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(path_prefixes=())


def test_custom_config():
    cfg = FilterConfig(path_prefixes=("/gallery/",))
    assert is_candidate(elem(source_url="/gallery/a.png"), cfg)
    assert is_candidate(elem(), cfg).reason == RULE_PREFIX


def test_make_caption():
    assert make_caption("holiday") == "r2o:1 holiday"
    assert make_caption(None) == "r2o:1"
    assert make_caption("") == "r2o:1"


def test_write_read_agreement():
    # whatever the write path stamps on a photo must pass the read filter
    for user_caption in (None, "", "picnic", "r2o:1 already"):
        caption = make_caption(user_caption)
        assert is_candidate(elem(caption=caption), CFG)


@given(st.integers(min_value=0, max_value=2048),
       st.integers(min_value=0, max_value=2048))
def test_property_square_gate(width, height):
    d = is_candidate(elem(width=width, height=height, caption=None), CFG)
    known = width > 0 and height > 0
    in_bounds = (MIN_EDGE <= width <= MAX_EDGE
                 and MIN_EDGE <= height <= MAX_EDGE)
    if not known:
        assert d
    elif not in_bounds:
        assert d.reason == RULE_BOUNDS
    elif width != height:
        assert d.reason == RULE_ASPECT
    else:
        assert d


@given(st.text(min_size=0, max_size=40))
def test_property_marked_caption_always_passes(user_caption):
    caption = make_caption(user_caption or None)
    assert CAPTION_MARKER in caption
    assert is_candidate(elem(caption=caption), CFG)
