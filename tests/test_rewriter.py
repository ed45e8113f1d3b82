"""Scan extraction exactness and splice-only rewriting."""

import pytest

from r2o.rewriter import SpanMismatch, rewrite_html, scan_html

PAGE = b"""<html><body>
<figure>
<img src="/fp/photos/0a1b2c3d4e5f6071.png" width="512" height="512">
<figcaption>r2o:1 sunrise &amp; surf</figcaption>
</figure>
<img src='/fp/photos/aaaabbbbccccdddd.png' width='256' height='256'>
<img src=/static/banner.gif width=900 height=120>
<img alt="no source here">
<img src="">
</body></html>
"""


# -- scanning ----------------------------------------------------------------

def test_scan_finds_sourced_imgs_only():
    result = scan_html(PAGE)
    assert len(result) == 3
    urls = [el.descriptor.source_url for el in result]
    assert urls == ["/fp/photos/0a1b2c3d4e5f6071.png",
                    "/fp/photos/aaaabbbbccccdddd.png",
                    "/static/banner.gif"]


def test_scan_spans_are_exact():
    for el in scan_html(PAGE):
        start, end = el.src_span
        assert PAGE[start:end].decode() == el.descriptor.source_url


@pytest.mark.parametrize("doc", [
    b'<img src="/a/b.png" width="64" height="64">',
    b"<img src='/a/b.png' width='64' height='64'>",
    b"<img src=/a/b.png width=64 height=64>",
    b'<IMG SRC="/a/b.png" WIDTH="64" HEIGHT="64">',
    b'<img\n  src="/a/b.png"\n  width="64"\n  height="64"\n>',
])
def test_scan_handles_quote_styles_and_case(doc):
    (el,) = scan_html(doc)
    assert el.descriptor.source_url == "/a/b.png"
    assert el.descriptor.width == 64
    assert el.descriptor.height == 64
    start, end = el.src_span
    assert doc[start:end] == b"/a/b.png"


def test_scan_ignores_names_inside_other_names_and_values():
    doc = (b'<img data-src="/lazy.png" alt="see src=/fp/photos/a.png" '
           b'src="/fp/photos/abc.png" data-width="7" width="512" '
           b'height="256">')
    (el,) = scan_html(doc)
    assert el.descriptor.source_url == "/fp/photos/abc.png"
    start, end = el.src_span
    assert (start, end) == (doc.index(b"/fp/photos/abc.png"),
                            doc.index(b"/fp/photos/abc.png") + 18)
    assert el.descriptor.width == 512
    assert el.descriptor.height == 256
    assert rewrite_html(doc, [(el.src_span, "/x.png")]) == \
        doc.replace(b"/fp/photos/abc.png", b"/x.png")


@pytest.mark.parametrize("doc", [
    b'<img src src="/a.png">',  # the first src, empty, wins
    b'<img title=" src="/a.png">',  # the quoted title holds the src text
    b'<img data-src="/a.png">',
])
def test_scan_takes_only_a_real_first_src(doc):
    assert len(scan_html(doc)) == 0


def test_scan_dimension_fallbacks():
    (el,) = scan_html(b'<img src="/x.png" width="abc">')
    assert el.descriptor.width == 0
    assert el.descriptor.height == 0


def test_scan_subtype_from_extension():
    docs = {
        b'<img src="/a/photo.PNG">': "png",
        b'<img src="/a/clip.gif?x=1">': "gif",
        b'<img src="/a/noext">': "",
        b'<img src="/a/pic.jpeg#frag">': "jpeg",
    }
    for doc, subtype in docs.items():
        (el,) = scan_html(doc)
        assert el.descriptor.media_subtype == subtype


def test_scan_caption_comes_from_adjacent_figcaption():
    result = scan_html(PAGE)
    assert result.elements[0].descriptor.caption == "r2o:1 sunrise & surf"
    assert result.elements[1].descriptor.caption is None


def test_scan_caption_requires_adjacency():
    doc = (b'<img src="/a.png"><p>gap</p>'
           b'<figcaption>far away</figcaption>')
    (el,) = scan_html(doc)
    assert el.descriptor.caption is None


# -- rewriting ---------------------------------------------------------------

def test_rewrite_empty_list_is_byte_identical():
    assert rewrite_html(PAGE, []) == PAGE


def test_rewrite_replaces_only_the_spans():
    result = scan_html(PAGE)
    reps = [(el.src_span, f"http://cdn.example/obj{i}")
            for i, el in enumerate(result)]
    out = rewrite_html(PAGE, reps)
    assert b'src="http://cdn.example/obj0"' in out
    assert b"src='http://cdn.example/obj1'" in out
    assert b"src=http://cdn.example/obj2" in out

    # byte identity outside the spans: remove the spans from both sides
    def excise(doc, spans):
        kept, cursor = [], 0
        for start, end in spans:
            kept.append(doc[cursor:start])
            cursor = end
        kept.append(doc[cursor:])
        return b"".join(kept)

    out_spans = [el.src_span for el in scan_html(out)]
    in_spans = [el.src_span for el in result]
    assert excise(out, out_spans) == excise(PAGE, in_spans)


def test_rewrite_honors_expected_src_guard():
    (el,) = scan_html(b'<img src="/old.png">')
    good = rewrite_html(b'<img src="/old.png">',
                        [(el.src_span, "/new.png", "/old.png")])
    assert good == b'<img src="/new.png">'
    with pytest.raises(SpanMismatch):
        rewrite_html(b'<img src="/old.png">',
                     [(el.src_span, "/new.png", "/other.png")])


def test_rewrite_rejects_overlap_and_out_of_bounds():
    doc = b'<img src="/abcdef.png">'
    with pytest.raises(SpanMismatch):
        rewrite_html(doc, [((5, 12), "x"), ((10, 14), "y")])
    with pytest.raises(SpanMismatch):
        rewrite_html(doc, [((5, len(doc) + 3), "x")])
    with pytest.raises(SpanMismatch):
        rewrite_html(doc, [((12, 5), "x")])


def test_rewrite_accepts_bytes_payload():
    doc = b'<img src="/old.png">'
    (el,) = scan_html(doc)
    out = rewrite_html(doc, [(el.src_span, b"/raw.png")])
    assert out == b'<img src="/raw.png">'


def test_rewrite_growth_and_shrink_keep_structure():
    doc = b'<p>a</p><img src="/s.png"><p>b</p>'
    (el,) = scan_html(doc)
    longer = rewrite_html(doc, [(el.src_span, "/much/longer/target.png")])
    shorter = rewrite_html(doc, [(el.src_span, "/t")])
    assert longer.startswith(b"<p>a</p>") and longer.endswith(b"<p>b</p>")
    assert shorter == b'<p>a</p><img src="/t"><p>b</p>'
