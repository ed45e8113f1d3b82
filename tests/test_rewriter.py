"""Scan extraction exactness and splice-only rewriting."""

import time

import pytest
from hypothesis import given, strategies as st

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
    assert rewrite_html(doc, [(el.src_span, "/x.png",
                               "/fp/photos/abc.png")]) == \
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


def test_scan_caption_start_tag_is_read_like_any_tag():
    img = b'<img src=/fp/photos/0a1b2c3d4e5f6071.png width=512 height=512>'
    (el,) = scan_html(img + b'<figcaption title="a>b">r2o:1 beach'
                      b'</figcaption>')
    assert el.descriptor.caption == "r2o:1 beach"
    (el,) = scan_html(img + b"<figcaptionx>r2o:1 beach</figcaption>")
    assert el.descriptor.caption is None


# -- rewriting ---------------------------------------------------------------

def test_rewrite_empty_list_is_byte_identical():
    assert rewrite_html(PAGE, []) == PAGE


def test_rewrite_replaces_only_the_spans():
    result = scan_html(PAGE)
    reps = [(el.src_span, f"http://cdn.example/obj{i}",
             el.descriptor.source_url) for i, el in enumerate(result)]
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
        rewrite_html(doc, [((5, 12), "x", doc[5:12].decode()),
                           ((10, 14), "y", doc[10:14].decode())])
    with pytest.raises(SpanMismatch):
        rewrite_html(doc, [((5, len(doc) + 3), "x", doc[5:].decode())])
    with pytest.raises(SpanMismatch):
        rewrite_html(doc, [((12, 5), "x", "")])


def test_rewrite_accepts_bytes_payload():
    doc = b'<img src="/old.png">'
    (el,) = scan_html(doc)
    out = rewrite_html(doc, [(el.src_span, b"/raw.png", "/old.png")])
    assert out == b'<img src="/raw.png">'


def test_rewrite_growth_and_shrink_keep_structure():
    doc = b'<p>a</p><img src="/s.png"><p>b</p>'
    (el,) = scan_html(doc)
    longer = rewrite_html(doc, [(el.src_span, "/much/longer/target.png",
                                 "/s.png")])
    shorter = rewrite_html(doc, [(el.src_span, "/t", "/s.png")])
    assert longer.startswith(b"<p>a</p>") and longer.endswith(b"<p>b</p>")
    assert shorter == b'<p>a</p><img src="/t"><p>b</p>'


# -- tokenizer fidelity ------------------------------------------------------

REAL = b"/fp/photos/0a1b2c3d4e5f6071.png"


def _srcs(doc):
    return [el.descriptor.source_url for el in scan_html(doc)]


@pytest.mark.parametrize("doc", [
    b'<img alt="a>b" src="/fp/photos/0a1b2c3d4e5f6071.png">',
    b"<img alt='>' title=\"'>\" src=/fp/photos/0a1b2c3d4e5f6071.png>",
    b'<img alt = "x"src="/fp/photos/0a1b2c3d4e5f6071.png">',
    b'<img/src="/fp/photos/0a1b2c3d4e5f6071.png"/>',
])
def test_scan_keeps_quoted_gt_inside_the_tag(doc):
    (el,) = scan_html(doc)
    assert el.descriptor.source_url == REAL.decode()
    start, end = el.src_span
    assert doc[start:end] == REAL
    assert rewrite_html(doc, [(el.src_span, "/x.png", REAL.decode())]) == \
        doc.replace(REAL, b"/x.png")


@pytest.mark.parametrize("hidden", [
    b'<!-- <img src="/fp/photos/dead.png"> -->',
    b'<!--x--!><!-- -- <img src="/fp/photos/dead.png"> -->',
    b'<script>var s = "<img src=/fp/photos/dead.png>";</script>',
    b"<SCRIPT type=x>'</scriptx><img src=/fp/photos/dead.png>'</Script >",
    b'<script><!--<script></script><img src=/fp/photos/dead.png>'
    b'--></script>',
    b'<style>a::after { content: "<img src=/fp/photos/dead.png>" }</style>',
    b'<textarea><img src="/fp/photos/dead.png"></TEXTAREA>',
    b'<title><img src="/fp/photos/dead.png"></title>',
    b'<xmp><img src=/fp/photos/dead.png></xmp>',
    b'<noembed><img src=/fp/photos/dead.png></noembed>',
    b'<a title="<img src=/fp/photos/dead.png>">x</a>',
    b"<div data-x='<img src=\"/fp/photos/dead.png\">'></div>",
    b'<img alt="<img src=/fp/photos/dead.png>" src=/fp/photos/x.png>',
    b'<? <img src=/fp/photos/dead.png>',
    b'<!x <img src=/fp/photos/dead.png>',
    b'</ <img src=/fp/photos/dead.png>',
])
def test_scan_skips_tags_browsers_do_not_make(hidden):
    doc = hidden + b'<p>text</p><img src="' + REAL + b'">'
    assert [s for s in _srcs(doc) if "dead" in s] == []
    assert _srcs(doc)[-1] == REAL.decode()


@pytest.mark.parametrize("doc", [
    b'<img src="/fp/photos/a.png"',  # no ">" before the end
    b'<img alt="x> src=/fp/photos/a.png>',  # the quote never closes
    b'<a title="<img src=/fp/photos/a.png>',
    b'<!-- <img src=/fp/photos/a.png>',
    b'<script><img src=/fp/photos/a.png></scrip>',
    b'<plaintext></plaintext><img src=/fp/photos/a.png>',
    b'<imgx src=/fp/photos/a.png>',
    b'<img a= src=/fp/photos/a.png>',  # src= is a's bare value
    b'<img ="a>" src="/fp/photos/a.png">',  # the name is ="a
])
def test_scan_finds_no_element(doc):
    assert scan_html(doc).elements == ()


def test_scan_script_escapes_end_where_browsers_do():
    # "<!-->" opens and closes at once, so the end tag ends the script
    doc = b"<script><!--></script><img src=/fp/photos/a.png>"
    assert _srcs(doc) == ["/fp/photos/a.png"]
    # an escaped end tag still ends the script
    doc = b"<script><!-- x </script><img src=/fp/photos/a.png>"
    assert _srcs(doc) == ["/fp/photos/a.png"]
    # a double-escaped one does not, until "-->" leaves the escape
    doc = (b"<script><!--<script>x</script>--></script>"
           b"<img src=/fp/photos/a.png>")
    assert _srcs(doc) == ["/fp/photos/a.png"]


@pytest.mark.parametrize("doc", [
    b"<img " * 50000,
    b"<p a='x>y' b=\">\">" * 20000,
    b'<a b="' + b"x" * 500000,
    b"<!--" * 100000,
    b"<script><!--<script>" * 20000,
    b"< " * 200000,
    # a figcaption with no end tag: its 40-byte attribute name splits
    # into names in 2^39 ways, should the start tag ever backtrack
    b"<img src=/a.png><figcaption " + b"a" * 40 + b">" + b"x" * 4000,
])
def test_scan_is_linear_on_hostile_pages(doc):
    t0 = time.perf_counter()
    scan_html(doc)
    assert time.perf_counter() - t0 < 0.5


# -- fuzzing -----------------------------------------------------------------

_TEXT = st.sampled_from([
    b"a", b" ", b"\n", b"&amp;", b"1 < 2", b">", b"'", b'"', b"=", b"-->",
    b"--", b"</p>", b"<p>", b'<p class="a>b">', b"<br/>", b"<!DOCTYPE html>",
    b"</>", b"<figure>", b"</script>", b"</textarea>"])
# inside a quoted value: anything but that quote
_VALUE_BITS = st.sampled_from([
    b"x", b" ", b">", b"<", b"=", b"/", b"-->", b"<!--", b"<script>",
    b"src=", b'<img src="/fp/photos/dead.png">',
    b"<img src=/fp/photos/dead.png>", b"'", b'"'])
_NAMES = st.sampled_from([b"alt", b"title", b"data-src", b"srcset",
                          b"width", b"class", b"a\"b", b"x'", b"SRCX"])
_SPACE = st.sampled_from([b" ", b"\n", b"\t", b"  ", b"/", b" / "])


@st.composite
def _attribute(draw):
    name = draw(_NAMES)
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return name
    eq = draw(st.sampled_from([b"=", b" = ", b"=\n"]))
    if kind == 3:
        bare = draw(st.sampled_from([b"x", b"1", b"a=b", b"p\"q", b"<i"]))
        return name + eq + bare
    quote = b'"' if kind == 1 else b"'"
    value = b"".join(v for v in draw(st.lists(_VALUE_BITS, max_size=4))
                     if quote not in v)
    return name + eq + quote + value + quote


@st.composite
def _real_img(draw):
    """(tag, offset of the src value in it) for an img with one src."""
    attrs = draw(st.lists(_attribute(), max_size=3))
    at = draw(st.integers(0, len(attrs)))
    quote = draw(st.sampled_from([b'"', b"'", b""]))
    tag = b"<" + draw(st.sampled_from([b"img", b"IMG", b"iMg"]))
    offset = None
    for i in range(len(attrs) + 1):
        tag += draw(_SPACE)
        if i == at:
            tag += draw(st.sampled_from([b"src", b"SRC"])) + b"=" + quote
            offset = len(tag)
            tag += REAL + quote
            if not quote:
                tag += b" "  # a bare value ends at whitespace
        if i < len(attrs):
            tag += attrs[i]
            if not attrs[i].endswith((b'"', b"'")):
                tag += b" "  # a bare value would take a "/" that follows
    return tag + draw(st.sampled_from([b">", b"/>", b" >"])), offset


_DECOY = b'<img src="/fp/photos/dead.png">'
_HIDING = st.sampled_from([
    b"<!--" + _DECOY + b"-->", b"<!---->" + b"<!--" + _DECOY + b"--!>",
    b"<script>" + _DECOY + b"</script>",
    b"<script><!--" + _DECOY + b"--></script>",
    b"<script><!--<script>" + _DECOY + b"</script>" + _DECOY
    + b"--></script>",
    b"<style>" + _DECOY + b"</style >", b"<textarea>" + _DECOY
    + b"</TEXTAREA>", b"<title>" + _DECOY + b"</title>",
    b'<a title="' + _DECOY + b'">', b"<b x='" + _DECOY + b"'>",
    b"<?" + _DECOY, b"<!x" + _DECOY])


@given(st.lists(st.one_of(_TEXT, _HIDING, _real_img()), max_size=12))
def test_property_scan_finds_exactly_the_real_imgs(pieces):
    doc = b""
    want = []
    for piece in pieces:
        if isinstance(piece, tuple):
            tag, offset = piece
            want.append((len(doc) + offset, len(doc) + offset + len(REAL)))
            piece = tag
        doc += piece
    result = scan_html(doc)
    assert [el.src_span for el in result] == want
    assert all(el.descriptor.source_url == REAL.decode() for el in result)


@given(st.lists(st.one_of(_TEXT, _HIDING, _real_img().map(lambda t: t[0]),
                          st.binary(max_size=8),
                          st.sampled_from([b"<img", b"<img src=", b'"',
                                           b"'", b"<!--", b"<script>"])),
                max_size=16))
def test_property_spans_are_exact_on_any_page(pieces):
    doc = b"".join(pieces)
    result = scan_html(doc)
    spans = [el.src_span for el in result]
    assert spans == sorted(spans)
    for el in result:
        start, end = el.src_span
        assert 0 <= start < end <= len(doc)
        assert doc[start:end].decode("utf-8", errors="replace") == \
            el.descriptor.source_url
    # replacing every src keeps every tag, so a rescan finds the same; a
    # src that is not UTF-8 fails the expected-src check instead
    reps = []
    for el in result:
        rep = (el.src_span, "/r.png", el.descriptor.source_url)
        start, end = el.src_span
        if doc[start:end] == el.descriptor.source_url.encode("utf-8"):
            reps.append(rep)
        else:
            with pytest.raises(SpanMismatch):
                rewrite_html(doc, [rep])
    out = rewrite_html(doc, reps)
    assert len(scan_html(out)) == len(result)
