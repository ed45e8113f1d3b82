"""HTML scan and span-based rewrite for image elements.

Operates on raw UTF-8 bytes with regular-grammar tag matching so that
rewriting can guarantee byte-identity everywhere outside the replaced src
spans. A re-serializing parser could not make that promise.

The scanner follows the HTML tokenizer (https://html.spec.whatwg.org/
#tokenization) as far as finding img start tags needs: a quoted attribute
value may hold ">" or "<img", comments and bogus comments are skipped, and
so is the text of script, style, textarea, title, xmp, iframe, noembed,
noframes and plaintext elements, where a browser makes no tags. Script
text follows the tokenizer's escaped states, so "<!-- <script>" hides a
"</script>" inside it. A tag cut off by the end of the document is no tag.
"""

from __future__ import annotations

import html
import re
from dataclasses import dataclass

from .filter import ElementDescriptor

_WS = rb"\t\n\f\r "  # HTML whitespace
# the attributes of a tag after its name, as the tokenizer reads them: a
# name (which may start with "="), then optionally "=" and a double-quoted,
# single-quoted or bare value; a value cut off by the end of the document
# runs to it
_NAME = rb"(?:=|[^%s/>=])[^%s/>=]*" % (_WS, _WS)
_VALUE = (rb'"[^"]*(?:"|\Z)|\'[^\']*(?:\'|\Z)|[^%s>"\'][^%s>]*|(?=>|\Z)'
          % (_WS, _WS))
_TAG_REST = rb"(?:[%s/]+|%s(?:[%s]*=[%s]*(?:%s))?)*" % (
    _WS, _NAME, _WS, _WS, _VALUE)
# elements whose text holds no tags; the scanner stops at their start tags
# and at img start tags
_RAW_TEXT = (b"script", b"style", b"textarea", b"title", b"xmp", b"iframe",
             b"noembed", b"noframes", b"plaintext")
_STOP = rb"(?:img|%s)(?=[%s/>]|\Z)" % (b"|".join(_RAW_TEXT), _WS)
# from a position: skip text, comments, doctypes, bogus comments and every
# other tag, then take the next img or raw-text start tag (group 1: its
# name, group 2: its closing ">"), or stop at the end of the document
_SCAN = re.compile(
    rb"(?:[^<]+"
    rb"|<!--(?:-?>|.*?(?:--!?>|\Z))"
    rb"|<(?:!|\?|/(?![a-zA-Z]))[^>]*(?:>|\Z)"
    rb"|</[a-zA-Z][^%(ws)s/>]*%(rest)s(?:>|\Z)"
    rb"|<(?!%(stop)s)[a-zA-Z][^%(ws)s/>]*%(rest)s(?:>|\Z)"
    rb"|<(?![a-zA-Z!/?]))*"
    rb"(?:<(?=%(stop)s)([a-zA-Z]+)%(rest)s(?:(>)|\Z)|\Z)"
    % {b"stop": _STOP, b"ws": _WS, b"rest": _TAG_REST},
    re.IGNORECASE | re.DOTALL)
_RAW_TEXT_END = {name: re.compile(rb"</%s(?=[%s/>])" % (name, _WS),
                                  re.IGNORECASE)
                 for name in _RAW_TEXT if name != b"plaintext"}
# the marks that move script text between its data, escaped and
# double-escaped states; group 1: "<!--" closed at once, group 2: "/" of an
# end tag
_SCRIPT_MARK = re.compile(rb"<!--(-*>)?|-->|<(/?)script(?=[%s/>])" % _WS,
                          re.IGNORECASE)
# one attribute inside a tag, read as _TAG_REST reads it; groups 2-4 hold a
# double-quoted, single-quoted or bare value. Matching attribute by
# attribute from the tag name on means a name is never found inside
# another name (data-src) or inside a value (alt="... src=...").
_ATTR = re.compile(rb'(%s)(?:[%s]*=[%s]*(?:"([^"]*)"|\'([^\']*)\''
                   rb'|([^%s>"\'][^%s>]*)|(?=>)))?'
                   % (_NAME, _WS, _WS, _WS, _WS))
# a figcaption start tag, read with the scanner's tag grammar (group 1:
# its closing ">"), and the caption text after it. The start tag ends in
# ">" or at the end of the text, so it matches without backtracking into
# _TAG_REST, whose attribute names can split in exponentially many ways.
_FIGCAPTION = re.compile(rb"\s*<figcaption(?=[%s/>])%s(?:(>)|\Z)"
                         % (_WS, _TAG_REST), re.IGNORECASE)
_CAPTION_TEXT = re.compile(rb"(.*?)</figcaption>", re.IGNORECASE | re.DOTALL)
# what a src value can hold, by its quote, read as _ATTR reads values: a
# quoted value ends at its own quote, and a bare one at whitespace or ">",
# and a bare one that is empty or opens with a quote reads as another value
_FITS = {b'"': re.compile(rb'[^"]*'), b"'": re.compile(rb"[^']*"),
         b"": re.compile(rb"[^%s>\"'][^%s>]*" % (_WS, _WS))}


class SpanMismatch(ValueError):
    """Replacement spans disagree with the document they claim to target."""


@dataclass(frozen=True)
class ScannedElement:
    descriptor: ElementDescriptor
    src_span: tuple[int, int]  # byte offsets of the src attribute value
    quote: bytes  # the value's quote: b'"', b"'", or b"" when bare


def _attributes(tag: bytes) -> dict[bytes, re.Match]:
    """Lower-cased name -> its attribute; the first of a name wins, as in
    HTML."""
    return {m.group(1).lower(): m
            for m in reversed(list(_ATTR.finditer(tag, len(b"<img"))))}


def _value(attrs: dict[bytes, re.Match],
           name: bytes) -> tuple[bytes, int, int]:
    """The value of an attribute and its offsets in the tag; empty when the
    attribute is missing or has no value."""
    m = attrs.get(name)
    g = m.lastindex if m else 1  # group 1 is the name: there is no value
    if g == 1:
        return b"", 0, 0
    return m.group(g), m.start(g), m.end(g)


def _int_attr(attrs: dict[bytes, re.Match], name: bytes) -> int:
    try:
        return max(0, int(_value(attrs, name)[0]))
    except ValueError:
        return 0


def _subtype_of(src: str) -> str:
    path = src.split("?", 1)[0].split("#", 1)[0]
    if "." in path.rsplit("/", 1)[-1]:
        return path.rsplit(".", 1)[-1].lower()
    return ""


def _caption_after(document: bytes, tag_end: int) -> str | None:
    end = tag_end + 4096
    start = _FIGCAPTION.match(document, tag_end, end)
    if not start or not start.group(1):
        return None
    m = _CAPTION_TEXT.match(document, start.end(), end)
    if not m:
        return None
    text = m.group(1).decode("utf-8", errors="replace")
    return html.unescape(text.strip())


def _script_end(document: bytes, pos: int) -> int:
    """Where script text from pos ends: the "<" of its end tag, or the end
    of the document.

    After "<!--" the text is escaped, and an escaped "<script>" makes the
    next "</script>" return to escaped text instead of ending it; "-->"
    leaves both states.
    """
    escaped = double = False
    for m in _SCRIPT_MARK.finditer(document, pos):
        if m.group(2) == b"/":
            if not double:
                return m.start()
            double = False
        elif m.group(2) is not None:
            double = double or escaped
        elif m.group(0).startswith(b"<!--") and m.group(1) is None:
            escaped = True
        else:  # "-->", or a "<!--" that closes at once
            escaped = double = False
    return len(document)


def _raw_text_end(document: bytes, name: bytes, pos: int) -> int:
    """Where the text of a raw-text element from pos ends: the "<" of its
    end tag, or the end of the document (always, for plaintext)."""
    if name == b"script":
        return _script_end(document, pos)
    if name == b"plaintext":
        return len(document)
    m = _RAW_TEXT_END[name].search(document, pos)
    return m.start() if m else len(document)


def _element(document: bytes, start: int, end: int) -> ScannedElement | None:
    """The img tag document[start:end] as an element, or None when it has
    no src value."""
    attrs = _attributes(document[start:end])
    value, rel_start, rel_end = _value(attrs, b"src")
    if not value:
        return None
    src_text = value.decode("utf-8", errors="replace")
    descriptor = ElementDescriptor(
        source_url=src_text,
        width=_int_attr(attrs, b"width"),
        height=_int_attr(attrs, b"height"),
        media_subtype=_subtype_of(src_text),
        caption=_caption_after(document, end))
    quote = document[start + rel_start - 1:start + rel_start]
    return ScannedElement(descriptor=descriptor,
                          src_span=(start + rel_start, start + rel_end),
                          quote=quote if quote in (b'"', b"'") else b"")


def scan_html(document: bytes) -> tuple[ScannedElement, ...]:
    """Extract img elements as descriptors with exact src byte spans."""
    out: list[ScannedElement] = []
    pos = 0
    while True:
        m = _SCAN.match(document, pos)
        pos = m.end()
        if m.group(2) is None:  # the end, or a tag cut off by it
            return tuple(out)
        name = m.group(1).lower()
        if name != b"img":
            pos = _raw_text_end(document, name, pos)
            continue
        element = _element(document, m.start(1) - 1, pos)
        if element is not None:
            out.append(element)


def fits(element: ScannedElement, new_src: str | bytes) -> bool:
    """Whether new_src can stand as the element's src value: it holds
    neither the value's own quote nor, when the value is bare, whitespace
    or ">", so it cannot end the value and start markup of its own."""
    if isinstance(new_src, str):
        new_src = new_src.encode("utf-8")
    return _FITS[element.quote].fullmatch(new_src) is not None


def rewrite_html(document: bytes, replacements) -> bytes:
    """Substitute src spans; every byte outside the spans is untouched.

    Each replacement is (element, new_src) for an element that
    `scan_html(document)` found: its span must still hold the src it was
    scanned with, and new_src must fit its quoting (`fits`). Spans must be
    sorted, in-bounds, and non-overlapping.
    """
    replacements = list(replacements)
    prev_end = 0
    for element, _ in replacements:
        start, end = element.src_span
        if start < prev_end or end < start or end > len(document):
            raise SpanMismatch(
                f"span ({start}, {end}) overlaps a prior span or exceeds "
                f"the document")
        prev_end = end
    pieces = []
    cursor = 0
    for element, new_src in replacements:
        start, end = element.src_span
        current = document[start:end]
        expected = element.descriptor.source_url
        if current != expected.encode("utf-8"):
            raise SpanMismatch(
                f"span ({start}, {end}) holds {current!r}, "
                f"expected {expected!r}")
        new = (new_src.encode("utf-8") if isinstance(new_src, str)
               else bytes(new_src))
        if not fits(element, new):
            raise SpanMismatch(
                f"{new!r} does not fit the src value at ({start}, {end})")
        pieces.append(document[cursor:start])
        pieces.append(new)
        cursor = end
    pieces.append(document[cursor:])
    return b"".join(pieces)
