"""HTML scan and span-based rewrite for image elements.

Operates on raw UTF-8 bytes with regular-grammar tag matching so that
rewriting can guarantee byte-identity everywhere outside the replaced src
spans. A re-serializing parser could not make that promise.
"""

from __future__ import annotations

import html
import re
from dataclasses import dataclass

from .filter import ElementDescriptor

_IMG_TAG = re.compile(rb"<img\b[^>]*>", re.IGNORECASE | re.DOTALL)
# one attribute: a name, then optionally "=" and a double-quoted,
# single-quoted or bare value. Matching attribute by attribute from the tag
# name on means a name is never found inside another name (data-src) or
# inside a value (alt="... src=...").
_ATTR = re.compile(
    rb'([^\s"\'>/=]+)(?:\s*=\s*(?:"([^"]*)"|\'([^\']*)\'|([^\s>]+)))?')
_FIGCAPTION = re.compile(
    rb"\A\s*<figcaption\b[^>]*>(.*?)</figcaption>",
    re.IGNORECASE | re.DOTALL)


class SpanMismatch(ValueError):
    """Replacement spans disagree with the document they claim to target."""


@dataclass(frozen=True)
class ScannedElement:
    descriptor: ElementDescriptor
    src_span: tuple[int, int]  # byte offsets of the src attribute value


@dataclass(frozen=True)
class ScanResult:
    elements: tuple[ScannedElement, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


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
    m = _FIGCAPTION.match(document[tag_end:tag_end + 4096])
    if not m:
        return None
    text = m.group(1).decode("utf-8", errors="replace")
    return html.unescape(text.strip())


def scan_html(document: bytes) -> ScanResult:
    """Extract img elements as descriptors with exact src byte spans."""
    out: list[ScannedElement] = []
    for tag_match in _IMG_TAG.finditer(document):
        attrs = _attributes(tag_match.group(0))
        value, rel_start, rel_end = _value(attrs, b"src")
        if not value:
            continue
        src_text = value.decode("utf-8", errors="replace")
        descriptor = ElementDescriptor(
            source_url=src_text,
            width=_int_attr(attrs, b"width"),
            height=_int_attr(attrs, b"height"),
            media_subtype=_subtype_of(src_text),
            caption=_caption_after(document, tag_match.end()))
        span = (tag_match.start() + rel_start, tag_match.start() + rel_end)
        out.append(ScannedElement(descriptor=descriptor, src_span=span))
    return ScanResult(elements=tuple(out))


def rewrite_html(document: bytes, replacements) -> bytes:
    """Substitute src spans; every byte outside the spans is untouched.

    Each replacement is (span, new_src) or (span, new_src, expected_src);
    when the third member is given, the span's current content must equal
    it. Spans must be sorted, in-bounds, and non-overlapping.
    """
    normalized = []
    for rep in replacements:
        if len(rep) == 2:
            (start, end), new_src = rep
            expected = None
        else:
            (start, end), new_src, expected = rep
        normalized.append((int(start), int(end), new_src, expected))
    prev_end = 0
    for start, end, _, _ in normalized:
        if start < prev_end or end < start or end > len(document):
            raise SpanMismatch(
                f"span ({start}, {end}) overlaps a prior span or exceeds "
                f"the document")
        prev_end = end
    pieces = []
    cursor = 0
    for start, end, new_src, expected in normalized:
        current = document[start:end]
        if expected is not None and current != expected.encode("utf-8"):
            raise SpanMismatch(
                f"span ({start}, {end}) holds {current!r}, "
                f"expected {expected!r}")
        pieces.append(document[cursor:start])
        pieces.append(new_src.encode("utf-8")
                      if isinstance(new_src, str) else bytes(new_src))
        cursor = end
    pieces.append(document[cursor:])
    return b"".join(pieces)
