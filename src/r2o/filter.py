"""Cheap candidate screening for scanned page elements.

Decides, without decoding anything, whether an element might be a
pseudo-object worth handing to the codec. Rejection reasons are stable
strings so corpus tests can assert exact outcomes. The filter is advisory:
decode failure remains the backstop for false positives.

The rules that say what a stand-in looks like are fixed, because every
reader must recognise every publisher's stand-ins without help from the
host: a caption, when present, holds `CAPTION_MARKER`; a GIF is never a
stand-in; and an element whose width and height are known is square,
with an edge from `MIN_EDGE` to `MAX_EDGE`, as the write path draws it.
Only the deployment's photo path prefixes are configured.
"""

from __future__ import annotations

from dataclasses import dataclass
from urllib.parse import urlsplit

from .firstparty import PHOTO_PATH_PREFIX

CAPTION_MARKER = "r2o:1"
MIN_EDGE = 64
MAX_EDGE = 1024
EXCLUDED_SUBTYPES = frozenset({"gif"})

# rule names, cheapest first; the first failing rule is reported
RULE_PREFIX = "prefix"
RULE_SUBTYPE = "subtype"
RULE_BOUNDS = "bounds"
RULE_ASPECT = "aspect_ratio"
RULE_CAPTION = "caption"


@dataclass(frozen=True)
class ElementDescriptor:
    source_url: str
    width: int = 0
    height: int = 0
    media_subtype: str = ""
    caption: str | None = None


@dataclass(frozen=True)
class FilterConfig:
    path_prefixes: tuple[str, ...] = (PHOTO_PATH_PREFIX,)

    def __post_init__(self):
        if not self.path_prefixes:
            raise ValueError("path_prefixes must be non-empty")
        object.__setattr__(self, "path_prefixes", tuple(self.path_prefixes))


@dataclass(frozen=True)
class Decision:
    accepted: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.accepted


CANDIDATE = Decision(True)


def _path_of(url: str) -> str | None:
    """The path of `url`, or None for a URL that does not parse."""
    if "://" in url:
        try:
            return urlsplit(url).path
        except ValueError:
            return None
    return url.split("?", 1)[0].split("#", 1)[0]


def is_candidate(e: ElementDescriptor, cfg: FilterConfig) -> Decision:
    """Apply the screening rules in fixed order; first failure is reported.
    A URL that does not parse fails the prefix rule."""
    path = _path_of(e.source_url)
    if path is None or not any(path.startswith(p) for p in cfg.path_prefixes):
        return Decision(False, RULE_PREFIX)
    if e.media_subtype.lower() in EXCLUDED_SUBTYPES:
        return Decision(False, RULE_SUBTYPE)
    dims_known = e.width > 0 and e.height > 0
    if dims_known:
        if not (MIN_EDGE <= e.width <= MAX_EDGE
                and MIN_EDGE <= e.height <= MAX_EDGE):
            return Decision(False, RULE_BOUNDS)
        if e.width != e.height:
            return Decision(False, RULE_ASPECT)
    if e.caption is not None and CAPTION_MARKER not in e.caption:
        return Decision(False, RULE_CAPTION)
    return CANDIDATE


def make_caption(user_caption: str | None) -> str:
    """Produce the caption the write path attaches to a pseudo-object."""
    if user_caption:
        return f"{CAPTION_MARKER} {user_caption}"
    return CAPTION_MARKER
