"""Domain types shared by the encoder and decoder."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import png
from .errors import InvalidPayload

DARK_THRESHOLD = 128  # pixel < 128 counts as dark

# RFC 3986 section 2: unreserved and reserved characters, and %HH. Space,
# controls, '"', '<', '>', '`', '\', '{', '}', '|' and '^' are left out,
# so a locator cannot close a double-quoted attribute value or a tag
_URI_CHAR = r"[A-Za-z0-9\-._~:/?#\[\]@!$&'()*+,;=]"
_URI = re.compile(rf"{_URI_CHAR}*(?:%[0-9A-Fa-f]{{2}}{_URI_CHAR}*)*")


def validate_locator(locator: str) -> str:
    """Check that a locator is an http(s) URI of RFC 3986 characters;
    returns the locator unchanged."""
    if not isinstance(locator, str) or not locator:
        raise InvalidPayload("locator must be a non-empty string")
    if not (locator.startswith("http://") or locator.startswith("https://")):
        raise InvalidPayload("locator must use an http or https scheme")
    if not _URI.fullmatch(locator):
        raise InvalidPayload("locator has a character outside RFC 3986")
    return locator


@dataclass(frozen=True)
class IndirectionPayload:
    """What a pseudo-image carries: where the real content lives."""

    locator: str

    def validate(self) -> "IndirectionPayload":
        validate_locator(self.locator)
        return self


@dataclass
class PseudoImage:
    """A black-and-white raster holding a rendered symbol, as the
    scanline bytes of a 1-bit PNG: rows is 2-D uint8, (width + 7) // 8
    bytes a row, pixel x is bit 7 - x % 8 of byte x // 8, set where
    white, and the padding bits after the last pixel are set too."""

    rows: np.ndarray
    width: int

    @property
    def height(self) -> int:
        return int(self.rows.shape[0])

    def to_png(self) -> bytes:
        return png.write_png(self.rows, self.width, 1)

    @classmethod
    def from_png(cls, data: bytes,
                 max_edge: int = png.MAX_EDGE) -> "PseudoImage":
        """Read a PNG; an 8-bit file is thresholded and packed, pixel
        values below DARK_THRESHOLD reading as dark. A width or height
        above max_edge raises png.PNGTooLarge before anything is
        inflated."""
        rows, width, depth = png.read_png(data, max_edge)
        if depth == 8:
            rows = png.pack_rows(rows >= DARK_THRESHOLD)
        return cls(rows=rows, width=width)


@dataclass(frozen=True)
class QrConfig:
    """Encoder knobs; the defaults render a 512x512 symbol at EC level M."""

    ec_level: str = "M"
    min_version: int = 1
    target_size: int = 512
