"""Domain types shared by the encoder and decoder."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import png
from .errors import InvalidPayload

DARK_THRESHOLD = 128  # pixel < 128 counts as dark


def validate_locator(locator: str) -> str:
    """Check the content-locator rules; returns the locator unchanged."""
    if not isinstance(locator, str) or not locator:
        raise InvalidPayload("locator must be a non-empty string")
    if not locator.isascii():
        raise InvalidPayload("locator must be ASCII")
    if not (locator.startswith("http://") or locator.startswith("https://")):
        raise InvalidPayload("locator must use an http or https scheme")
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
    """A black-and-white raster holding a rendered symbol.

    light is a 2-D bool array, True where white, as in a 1-bit PNG;
    to_png writes it at depth 1.
    """

    light: np.ndarray

    @property
    def width(self) -> int:
        return int(self.light.shape[1])

    @property
    def height(self) -> int:
        return int(self.light.shape[0])

    def to_png(self) -> bytes:
        return png.write_png(self.light)

    @classmethod
    def from_png(cls, data: bytes,
                 max_edge: int = png.MAX_EDGE) -> "PseudoImage":
        """Read a PNG; an 8-bit file is thresholded, pixel values below
        DARK_THRESHOLD reading as dark. A width or height above max_edge
        raises png.PNGTooLarge before anything is inflated."""
        pixels = png.read_png(data, max_edge)
        if pixels.dtype != np.bool_:
            pixels = pixels >= DARK_THRESHOLD
        return cls(light=pixels)


@dataclass(frozen=True)
class QrConfig:
    """Encoder knobs; the defaults render a 512x512 symbol at EC level M."""

    ec_level: str = "M"
    min_version: int = 1
    target_size: int = 512
