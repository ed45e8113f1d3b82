"""Domain types shared by the encoder and decoder."""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Grayscale raster holding a rendered symbol.

    light is the same raster as bools, True where white, when it is known
    to be pure black and white (the encoder's render sets it); to_png then
    writes a 1-bit PNG. Code that edits pixels in place must drop it.
    """

    pixels: np.ndarray
    light: np.ndarray | None = field(default=None, repr=False,
                                     compare=False)

    @property
    def width(self) -> int:
        return int(self.pixels.shape[1])

    @property
    def height(self) -> int:
        return int(self.pixels.shape[0])

    def to_png(self) -> bytes:
        return png.write_png(self.pixels if self.light is None
                             else self.light)

    @classmethod
    def from_png(cls, data: bytes,
                 max_edge: int = png.MAX_EDGE) -> "PseudoImage":
        """Read a PNG; a width or height above max_edge raises
        png.PNGTooLarge before anything is inflated."""
        return cls(pixels=png.read_png(data, max_edge))


@dataclass(frozen=True)
class QrConfig:
    """Encoder knobs; the defaults render a 512x512 symbol at EC level M."""

    ec_level: str = "M"
    min_version: int = 1
    module_scale: int = 1
    target_size: int | None = 512
