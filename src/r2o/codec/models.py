"""Domain types shared by the encoder and decoder."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import png
from .errors import InvalidPayload

MEDIA_IMAGE = "image"
MEDIA_TEXT = "text"

DARK_THRESHOLD = 128  # pixel < 128 counts as dark


class _NotIndirectionType:
    """Falsy singleton returned when content is not an indirection schema."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NotIndirection"

    def __bool__(self) -> bool:
        return False


NotIndirection = _NotIndirectionType()


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
    """What a pseudo-object carries: where the real content lives."""

    locator: str
    media_class: str = MEDIA_IMAGE

    def validate(self) -> "IndirectionPayload":
        validate_locator(self.locator)
        if self.media_class not in (MEDIA_IMAGE, MEDIA_TEXT):
            raise InvalidPayload(f"unknown media class {self.media_class!r}")
        return self


@dataclass
class PseudoImage:
    """Square grayscale raster holding a rendered symbol.

    inner_bounds tracks where the original symbol sits after border padding,
    as (top, left, height, width) in pixels; None means the full image.
    """

    pixels: np.ndarray
    quiet_zone: int = 4
    inner_bounds: tuple[int, int, int, int] | None = None

    @property
    def width(self) -> int:
        return int(self.pixels.shape[1])

    @property
    def height(self) -> int:
        return int(self.pixels.shape[0])

    def to_png(self) -> bytes:
        return png.write_png(self.pixels)

    @classmethod
    def from_png(cls, data: bytes, quiet_zone: int = 4) -> "PseudoImage":
        return cls(pixels=png.read_png(data), quiet_zone=quiet_zone)


@dataclass(frozen=True)
class QrConfig:
    """Encoder knobs; the defaults render a 512x512 symbol at EC level M."""

    ec_level: str = "M"
    min_version: int = 1
    module_scale: int = 1
    target_size: int | None = 512
