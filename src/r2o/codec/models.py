"""Domain types shared by the encoder and decoder."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..locator import validate_locator
from . import png, tables

DARK_THRESHOLD = 128  # pixel < 128 counts as dark


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
    target_size: int = 512

    def __post_init__(self):
        if self.ec_level not in tables.EC_LEVELS:
            raise ValueError(f"unknown EC level {self.ec_level!r}")
