"""Raster helpers for the codec tests, and first-party resizing modelled.

A host may place a stand-in on a larger white canvas or scale it up by an
integer factor; the symbol must decode the same either way.
"""

from __future__ import annotations

import numpy as np

from r2o import codec
from r2o.codec import encoder, tables
from r2o.codec.png import pack_rows


def tight(locator: str, scale: int = 1,
          ec_level: str = "M") -> codec.QrConfig:
    """The config that draws the locator's symbol and quiet zone at
    `scale` pixels a module, with no padding around them."""
    version = encoder.choose_version(len(locator), ec_level)
    edge = tables.size_for_version(version) + 2 * encoder.QUIET_ZONE
    return codec.QrConfig(ec_level=ec_level, target_size=edge * scale)


def gray(light: np.ndarray) -> np.ndarray:
    """A bool raster as 8-bit grayscale: white 255, black 0."""
    return light * np.uint8(255)


def image_of(light: np.ndarray) -> codec.PseudoImage:
    """A 2-D bool raster (True is white) as a pseudo-image."""
    return codec.PseudoImage(rows=pack_rows(light), width=light.shape[1])


def light_of(image: codec.PseudoImage) -> np.ndarray:
    """A pseudo-image's pixels as a bool raster, True where white."""
    return np.unpackbits(image.rows, axis=1,
                         count=image.width).view(np.bool_)


def pad_with_border(image: codec.PseudoImage, target_width: int,
                    target_height: int) -> codec.PseudoImage:
    """Center the symbol on a white canvas of the requested dimensions."""
    if target_width < image.width or target_height < image.height:
        raise codec.TargetTooSmall(
            f"cannot pad {image.width}x{image.height} down to "
            f"{target_width}x{target_height}")
    canvas = np.ones((target_height, target_width), dtype=bool)
    top = (target_height - image.height) // 2
    left = (target_width - image.width) // 2
    canvas[top:top + image.height, left:left + image.width] = light_of(image)
    return image_of(canvas)


def upscale(image: codec.PseudoImage, factor: int) -> codec.PseudoImage:
    """Integer nearest-neighbor upscale; decode output is unchanged."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return image
    return image_of(
        light_of(image).repeat(factor, axis=0).repeat(factor, axis=1))
