"""First-party resizing, modelled for the codec tests.

A host may place a stand-in on a larger white canvas or scale it up by an
integer factor; the symbol must decode the same either way.
"""

from __future__ import annotations

import numpy as np

from r2o import codec


def pad_with_border(image: codec.PseudoImage, target_width: int,
                    target_height: int) -> codec.PseudoImage:
    """Center the symbol on a white canvas of the requested dimensions."""
    if target_width < image.width or target_height < image.height:
        raise codec.TargetTooSmall(
            f"cannot pad {image.width}x{image.height} down to "
            f"{target_width}x{target_height}")
    canvas = np.full((target_height, target_width), 255, dtype=np.uint8)
    top = (target_height - image.height) // 2
    left = (target_width - image.width) // 2
    canvas[top:top + image.height, left:left + image.width] = image.pixels
    return codec.PseudoImage(pixels=canvas)


def upscale(image: codec.PseudoImage, factor: int) -> codec.PseudoImage:
    """Integer nearest-neighbor upscale; decode output is unchanged."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return image
    return codec.PseudoImage(
        pixels=image.pixels.repeat(factor, axis=0).repeat(factor, axis=1))
