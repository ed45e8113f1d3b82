"""Indirection codec: QR pseudo-images and fragment-tagged pseudo-text.

Real content lives off-site; what occupies the first-party slot is a
machine-decodable stand-in produced here. All operations are pure.
"""

from __future__ import annotations

import numpy as np

from .decoder import decode_matrix, decode_qr
from .encoder import encode_qr, encode_symbol, serialize_payload
from .errors import (CapacityExceeded, CodecError, DecodeFailure,
                     FragmentConflict, InvalidPayload, NotAQrSymbol,
                     TargetTooSmall)
from .models import (DARK_THRESHOLD, MEDIA_IMAGE, MEDIA_TEXT,
                     IndirectionPayload, NotIndirection, PseudoImage,
                     QrConfig, validate_locator)
from .png import PNGError, PNGTooLarge, read_png, write_png

TEXT_SUFFIX = "#r2o"


def encode_text_indirection(locator: str) -> str:
    """Tag a locator as pseudo-text by appending the r2o fragment."""
    validate_locator(locator)
    if "#" in locator:
        raise FragmentConflict(f"locator already has a fragment: {locator!r}")
    return locator + TEXT_SUFFIX


def decode_text_indirection(text):
    """Return the locator behind pseudo-text, or NotIndirection."""
    if not isinstance(text, str) or not text.endswith(TEXT_SUFFIX):
        return NotIndirection
    base = text[:-len(TEXT_SUFFIX)]
    try:
        validate_locator(base)
    except InvalidPayload:
        return NotIndirection
    if "#" in base:
        return NotIndirection
    return base


def pad_with_border(image: PseudoImage, target_width: int,
                    target_height: int) -> PseudoImage:
    """Center the symbol on a white canvas of the requested dimensions."""
    if target_width < image.width or target_height < image.height:
        raise TargetTooSmall(
            f"cannot pad {image.width}x{image.height} down to "
            f"{target_width}x{target_height}")
    if (target_width, target_height) == (image.width, image.height):
        return PseudoImage(pixels=image.pixels.copy(),
                           quiet_zone=image.quiet_zone,
                           inner_bounds=image.inner_bounds)
    canvas = np.full((target_height, target_width), 255, dtype=np.uint8)
    top = (target_height - image.height) // 2
    left = (target_width - image.width) // 2
    canvas[top:top + image.height, left:left + image.width] = image.pixels
    return PseudoImage(pixels=canvas, quiet_zone=image.quiet_zone,
                       inner_bounds=(top, left, image.height, image.width))


def upscale(image: PseudoImage, factor: int) -> PseudoImage:
    """Integer nearest-neighbor upscale; decode output is unchanged."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return image
    pix = image.pixels.repeat(factor, axis=0).repeat(factor, axis=1)
    bounds = None
    if image.inner_bounds is not None:
        t, l, h, w = image.inner_bounds
        bounds = (t * factor, l * factor, h * factor, w * factor)
    return PseudoImage(pixels=pix, quiet_zone=image.quiet_zone,
                       inner_bounds=bounds)


__all__ = [
    "CapacityExceeded", "CodecError", "DARK_THRESHOLD", "DecodeFailure",
    "FragmentConflict", "IndirectionPayload", "InvalidPayload", "MEDIA_IMAGE",
    "MEDIA_TEXT", "NotAQrSymbol", "NotIndirection", "PNGError", "PNGTooLarge",
    "PseudoImage", "QrConfig", "TEXT_SUFFIX", "TargetTooSmall",
    "decode_matrix", "decode_qr", "decode_text_indirection", "encode_qr",
    "encode_symbol", "encode_text_indirection", "pad_with_border",
    "read_png", "serialize_payload", "upscale", "validate_locator",
    "write_png",
]
