"""Indirection codec: QR pseudo-images.

Real content lives off-site; what occupies the first-party slot is a QR
symbol that carries the off-site locator, rendered to pixels and written
as a PNG here. All operations are pure.
"""

from __future__ import annotations

from ..locator import InvalidPayload, validate_locator
from .decoder import decode_matrix, decode_qr
from .encoder import encode_qr, encode_symbol, serialize_payload
from .errors import (CapacityExceeded, CodecError, DecodeFailure,
                     NotAQrSymbol, TargetTooSmall)
from .models import DARK_THRESHOLD, IndirectionPayload, PseudoImage, QrConfig
from .png import PNGError, PNGTooLarge, read_png, write_png

__all__ = [
    "CapacityExceeded", "CodecError", "DARK_THRESHOLD", "DecodeFailure",
    "IndirectionPayload", "InvalidPayload", "NotAQrSymbol", "PNGError",
    "PNGTooLarge", "PseudoImage", "QrConfig", "TargetTooSmall",
    "decode_matrix", "decode_qr", "encode_qr", "encode_symbol", "read_png",
    "serialize_payload", "validate_locator", "write_png",
]
