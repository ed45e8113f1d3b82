"""Indirection codec: QR pseudo-images.

Real content lives off-site; what occupies the first-party slot is a QR
symbol that carries the off-site locator, rendered to pixels and written
as a PNG here. All operations are pure.
"""

from __future__ import annotations

from ..locator import InvalidPayload, validate_locator
from .decoder import decode_qr
from .encoder import encode_qr, serialize_payload
from .errors import (CapacityExceeded, CodecError, DecodeFailure,
                     NotAQrSymbol, TargetTooSmall)
from .models import IndirectionPayload, PseudoImage, QrConfig
from .png import PNGError, PNGTooLarge

__all__ = [
    "CapacityExceeded", "CodecError", "DecodeFailure", "IndirectionPayload",
    "InvalidPayload", "NotAQrSymbol", "PNGError", "PNGTooLarge",
    "PseudoImage", "QrConfig", "TargetTooSmall", "decode_qr", "encode_qr",
    "serialize_payload", "validate_locator",
]
