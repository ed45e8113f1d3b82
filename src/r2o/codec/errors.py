"""Codec error types."""


class CodecError(Exception):
    """Base class for codec failures."""


class InvalidPayload(CodecError, ValueError):
    """Payload violates locator rules (empty, bad scheme, a character
    outside RFC 3986)."""


class CapacityExceeded(CodecError, ValueError):
    """Serialized payload does not fit any supported symbol version."""


class NotAQrSymbol(CodecError):
    """No plausible symbol found in the image; the false-positive signal."""


class DecodeFailure(CodecError):
    """A symbol was found but could not be decoded to a payload."""


class TargetTooSmall(CodecError, ValueError):
    """Requested canvas is smaller than the content to place on it."""
