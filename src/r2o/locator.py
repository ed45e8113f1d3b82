"""The locator rule: which strings r2o takes as an off-site locator.

Kept apart from the codec, which loads numpy, so that the cache and the
store client check a locator without it. `codec` re-exports both names.
"""

from __future__ import annotations

import re

# RFC 3986 section 2: unreserved and reserved characters, and %HH. Space,
# controls, '"', '<', '>', '`', '\', '{', '}', '|' and '^' are left out,
# so a locator cannot close a double-quoted attribute value or a tag
_URI_CHAR = r"[A-Za-z0-9\-._~:/?#\[\]@!$&'()*+,;=]"
_URI = re.compile(rf"{_URI_CHAR}*(?:%[0-9A-Fa-f]{{2}}{_URI_CHAR}*)*")


class InvalidPayload(ValueError):
    """Payload violates locator rules (empty, bad scheme, a character
    outside RFC 3986)."""


def validate_locator(locator: str) -> str:
    """Check that a locator is an http(s) URI of RFC 3986 characters;
    returns the locator unchanged."""
    if not isinstance(locator, str) or not locator:
        raise InvalidPayload("locator must be a non-empty string")
    if not (locator.startswith("http://") or locator.startswith("https://")):
        raise InvalidPayload("locator must use an http or https scheme")
    if not _URI.fullmatch(locator):
        raise InvalidPayload("locator has a character outside RFC 3986")
    return locator
