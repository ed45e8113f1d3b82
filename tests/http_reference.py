"""The line-by-line head reader that `r2o._http` replaced with its one-pass
`_Stream.head`, kept as the reference that reader is checked against.

It reads one line at a time from a buffered socket file. A line ends in LF
(a CR before it is dropped) and holds at most `_http.MAX_LINE` bytes; a
head holds at most `_http.MAX_FIELDS` fields, whose names must be tokens.
Names are lowercased, and a repeated field's values are joined with ", ".
The limits are read from `_http` at each call, so a test that patches them
patches both readers.
"""

import re

from r2o import _http

_TOKEN = re.compile(rb"[!#$%&'*+.^_`|~0-9A-Za-z-]+")


def _line(rfile, too_long: int) -> bytes:
    line = rfile.readline(_http.MAX_LINE + 1)
    if len(line) > _http.MAX_LINE:
        raise _http._Malformed(too_long, f"line over {_http.MAX_LINE} bytes")
    if not line.endswith(b"\n"):
        raise _http._Malformed(400, "message cut short")
    return line


def read_fields(rfile) -> dict[str, str]:
    """Header (or trailer) fields up to and including the blank line."""
    fields: dict[str, str] = {}
    for _ in range(_http.MAX_FIELDS + 1):
        line = _line(rfile, 431)
        if line == b"\r\n" or line == b"\n":
            return fields
        name, sep, value = line.partition(b":")
        if not sep or not _TOKEN.fullmatch(name):
            raise _http._Malformed(400, f"bad field line {line[:40]!r}")
        key = name.decode("ascii").lower()
        value = value.strip(b" \t\r\n").decode("latin-1")
        fields[key] = f"{fields[key]}, {value}" if key in fields else value
    raise _http._Malformed(431, f"more than {_http.MAX_FIELDS} fields")


def read_head(rfile) -> tuple[bytes, dict[str, str]] | None:
    """The start line and fields of one message; None at EOF before it."""
    if not rfile.peek(1):
        return None
    return _line(rfile, 414), read_fields(rfile)
