"""The one HTTP layer under r2o's clients and servers: HTTP/1.1 wire code.

One head reader, `_read_head`, parses the start line and header fields of
every request and response (RFC 9112 §2-5) from a buffered socket file. A
line ends in LF (a CR before it is dropped) and holds at most `MAX_LINE`
bytes; a head holds at most `MAX_FIELDS` fields, whose names must be
tokens. Names are lowercased, and a repeated field's values are joined with
", " (RFC 9110 §5.3). A `Content-Length` is all digits, and duplicates must
agree. Anything else is a `HttpError`.

Clients send every request through a `ConnectionPool`: a per-host set of
idle keep-alive connections (RFC 9112 §9), so a page's fetches reuse
sockets instead of paying a TCP handshake each. A request goes out in one
write, and fails once `TIMEOUT_S` has passed since it started. `send`
writes it and returns the call that reads its response, so a caller can
work while the peer handles the request: `HttpStoreClient.upload` runs the
write path's stand-in draw (0.6 ms of CPU) inside the store's 12 ms, while
the bytes are in flight. `request` is the two in a row. Interim 1xx
responses are skipped and redirects are not followed. A response body is
`chunked` (no other transfer coding is accepted), delimited by
`Content-Length`, or runs to the connection's close, and is capped before
it is read.

A running server is one `Server` object, a `socketserver.ThreadingTCPServer`
that accepts on its own thread from the moment it is built and is its own
context manager. It carries its `base_url` and the host's state, which its
handlers, subclasses of `Handler`, read through `self.server`. Each
connection runs a keep-alive loop and gets each response in one write, with
Nagle's algorithm off: a kept-alive response otherwise can wait out the
peer's delayed ACK, about 40 ms (RFC 896, RFC 1122 §4.2.3.2).

This module imports nothing from the rest of r2o.

CPU per kept-alive GET of a 1.3 KB object from `serve_store` in another
process, kernel time included, one request at a time on a 2 vCPU Xeon
with Python 3.11.7 (median of 5 alternating processes): 59 µs in the
client against 166 µs through `http.client`, and 60 µs in the server
against 130 µs through `http.server`.
"""

from __future__ import annotations

import io
import re
import socket
import socketserver
import sys
import threading
import time
from dataclasses import dataclass
from email.utils import formatdate
from http import HTTPStatus
from typing import Callable
from urllib.parse import urlsplit

MAX_PAYLOAD_DEFAULT = 16 * 1024 * 1024
# idle keep-alive connections kept per host; core's fan-out pool has this
# many threads, so a repeated page opens no socket
MAX_IDLE_PER_HOST = 64
# a server handler drops a connection that sends nothing for this long
IDLE_TIMEOUT_S = 30.0
# a client request gives up once this long has passed since it started
TIMEOUT_S = 10.0
# head limits, the same as http.client's: bytes per line, fields per head
MAX_LINE = 65536
MAX_FIELDS = 100
# interim (1xx) responses a client skips before it gives up on a final one
_MAX_INTERIM = 8

_TOKEN = re.compile(rb"[!#$%&'*+.^_`|~0-9A-Za-z-]+")
# a request URL is printable ASCII with no space
_URL_BAD_CHAR = re.compile(r"[^\x21-\x7e]")


class HttpError(Exception):
    """The request got no complete, acceptable response."""


class _Malformed(HttpError):
    """A message outside the wire rules; `status` is the server's answer."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


# errors of a reused connection that the peer closed while it sat idle
_STALE = (ConnectionResetError, BrokenPipeError)


@dataclass(frozen=True)
class Response:
    status: int
    content_type: str
    body: bytes


# -- message heads ------------------------------------------------------------

def _line(rfile, too_long: int) -> bytes:
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise _Malformed(too_long, f"line over {MAX_LINE} bytes")
    if not line.endswith(b"\n"):
        raise _Malformed(400, "message cut short")
    return line


def _read_fields(rfile) -> dict[str, str]:
    """Header (or trailer) fields up to and including the blank line."""
    fields: dict[str, str] = {}
    for _ in range(MAX_FIELDS + 1):
        line = _line(rfile, 431)
        if line == b"\r\n" or line == b"\n":
            return fields
        name, sep, value = line.partition(b":")
        if not sep or not _TOKEN.fullmatch(name):
            raise _Malformed(400, f"bad field line {line[:40]!r}")
        key = name.decode("ascii").lower()
        value = value.strip(b" \t\r\n").decode("latin-1")
        fields[key] = f"{fields[key]}, {value}" if key in fields else value
    raise _Malformed(431, f"more than {MAX_FIELDS} fields")


def _read_head(rfile) -> tuple[bytes, dict[str, str]] | None:
    """The start line and fields of one message; None at EOF before it."""
    if not rfile.peek(1):
        return None
    return _line(rfile, 414), _read_fields(rfile)


def _content_length(fields: dict[str, str], cap: int) -> int | None:
    """The declared body length, or None when the message declares none.

    Raises _Malformed with 400 for a value that is not all digits or
    duplicates that differ, and with 413 for a length over `cap`.
    """
    raw = fields.get("content-length")
    if raw is None:
        return None
    values = {v.strip() for v in raw.split(",")}
    value = values.pop()
    if values or not (value.isascii() and value.isdigit()):
        raise _Malformed(400, f"bad Content-Length {raw[:40]!r}")
    if len(value) > 18 or int(value) > cap:
        raise _Malformed(413, f"declared length {value[:40]} is over "
                              f"the {cap}-byte cap")
    return int(value)


def _closes(fields: dict[str, str]) -> bool:
    """Whether a message's Connection field holds `close`."""
    return "close" in (token.strip() for token in
                       fields.get("connection", "").lower().split(","))


# -- client -----------------------------------------------------------------

class _Connection(io.RawIOBase):
    """A connected socket, read through the buffered file `rfile`. Each
    connect attempt, send and socket read waits at most until `deadline`,
    the `time.monotonic()` by which the current request must be done, and
    none starts after it. A name lookup is not bounded.
    """

    sock: socket.socket | None = None  # None until the connect succeeds
    reused = False  # set once it has served a response

    def __init__(self, key: tuple, deadline: float):
        super().__init__()
        scheme, host, port = key
        self.deadline = deadline
        self.sock = socket.create_connection(
            (host, port or (443 if scheme == "https" else 80)), self._left())
        try:
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if scheme == "https":
                # imported here: no server, and no plain-HTTP client, uses
                # it, and it takes 7-11 ms to load
                import ssl

                self.sock = ssl.create_default_context().wrap_socket(
                    self.sock, server_hostname=host)
        except OSError:
            self.close()
            raise
        self.rfile = io.BufferedReader(self)

    def _left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError(f"no response within {TIMEOUT_S:g} s")
        return left

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        self.sock.settimeout(self._left())
        return self.sock.recv_into(buf)

    def write(self, data: bytes) -> None:
        self.sock.settimeout(self._left())
        self.sock.sendall(data)

    def wait(self) -> None:
        """Wait for the first byte of the response."""
        if not self.rfile.peek(1):
            raise ConnectionResetError("connection closed before the response")

    def close(self) -> None:
        super().close()
        if self.sock is not None:
            self.sock.close()
        self.rfile = None  # it refers back here: unlinked, both free now


class ConnectionPool:
    """Keep-alive connections per (scheme, host, port); thread-safe.

    A connection is used by one request at a time, from the write of the
    request to the end of its response. It returns to the pool only when
    the response was HTTP/1.1 without `Connection: close` and a delimited
    body was read to its end; requests never ask to close. A reused
    connection that fails before any response byte is retried once on a
    fresh connection; any other failure raises HttpError, and so does a
    request that is not done `TIMEOUT_S` after it started.
    """

    def __init__(self):
        self._idle: dict[tuple, list[_Connection]] = {}
        self._lock = threading.Lock()

    def request(self, method: str, url: str, body: bytes | None = None,
                headers: dict[str, str] | None = None,
                max_body: int = MAX_PAYLOAD_DEFAULT) -> Response:
        """Send one request; any status comes back as a Response."""
        return self.send(method, url, body, headers, max_body)()

    def send(self, method: str, url: str, body: bytes | None = None,
             headers: dict[str, str] | None = None,
             max_body: int = MAX_PAYLOAD_DEFAULT) -> Callable[[], Response]:
        """Write one request now; returns the call that reads its response.

        The caller must make that call: it holds the request's connection
        until then. The one deadline covers both halves, and the stale
        retry happens in the read, where a closed peer shows.
        """
        try:
            parts = urlsplit(url)
            key = (parts.scheme, parts.hostname, parts.port)
        except ValueError as exc:
            raise HttpError(f"bad URL {url!r}: {exc}") from None
        if (parts.scheme not in ("http", "https") or not parts.hostname
                or _URL_BAD_CHAR.search(url)):
            raise HttpError(f"unsupported URL {url!r}")
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query
                                        else "")
        lines = [f"{method} {target} HTTP/1.1",
                 f"Host: {parts.netloc.rpartition('@')[2]}"]
        lines += [f"{k}: {v}" for k, v in (headers or {}).items()]
        if body is not None:
            lines.append(f"Content-Length: {len(body)}")
        if any("\r" in line or "\n" in line for line in lines):
            raise ValueError("CR or LF in a request header")
        try:
            data = "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"
        except UnicodeEncodeError:
            raise HttpError("request head is not latin-1") from None
        if body:
            data += body
        deadline = time.monotonic() + TIMEOUT_S
        with self._lock:
            idle = self._idle.get(key)
            conn = idle.pop() if idle else None
        try:
            if conn is None:
                conn = _Connection(key, deadline)
            conn.deadline = deadline
            try:
                conn.write(data)
            except _STALE:
                if not conn.reused:
                    raise
                # the read finds it closed and retries
        except (OSError, HttpError) as exc:
            if conn is not None:
                conn.close()
            raise HttpError(str(exc) or type(exc).__name__) from None

        def receive() -> Response:
            live = conn
            try:
                try:
                    live.wait()
                except _STALE:
                    live.close()
                    if not live.reused:
                        raise
                    live = _Connection(key, deadline)
                    live.write(data)
                    live.wait()
                resp, keep = _read_response(live.rfile, max_body)
            except (OSError, HttpError) as exc:
                live.close()
                raise HttpError(str(exc) or type(exc).__name__) from None
            if keep:
                self._put(key, live)
            else:
                live.close()
            return resp
        return receive

    def _put(self, key: tuple, conn: _Connection) -> None:
        conn.reused = True
        with self._lock:
            idle = self._idle.setdefault(key, [])
            if len(idle) < MAX_IDLE_PER_HOST:
                idle.append(conn)
                return
        conn.close()

    def close(self) -> None:
        """Close every idle connection."""
        with self._lock:
            idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn in conns:
                conn.close()

    def __del__(self):
        # a client dropped without close() still releases its sockets
        self.close()


def _read_response(rfile, max_body: int) -> tuple[Response, bool]:
    """The final response, and whether its connection can be reused."""
    for _ in range(_MAX_INTERIM + 1):
        head = _read_head(rfile)
        if head is None:
            raise HttpError("connection closed after an interim response")
        start, fields = head
        version, _, rest = start.partition(b" ")
        code = rest[:3]
        status = int(code) if code.isdigit() else 0
        if (version not in (b"HTTP/1.1", b"HTTP/1.0") or status < 100
                or rest[3:4] not in (b" ", b"\r", b"\n")):
            raise HttpError(f"bad status line {start[:40]!r}")
        if status >= 200:
            break
    else:
        raise HttpError(f"more than {_MAX_INTERIM} interim responses")
    body, delimited = _read_body(rfile, status, fields, max_body)
    keep = version == b"HTTP/1.1" and delimited and not _closes(fields)
    return Response(status, fields.get("content-type",
                                       "application/octet-stream"),
                    body), keep


def _read_body(rfile, status: int, fields: dict[str, str],
               max_body: int) -> tuple[bytes, bool]:
    """The whole body, and whether its end was delimited (not by close).

    A declared length over the cap fails before any body byte is read, a
    chunked body once its total passes the cap, and an undeclared one reads
    at most cap + 1 bytes.
    """
    if status in (204, 304):
        return b"", True
    coding = fields.get("transfer-encoding")
    if coding is not None:
        if coding.lower() != "chunked":
            raise HttpError(f"unsupported Transfer-Encoding {coding[:40]!r}")
        # a Content-Length beside it may have framed the body differently
        # for some other reader on the path (RFC 9112 §6.3)
        return _read_chunked(rfile, max_body), "content-length" not in fields
    length = _content_length(fields, max_body)
    if length is None:
        data = rfile.read(max_body + 1)
        if len(data) > max_body:
            raise HttpError(f"response body exceeds the {max_body}-byte cap")
        return data, False
    data = rfile.read(length)
    if len(data) < length:
        raise HttpError(f"body cut short at {len(data)} of {length} bytes")
    return data, True


def _read_chunked(rfile, max_body: int) -> bytes:
    parts = []
    total = 0
    while True:
        line = _line(rfile, 400)
        size = line.split(b";", 1)[0].strip()
        if not size or size.strip(b"0123456789abcdefABCDEF"):
            raise HttpError(f"bad chunk size line {line[:40]!r}")
        if len(size) > 16 or total + int(size, 16) > max_body:
            raise HttpError(f"chunked body exceeds the {max_body}-byte cap")
        n = int(size, 16)
        if n == 0:
            break
        chunk = rfile.read(n)
        if len(chunk) < n or rfile.read(2) != b"\r\n":
            raise HttpError("chunk cut short")
        parts.append(chunk)
        total += n
    _read_fields(rfile)  # trailers, ignored
    return b"".join(parts)


# -- server -----------------------------------------------------------------

class Handler(socketserver.StreamRequestHandler):
    """Request handler base: HTTP/1.1 keep-alive, no Nagle, bounded bodies.

    A subclass defines `do_<METHOD>` for each method it serves; it sees the
    request as `path` and `headers` (a dict keyed by lowercased name), and
    the host's state as `self.server.backing`.
    """

    server_version = "r2o"
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S

    def handle(self) -> None:
        self._close = False
        while not self._close:
            self.headers: dict[str, str] = {}
            self._body_read = False
            try:
                head = _read_head(self.rfile)
                if head is None:
                    return
                start, self.headers = head
                parts = start.split()
                if (len(parts) != 3 or not _TOKEN.fullmatch(parts[0])
                        or parts[2] not in (b"HTTP/1.1", b"HTTP/1.0")):
                    raise _Malformed(400, "bad request line")
            except _Malformed as exc:
                self._close = True
                self._reply(exc.status, f"{exc}\n".encode())
                return
            method, target, version = parts
            self.path = target.decode("latin-1")
            self._close = version != b"HTTP/1.1" or _closes(self.headers)
            serve_method = getattr(self, "do_" + method.decode(), None)
            if serve_method is None:
                self._close = True
                self._reply(501, b"unsupported method\n")
                return
            serve_method()

    def _body(self, limit: int = MAX_PAYLOAD_DEFAULT) -> bytes | None:
        """The request body; None after replying 400 or 413 instead."""
        try:
            length = _content_length(self.headers, limit)
        except _Malformed as exc:
            self._reply(exc.status, f"{exc}\n".encode())
            return None
        if length is None:
            self._reply(400, b"missing Content-Length\n")
            return None
        self._body_read = True
        body = self.rfile.read(length)
        if len(body) < length:  # the peer went away mid-body
            self._close = True
            return None
        return body

    def _reply(self, status: int, body: bytes = b"",
               content_type: str = "text/plain") -> None:
        if not self._body_read and (
                self.headers.get("content-length", "0") != "0"
                or "transfer-encoding" in self.headers):
            # unread request bytes would be parsed as the next request
            self._close = True
        lines = [f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
                 f"Server: {self.server_version}",
                 f"Date: {formatdate(usegmt=True)}",
                 f"Content-Type: {content_type}"]
        if status != 204:  # a 204 carries no Content-Length (RFC 9110 §8.6)
            lines.append(f"Content-Length: {len(body)}")
        if self._close:
            lines.append("Connection: close")
        self.wfile.write("\r\n".join(lines).encode("latin-1")
                         + b"\r\n\r\n" + body)


class Server(socketserver.ThreadingTCPServer):
    """A running HTTP server: bound and accepting on its own thread once
    built, and a context manager that shuts it down.

    Handlers reach the host's state, a store or the first-party service,
    as `self.server.backing`. A failed bind raises the OSError from the
    bind. The listen backlog is sized for a page's burst of connects; the
    default of 5 drops SYNs, which then wait out a 1 s retransmit.
    """

    allow_reuse_address = True
    request_queue_size = 128
    daemon_threads = True

    def __init__(self, bind_address: tuple[str, int], handler: type[Handler],
                 base_path: str, backing):
        super().__init__(bind_address, handler)
        host, port = self.server_address[:2]
        self.base_url = f"http://{host}:{port}{base_path}"
        self.backing = backing
        self._live: set[socket.socket] = set()
        self._live_lock = threading.Lock()
        self._stopping = False
        self._thread = threading.Thread(
            target=self._accept, name=f"{handler.__name__}-{port}",
            daemon=True)
        self._thread.start()

    def _accept(self) -> None:
        """Accept connections, waiting without a poll, until `shutdown`."""
        while not self._stopping:
            self.handle_request()

    def shutdown(self) -> None:
        """Stop accepting, end kept-alive connections, release the port.

        A listening socket that is shut down wakes the wait for the next
        connection, whose accept then fails and ends `_accept`.
        """
        self._stopping = True
        try:
            self.socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._thread.join(timeout=5)
        with self._live_lock:
            live = list(self._live)
        for sock in live:  # its handler thread then exits
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self.server_close()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def process_request(self, request, client_address):
        with self._live_lock:
            self._live.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._live_lock:
            self._live.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address):
        # a peer that hangs up, or a connection cut by shutdown, is routine
        if not isinstance(sys.exc_info()[1], OSError):
            super().handle_error(request, client_address)
