"""The one HTTP layer under r2o's clients and servers: HTTP/1.1 wire code.

Clients and servers read a connection through one buffer, a `_Stream`. A
head (RFC 9112 §2-5) is parsed in one pass once its blank line has come:
a line ends in LF (a CR before it is dropped) and holds at most `MAX_LINE`
bytes; a head holds at most `MAX_FIELDS` fields, whose names must be
tokens. Names are lowercased, and a repeated field's values are joined with
", " (RFC 9110 §5.3). A `Content-Length` is all digits, and duplicates must
agree. Anything else is a `HttpError`. A delimited body is read to its
length in as few receives as it takes.

Clients send every request through a `ConnectionPool`: a per-host set of
idle keep-alive connections (RFC 9112 §9), so a page's fetches reuse
sockets instead of paying a TCP handshake each. A request goes out in one
write, and fails once `TIMEOUT_S` has passed since it started; a name
lookup is not bounded by that. `send` writes it and returns the call that
reads its response, so a caller can work while the peer handles the
request: `HttpStoreClient.upload` runs the write path's stand-in draw
(0.6 ms of CPU) inside the store's 12 ms, while the bytes are in flight.
`request` is the two in a row. Interim 1xx responses are skipped and
redirects are not followed. A response body is `chunked` (no other
transfer coding is accepted), delimited by `Content-Length`, or runs to
the connection's close, and is capped before it is read.

A running server is one `Server` object, a `socketserver.ThreadingTCPServer`
that accepts on its own thread from the moment it is built and is its own
context manager. It carries its `base_url` and the host's state, which its
handlers, subclasses of `Handler`, read through `self.server`. Each
connection runs a keep-alive loop and gets each response in one write (a
precomputed status line, a `Date` made once a second, the body), with
Nagle's algorithm off: a kept-alive response otherwise can wait out the
peer's delayed ACK, about 40 ms (RFC 896, RFC 1122 §4.2.3.2).

This module imports nothing from the rest of r2o.

CPU per kept-alive GET of a 44 KB object from `serve_store` in another
process, kernel time included, one request after another on a 2 vCPU Xeon
with Python 3.11.7 (median of 10 alternating process pairs): 33 µs in the
client and 27 µs in the server.
"""

from __future__ import annotations

import functools
import math
import re
import socket
import socketserver
import struct
import sys
import threading
import time
from dataclasses import dataclass
from email.utils import formatdate
from http import HTTPStatus
from typing import Callable
from urllib.parse import SplitResult, urlsplit

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
# bytes asked of a receive into the buffer, and at most of one for a body
_RECV_SIZE, _RECV_MAX = 65536, 1 << 20

_TOKEN = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+")
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

def _head_end(buf, lo: int) -> int:
    """Where the first blank line after an LF at or past `lo` ends, or -1.
    The LF-only search stops at a CRLF blank line: it never scans a body."""
    crlf = buf.find(b"\n\r\n", lo)
    lf = buf.find(b"\n\n", lo, crlf + 1 if crlf >= 0 else len(buf))
    return lf + 2 if lf >= 0 else crlf + 3 if crlf >= 0 else -1


def _parse_head(head: bytes) -> tuple[bytes, dict[str, str]]:
    """The start line (its LF kept) and fields of `head`: the bytes up to
    its blank line, or all that came of a head cut short."""
    start, lf, rest = head.partition(b"\n")
    if len(start) + len(lf) > MAX_LINE:
        raise _Malformed(414, f"line over {MAX_LINE} bytes")
    *lines, last = rest.decode("latin-1").split("\n")
    fields: dict[str, str] = {}
    for line in lines[:MAX_FIELDS + 1]:
        if len(line) >= MAX_LINE:
            raise _Malformed(431, f"line over {MAX_LINE} bytes")
        if not line or line == "\r":
            return start + lf, fields
        name, sep, value = line.partition(":")
        if not sep or not _TOKEN.fullmatch(name):
            shown = (line + "\n").encode("latin-1")[:40]
            raise _Malformed(400, f"bad field line {shown!r}")
        key = name.lower()
        value = value.strip(" \t\r")
        fields[key] = f"{fields[key]}, {value}" if key in fields else value
    if len(lines) > MAX_FIELDS:
        raise _Malformed(431, f"more than {MAX_FIELDS} fields")
    if len(last) > MAX_LINE:  # the line no LF ended
        raise _Malformed(431, f"line over {MAX_LINE} bytes")
    raise _Malformed(400, "message cut short")


class _Stream:
    """A connected socket read through one buffer, by clients and servers:
    `buf[pos:]` is what came and is not read yet. The buffer is dropped
    once all of it is read, so an idle connection keeps none."""

    buf, pos = b"", 0

    def __init__(self, sock: socket.socket):
        self.sock = sock

    def _recv(self, size: int) -> bytes:
        return self.sock.recv(size)

    def _until(self, end_of, limit: int) -> int:
        """Receive until `end_of(buf, lo)`, searching from `lo`, finds where
        the bytes wanted end; -1 at EOF or past `limit` unread bytes. What
        trickles in is appended in place, so this takes linear time."""
        lo = self.pos
        while lo == len(self.buf) or (end := end_of(self.buf, lo)) < 0:
            if (len(self.buf) - self.pos > limit
                    or not (data := self._recv(_RECV_SIZE))):
                return -1
            if self.pos == len(self.buf):
                self.buf = data
            else:
                if isinstance(self.buf, bytes):
                    self.buf = bytearray(self.buf)
                del self.buf[:self.pos]
                self.buf += data
            # a blank line's first two bytes may have come before
            lo, self.pos = max(len(self.buf) - len(data) - 2, 0), 0
        return end

    def _take(self, end: int) -> bytes:
        data = bytes(self.buf[self.pos:end])
        self.buf, self.pos = ((b"", 0) if end >= len(self.buf)
                              else (self.buf, end))
        return data

    def head(self) -> tuple[bytes, dict[str, str]] | None:
        """The start line and fields of the next message (RFC 9112 §2-5),
        parsed in one pass once its blank line has come; None at EOF
        before it. Past (MAX_FIELDS + 2) lines of MAX_LINE bytes some
        line or field bound is broken, so no more is waited for."""
        end = self._until(_head_end, (MAX_FIELDS + 2) * MAX_LINE)
        if end < 0 and self.pos == len(self.buf):
            return None
        return _parse_head(self._take(end if end >= 0 else len(self.buf)))

    def line(self) -> bytes:
        """One line, its LF kept, which also stays in the buffer."""
        end = self._until(lambda buf, lo: buf.find(b"\n", lo) + 1 or -1,
                          MAX_LINE)
        line = bytes(self.buf[self.pos:end if end >= 0 else len(self.buf)])
        if len(line) > MAX_LINE:
            raise _Malformed(400, f"line over {MAX_LINE} bytes")
        if end < 0:
            raise _Malformed(400, "message cut short")
        self.pos = end
        return line

    def read(self, n: int) -> bytes:
        """The next n bytes, or fewer when the peer closes first: what is
        buffered, then as few receives as the rest takes."""
        data = self._take(self.pos + n)
        parts = [data] if data else []  # a lone part is joined uncopied
        left = n - len(data)
        while left and (data := self._recv(min(left, _RECV_MAX))):
            parts.append(data)
            left -= len(data)
        return b"".join(parts)


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
    value = fields.get("connection")
    return value is not None and "close" in (
        token.strip() for token in value.lower().split(","))


# -- client -----------------------------------------------------------------

def _timeval(seconds: float) -> bytes:
    """A `struct timeval` of at least 1 µs, as SO_RCVTIMEO and SO_SNDTIMEO
    take it: zero would mean no bound."""
    us = max(int(seconds * 1e6), 1)
    return struct.pack("ll", us // 1_000_000, us % 1_000_000)


class _Connection(_Stream):
    """A client's connected socket. Each connect attempt, send and receive
    waits at most until `deadline`, the `time.monotonic()` by which the
    current request must be done, and none starts after it. A name lookup
    is not bounded. The socket blocks, and the kernel bounds each send and
    receive (SO_SNDTIMEO, SO_RCVTIMEO), so one costs one system call and
    no poll. A bound is set again only once it is off the time left by
    over 1% of `TIMEOUT_S`.
    """

    reused = False  # set once it has served a response

    def __init__(self, key: tuple, deadline: float):
        scheme, host, port = key
        self.deadline = deadline
        self.bounds: dict[int, float] = {}  # each option's last bound, s
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
            self.sock.settimeout(None)  # from here on the kernel bounds
        except OSError:
            self.sock.close()
            raise

    def _left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError(f"no response within {TIMEOUT_S:g} s")
        return left

    def _io(self, option: int, call, arg):
        """`call(arg)`, a send or a receive, bounded by the time left."""
        left = self._left()
        if abs(self.bounds.get(option, math.inf) - left) > TIMEOUT_S / 100:
            self.sock.setsockopt(socket.SOL_SOCKET, option, _timeval(left))
            self.bounds[option] = left
        try:
            return call(arg)
        except BlockingIOError:  # the bound ran out
            raise TimeoutError(
                f"no response within {TIMEOUT_S:g} s") from None

    def _recv(self, size: int) -> bytes:
        return self._io(socket.SO_RCVTIMEO, self.sock.recv, size)

    def write(self, data: bytes) -> None:
        view = memoryview(data)
        while view:
            view = view[self._io(socket.SO_SNDTIMEO, self.sock.send, view):]

    def wait(self) -> None:
        """Wait for the response's first bytes."""
        if self.pos == len(self.buf):
            self.buf, self.pos = self._recv(_RECV_SIZE), 0
            if not self.buf:
                raise ConnectionResetError(
                    "connection closed before the response")

    def close(self) -> None:
        self.sock.close()


@functools.lru_cache(maxsize=256)
def _pool_key(scheme: str, netloc: str) -> tuple:
    """A URL's pool key, (scheme, host, port), worked out once a netloc."""
    parts = SplitResult(scheme, netloc, "", "", "")
    return scheme, parts.hostname, parts.port


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
            key = _pool_key(parts.scheme, parts.netloc)
        except ValueError as exc:
            raise HttpError(f"bad URL {url!r}: {exc}") from None
        if (parts.scheme not in ("http", "https") or not key[1]
                or _URL_BAD_CHAR.search(url)):
            raise HttpError(f"unsupported URL {url!r}")
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query
                                        else "")
        head = (f"{method} {target} HTTP/1.1\r\n"
                f"Host: {parts.netloc.rpartition('@')[2]}\r\n")
        head += "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
        if body is not None:
            head += f"Content-Length: {len(body)}\r\n"
        # each line holds one CR and one LF, its end
        lines = 2 + len(headers or ()) + (body is not None)
        if head.count("\r") != lines or head.count("\n") != lines:
            raise ValueError("CR or LF in a request header")
        try:
            data = head.encode("latin-1") + b"\r\n" + (body or b"")
        except UnicodeEncodeError:
            raise HttpError("request head is not latin-1") from None
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
                resp, keep = _read_response(live, max_body)
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


def _read_response(conn: _Connection,
                   max_body: int) -> tuple[Response, bool]:
    """The final response, and whether its connection can be reused."""
    for _ in range(_MAX_INTERIM + 1):
        head = conn.head()
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
    body, delimited = _read_body(conn, status, fields, max_body)
    keep = version == b"HTTP/1.1" and delimited and not _closes(fields)
    return Response(status, fields.get("content-type",
                                       "application/octet-stream"),
                    body), keep


def _read_body(conn: _Connection, status: int, fields: dict[str, str],
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
        return _read_chunked(conn, max_body), "content-length" not in fields
    length = _content_length(fields, max_body)
    if length is None:
        data = conn.read(max_body + 1)
        if len(data) > max_body:
            raise HttpError(f"response body exceeds the {max_body}-byte cap")
        return data, False
    data = conn.read(length)
    if len(data) < length:
        raise HttpError(f"body cut short at {len(data)} of {length} bytes")
    return data, True


def _read_chunked(conn: _Connection, max_body: int) -> bytes:
    parts = []
    total = 0
    while True:
        line = conn.line()
        size = line.split(b";", 1)[0].strip()
        if not size or size.strip(b"0123456789abcdefABCDEF"):
            raise HttpError(f"bad chunk size line {line[:40]!r}")
        if len(size) > 16 or total + int(size, 16) > max_body:
            raise HttpError(f"chunked body exceeds the {max_body}-byte cap")
        n = int(size, 16)
        if n == 0:
            break
        chunk = conn.read(n)
        if len(chunk) < n or conn.read(2) != b"\r\n":
            raise HttpError("chunk cut short")
        parts.append(chunk)
        total += n
    # the last size line's LF, still in the buffer, ends the trailer
    # section's empty start line: the trailers are read as a head
    conn.pos -= 1
    conn.head()  # trailers, ignored
    return b"".join(parts)


# -- server -----------------------------------------------------------------

# each status's line, "HTTP/1.1 <code> <phrase>" and its CRLF
_STATUS_LINES = {s.value: f"HTTP/1.1 {s.value} {s.phrase}\r\n"
                 for s in HTTPStatus}


@functools.lru_cache(maxsize=1)
def _date_line(second: int) -> str:
    """The Date field line (RFC 9110 §6.6.1), made once a second."""
    return f"Date: {formatdate(second, usegmt=True)}\r\n"


class Handler(socketserver.BaseRequestHandler):
    """Request handler base: HTTP/1.1 keep-alive, no Nagle, bounded bodies.

    A subclass defines `do_<METHOD>` for each method it serves; it sees the
    request as `path` and `headers` (a dict keyed by lowercased name), and
    the host's state as `self.server.backing`.
    """

    server_version = "r2o"
    timeout = IDLE_TIMEOUT_S

    def handle(self) -> None:
        # blocking, each receive and send bounded by the kernel
        for option in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO):
            self.request.setsockopt(socket.SOL_SOCKET, option,
                                    _timeval(self.timeout))
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._stream = _Stream(self.request)
        self._close = False
        while not self._close:
            self.headers: dict[str, str] = {}
            self._body_read = False
            try:
                head = self._stream.head()
                if head is None:
                    return
                start, self.headers = head
                parts = start.split()
                method = parts[0].decode("latin-1") if parts else ""
                if (len(parts) != 3 or not _TOKEN.fullmatch(method)
                        or parts[2] not in (b"HTTP/1.1", b"HTTP/1.0")):
                    raise _Malformed(400, "bad request line")
            except _Malformed as exc:
                self._close = True
                self._reply(exc.status, f"{exc}\n".encode())
                return
            self.path = parts[1].decode("latin-1")
            self._close = parts[2] != b"HTTP/1.1" or _closes(self.headers)
            serve_method = getattr(self, "do_" + method, None)
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
        body = self._stream.read(length)
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
        head = (f"{_STATUS_LINES[status]}Server: {self.server_version}\r\n"
                f"{_date_line(int(time.time()))}"
                f"Content-Type: {content_type}\r\n")
        if status != 204:  # a 204 carries no Content-Length (RFC 9110 §8.6)
            head += f"Content-Length: {len(body)}\r\n"
        if self._close:
            head += "Connection: close\r\n"
        data = [(head + "\r\n").encode("latin-1"), body]
        sent = self.request.sendmsg(data)  # all of it, unless the send
        if sent < len(data[0]) + len(body):  # bound or a signal cut it short
            self.request.sendall(b"".join(data)[sent:])


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
