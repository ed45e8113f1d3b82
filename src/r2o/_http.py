"""The one HTTP layer under r2o's clients and servers.

Clients send every request through a `ConnectionPool`: a per-host set of
idle keep-alive HTTP/1.1 connections over `http.client` (RFC 9112 §9), so
a page's fetches reuse sockets instead of paying a TCP handshake each.
Response bodies are capped before they are read.

Servers are a `ThreadingHTTPServer` whose handlers derive from `Handler`.
It speaks HTTP/1.1 with Nagle's algorithm off: a keep-alive response sent
as separate header and body writes otherwise waits out the peer's delayed
ACK, about 40 ms per response (RFC 896, RFC 1122 §4.2.3.2). `serve` runs
one on a background thread and returns a `Server` handle.
"""

from __future__ import annotations

import http.client
import socket
import sys
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

MAX_PAYLOAD_DEFAULT = 16 * 1024 * 1024
# idle keep-alive connections kept per host; matches the widest fan-out a
# page makes (core._IO_FANOUT_MAX), so a repeated page opens no socket
MAX_IDLE_PER_HOST = 64
# a server handler drops a connection that sends nothing for this long
IDLE_TIMEOUT_S = 30.0

# errors of a reused connection that the peer closed while it sat idle;
# RemoteDisconnected is a ConnectionResetError
_STALE = (ConnectionResetError, BrokenPipeError)


class HttpError(Exception):
    """The request got no complete, acceptable response."""


@dataclass(frozen=True)
class Response:
    status: int
    content_type: str
    body: bytes


# -- client -----------------------------------------------------------------

class ConnectionPool:
    """Keep-alive connections per (scheme, host, port); thread-safe.

    A connection is used by one request at a time and returns to the pool
    only after its response was read to the end. A reused connection that
    fails before any response byte is retried once on a fresh connection;
    any other failure raises HttpError.
    """

    def __init__(self, timeout: float):
        self.timeout = timeout
        self._idle: dict[tuple, list[http.client.HTTPConnection]] = {}
        self._lock = threading.Lock()

    def request(self, method: str, url: str, body: bytes | None = None,
                headers: dict[str, str] | None = None,
                max_body: int = MAX_PAYLOAD_DEFAULT) -> Response:
        """Send one request; any status comes back as a Response."""
        try:
            parts = urlsplit(url)
            key = (parts.scheme, parts.hostname, parts.port)
        except ValueError as exc:
            raise HttpError(f"bad URL {url!r}: {exc}") from None
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise HttpError(f"unsupported URL {url!r}")
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query
                                        else "")
        with self._lock:
            idle = self._idle.get(key)
            conn = idle.pop() if idle else None
        reused = conn is not None
        if conn is None:
            conn = self._new(key)
        headers = headers or {}
        try:
            try:
                conn.request(method, target, body=body, headers=headers)
                resp = conn.getresponse()
            except _STALE:
                conn.close()
                if not reused:
                    raise
                conn = self._new(key)
                conn.request(method, target, body=body, headers=headers)
                resp = conn.getresponse()
            data = _read_body(resp, max_body)
        except (OSError, http.client.HTTPException, HttpError) as exc:
            conn.close()
            raise HttpError(str(exc) or type(exc).__name__) from None
        if resp.will_close or not resp.isclosed():
            conn.close()
        else:
            self._put(key, conn)
        return Response(resp.status,
                        resp.getheader("Content-Type",
                                       "application/octet-stream"), data)

    def _new(self, key: tuple) -> http.client.HTTPConnection:
        scheme, host, port = key
        cls = (http.client.HTTPSConnection if scheme == "https"
               else http.client.HTTPConnection)
        return cls(host, port, timeout=self.timeout)

    def _put(self, key: tuple, conn: http.client.HTTPConnection) -> None:
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


def _read_body(resp: http.client.HTTPResponse, max_body: int) -> bytes:
    """The whole body, or HttpError past max_body bytes.

    A declared length over the cap fails before any body byte is read; an
    undeclared one (chunked, or delimited by close) reads at most cap + 1.
    """
    if resp.length is not None:
        if resp.length > max_body:
            raise HttpError(f"response declares {resp.length} bytes, "
                            f"over the {max_body}-byte cap")
        return resp.read()
    data = resp.read(max_body + 1)
    if len(data) > max_body:
        raise HttpError(f"response body exceeds the {max_body}-byte cap")
    return data


# -- server -----------------------------------------------------------------

class Handler(BaseHTTPRequestHandler):
    """Request handler base: HTTP/1.1 keep-alive, no Nagle, bounded bodies."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S

    def log_message(self, fmt, *args):
        pass

    def parse_request(self) -> bool:
        self._body_read = False
        return super().parse_request()

    def _body(self, limit: int = MAX_PAYLOAD_DEFAULT) -> bytes | None:
        """The request body; None after replying 400 or 413 instead."""
        raw = self.headers.get("Content-Length", "").strip()
        if not (raw.isascii() and raw.isdigit()):  # missing, bad, negative
            self._reply(400, b"bad or missing Content-Length\n")
            return None
        if len(raw) > 18 or int(raw) > limit:
            self._reply(413, b"payload too large\n")
            return None
        self._body_read = True
        return self.rfile.read(int(raw))

    def _reply(self, status: int, body: bytes = b"",
               content_type: str = "text/plain",
               extra: dict[str, str] | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for k, v in (extra or {}).items():
            self.send_header(k, v)
        if not self._body_read and (
                self.headers.get("Content-Length", "0") != "0"
                or "Transfer-Encoding" in self.headers):
            # unread request bytes would be parsed as the next request
            self.send_header("Connection", "close")
        self.end_headers()
        if body:
            self.wfile.write(body)


class _Httpd(ThreadingHTTPServer):
    """Threaded server that tracks its live connections.

    The listen backlog is sized for a page's burst of connects; the default
    of 5 drops SYNs, which then wait out a 1 s retransmit.
    """

    request_queue_size = 128
    daemon_threads = True

    def __init__(self, address, handler, base_path: str):
        super().__init__(address, handler)
        host, port = self.server_address[:2]
        self.base_url = f"http://{host}:{port}{base_path}"
        self._live: set[socket.socket] = set()
        self._live_lock = threading.Lock()

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

    def close_connections(self) -> None:
        """End every live connection; its handler thread then exits."""
        with self._live_lock:
            live = list(self._live)
        for sock in live:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


class Server:
    """A running HTTP server; context manager with graceful shutdown."""

    service = None  # the FirstPartyService behind a first-party server

    def __init__(self, httpd: _Httpd, thread: threading.Thread):
        self._httpd = httpd
        self._thread = thread
        self.base_url = httpd.base_url

    def shutdown(self) -> None:
        """Stop accepting, end kept-alive connections, release the port."""
        self._httpd.shutdown()
        self._httpd.close_connections()
        self._httpd.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def serve(bind_address: tuple[str, int], handler: type[Handler],
          attrs: dict, name: str, base_path: str = "") -> Server:
    """Serve `handler`, bound to `attrs`, on a background thread."""
    from .store import BindFailure  # store builds on this module

    bound = type(handler.__name__, (handler,), attrs)
    try:
        httpd = _Httpd(bind_address, bound, base_path)
    except OSError as exc:
        raise BindFailure(f"cannot bind {bind_address}: {exc}") from None
    thread = threading.Thread(target=httpd.serve_forever,
                              name=f"{name}-{httpd.server_address[1]}",
                              daemon=True)
    thread.start()
    return Server(httpd, thread)
