"""Socket layer: `ThreadingHTTPServer` around a :class:`ServeApp`.

The handler is a thin adapter — parse the request line, call
``app.handle``, write the response verbatim.  All routing, caching,
validation, and error shaping lives in the app, which is why the test
suite never needs a socket and the socket path needs almost no tests.

What the socket path does own is how bytes leave and how many
connections it holds:

* **One write per response on a no-delay socket.**  Status line,
  headers and body go out in a single ``sendall`` with Nagle off.
  Headers and body as two sends on a keep-alive connection stall the
  body behind the client's delayed ACK (~40 ms a request).
* **Bounded connections.**  A connection idle (or mid-request) for
  :data:`IDLE_TIMEOUT_S` is closed and its thread exits.  At most
  :data:`MAX_CONNECTIONS` are served at once; one more gets a canonical
  JSON ``503`` with ``Connection: close`` straight from the accept loop,
  without a thread.
"""

from __future__ import annotations

import email.utils
import signal
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from ..errors import ConfigError, ReproError
from .app import ServeApp
from .caching import WallServeClock
from .routes import ServiceUnavailable

#: Seconds a connection may sit idle, or take to send a request, before
#: the server closes it and frees its thread.
IDLE_TIMEOUT_S = 30.0
#: Connections served at once; each holds one handler thread.
MAX_CONNECTIONS = 64


class ServeHandler(BaseHTTPRequestHandler):
    """Adapter from http.server to ``ServeApp.handle``."""

    #: Bound by :func:`make_server` via a subclass attribute.
    app: ServeApp = None
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    disable_nagle_algorithm = True

    def _dispatch(self, method: str) -> None:
        parts = urlsplit(self.path)
        headers = {
            name: value
            for name, value in self.headers.items()
            if name.lower() == "if-none-match"
        }
        response = self.app.handle(method, parts.path, parts.query, headers)
        self.send_response(response.status)
        for name, value in response.headers:
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(response.body)))
        # ``end_headers`` would send the head on its own.  Queue the
        # blank line and the body behind it instead, so the response
        # leaves in one write (an HTTP/0.9 reply is the bare body).
        if self.request_version == "HTTP/0.9":
            self._headers_buffer = []
        else:
            self._headers_buffer.append(b"\r\n")
        if method != "HEAD":
            self._headers_buffer.append(response.body)
        self.flush_headers()

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_PUT(self) -> None:  # noqa: N802
        self._dispatch("PUT")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def do_HEAD(self) -> None:  # noqa: N802
        self._dispatch("HEAD")

    def log_message(self, format, *args) -> None:  # noqa: A002
        pass  # per-request logging lives in the app's instruments


class ServeServer(ThreadingHTTPServer):
    """Thread per connection, at most ``max_connections`` at once.

    A connection past the cap is answered on the accept loop and
    closed: no thread is spawned for it, and nothing on it can block
    the loop (the socket is non-blocking for the refusal).
    """

    daemon_threads = True

    def __init__(self, address, handler, max_connections: int) -> None:
        self.max_connections = max_connections
        self._slots = threading.BoundedSemaphore(max_connections)
        super().__init__(address, handler)

    def process_request(self, request, client_address) -> None:
        if not self._slots.acquire(blocking=False):
            self._refuse(request)
            return
        try:
            super().process_request(request, client_address)
        except Exception:
            self._slots.release()
            raise

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()

    def _refuse(self, request) -> None:
        handler = self.RequestHandlerClass
        exc = ServiceUnavailable(
            f"connection limit ({self.max_connections}) reached; retry later"
        )
        response = handler.app._error_response(exc, None)
        head = [
            f"HTTP/1.1 503 {handler.responses[503][0]}",
            f"Server: {handler.server_version} {handler.sys_version}",
            f"Date: {email.utils.formatdate(usegmt=True)}",
            *(f"{name}: {value}" for name, value in response.headers),
            f"Content-Length: {len(response.body)}",
            "Connection: close",
        ]
        wire = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
        request.setblocking(False)
        try:
            request.sendall(wire + response.body)
            request.shutdown(socket.SHUT_WR)
            # Read what of the request has arrived: closing over unread
            # bytes resets the connection, which can drop the 503.
            request.recv(65536)
        except OSError:
            pass
        self.close_request(request)


def make_server(
    app: ServeApp, host: str = "127.0.0.1", port: int = 0
) -> ServeServer:
    """A ready-to-run threaded server bound to ``(host, port)``.

    Port 0 binds an ephemeral port (read it back from
    ``server.server_address``).  The app's internal lock serializes
    request handling, so the thread-per-connection model is safe.
    :data:`IDLE_TIMEOUT_S` (the handler's socket ``timeout``) and
    :data:`MAX_CONNECTIONS` are read here, once per server.
    """
    handler = type(
        "BoundServeHandler",
        (ServeHandler,),
        {"app": app, "timeout": IDLE_TIMEOUT_S},
    )
    return ServeServer((host, port), handler, MAX_CONNECTIONS)


def run_server(options) -> int:
    """CLI entry: load the store, bind, serve until interrupted.

    Args:
        options: A validated :class:`~repro.options.ServeOptions`.

    Returns:
        Process exit code (2 on configuration/store errors).
    """
    if not options.store:
        print("error: serve requires --store FILE", file=sys.stderr)
        return 2
    try:
        app = ServeApp.from_files(
            options.store,
            options.crawl_metrics,
            cache_ttl=options.cache_ttl,
            cache_entries=options.cache_entries,
            top_versions=options.top_versions,
            clock=WallServeClock(),
        )
    except (ConfigError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        server = make_server(app, options.host, options.port)
    except OSError as exc:
        print(
            f"error: cannot bind {options.host}:{options.port}: {exc}",
            file=sys.stderr,
        )
        return 2
    # Graceful shutdown on SIGTERM (the signal process managers send):
    # stop accepting, drain in-flight requests, close the socket, exit
    # 0 — same path Ctrl-C takes.  ``server.shutdown`` blocks until the
    # serve loop exits, so the handler must call it from another thread.
    previous = None
    if threading.current_thread() is threading.main_thread():

        def _terminate(signum, frame):  # noqa: ARG001 - signal signature
            print("repro-serve: SIGTERM received, draining", file=sys.stderr)
            threading.Thread(target=server.shutdown, daemon=True).start()

        previous = signal.signal(signal.SIGTERM, _terminate)
    # The banner is the readiness signal supervisors wait for, so it is
    # printed only once SIGTERM is handled: a SIGTERM sent on seeing it
    # always drains (``shutdown`` before ``serve_forever`` still works).
    host, port = server.server_address[:2]
    try:
        print(
            f"repro-serve: {len(app.store.observed_domains):,} domains x "
            f"{len(app.calendar.weeks)} weeks, "
            f"{len(app._hot):,} hot aggregates precomputed; "
            f"listening on http://{host}:{port}/",
            file=sys.stderr,
        )
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
    return 0
