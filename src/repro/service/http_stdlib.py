"""Stdlib HTTP transport for the analysis service.

A thin :mod:`http.server` daemon over :class:`~repro.service.app.ServiceApp`:
every route parses the request, calls the matching app handler and serialises
the returned payload as JSON.  No framework, no dependencies — the service
runs anywhere the repo does.  This daemon is the service's only transport.

Routes
------
====== ======================== ==========================================
POST   ``/scenarios``           submit a run (name or inline document)
GET    ``/jobs/{id}``           job state / progress
POST   ``/jobs/{id}/cancel``    cooperative cancellation
GET    ``/results/{fp}``        persisted run record by fingerprint
POST   ``/query``               analytical query against a cached handle
GET    ``/healthz``             liveness + configuration
GET    ``/stats``               store / cache / jobs / telemetry counters
====== ======================== ==========================================

Threading model
---------------
The server is an :class:`~http.server.HTTPServer` served by
:data:`ACCEPT_THREADS` standing threads, each named
``repro-service-http-accept``.  Each waits in ``accept()`` on the listening
socket and serves the connection it takes to its end, keep-alive requests
included, so a request starts no thread.  No connection waits behind busy,
stalled or kept-alive ones: the thread that takes the last idle slot first
starts one overflow thread, which exits after a connection once
:data:`ACCEPT_THREADS` threads are idle again.  The listen backlog is
:data:`LISTEN_BACKLOG`, so a burst of connections queues instead of being
reset.  ``serve_forever`` runs one of the standing loops on the calling
thread; :meth:`ServiceHTTPServer.stop` shuts the listening socket (waking
every ``accept()``), ends the reads of open connections and joins the
threads, whether they run beside :meth:`~ServiceHTTPServer.start`'s
background thread or beside the ``serve`` subcommand's main thread.

Request threads only touch thread-safe app components (the store opens
per-call connections, the cache and job manager lock internally, request
threads use plain counters — never telemetry spans, which are
single-threaded per recorder).
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Any, Callable

from ..utils.logging import get_logger
from .app import ServiceApp, ServiceError

__all__ = ["ServiceHTTPServer", "serve"]

_LOGGER = get_logger("service.http")

#: Refuse request bodies beyond this size (1 MiB) rather than buffering them.
MAX_BODY_BYTES = 1 << 20

#: Threads that wait in ``accept()`` for as long as the server runs.
ACCEPT_THREADS = 4

#: Connections the kernel queues for ``accept()`` (socketserver's default is 5).
LISTEN_BACKLOG = 64

#: The name of every accept thread, standing or overflow.
ACCEPT_THREAD_NAME = "repro-service-http-accept"

#: How long a stop waits for the accept threads, in seconds.
_JOIN_TIMEOUT_S = 5.0


def _make_handler(app: ServiceApp) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-service/1.0"
        protocol_version = "HTTP/1.1"

        # -------------------------------------------------------------- #
        # plumbing
        # -------------------------------------------------------------- #
        def log_message(self, format: str, *args: Any) -> None:
            _LOGGER.debug("%s - %s", self.address_string(), format % args)

        def _reply(self, status: int, payload: dict[str, Any]) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _read_json(self) -> dict[str, Any]:
            length = int(self.headers.get("Content-Length") or 0)
            if length > MAX_BODY_BYTES:
                raise ServiceError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
            raw = self.rfile.read(length) if length else b""
            if not raw:
                raise ServiceError(400, "request body must be a JSON object")
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ServiceError(400, f"invalid JSON body: {exc}") from exc
            if not isinstance(payload, dict):
                raise ServiceError(400, "request body must be a JSON object")
            return payload

        def _dispatch(self, route: Callable[[], tuple[int, dict[str, Any]]]) -> None:
            try:
                status, payload = route()
            except ServiceError as exc:
                app.recorder.counter("service.http.errors")
                self._reply(exc.status, exc.to_payload())
                return
            except Exception as exc:  # noqa: BLE001 - boundary: anything → 500
                _LOGGER.exception("unhandled service error")
                app.recorder.counter("service.http.errors")
                self._reply(500, {"error": f"{type(exc).__name__}: {exc}", "status": 500})
                return
            self._reply(status, payload)

        # -------------------------------------------------------------- #
        # routing
        # -------------------------------------------------------------- #
        def do_GET(self) -> None:  # noqa: N802 - http.server API
            path = self.path.split("?", 1)[0].rstrip("/")
            if path == "/healthz":
                self._dispatch(lambda: (200, app.healthz()))
            elif path == "/stats":
                self._dispatch(lambda: (200, app.stats()))
            elif path.startswith("/jobs/"):
                job_id = path[len("/jobs/") :]
                self._dispatch(lambda: (200, app.job_status(job_id)))
            elif path.startswith("/results/"):
                fingerprint = path[len("/results/") :]
                self._dispatch(lambda: (200, app.result(fingerprint)))
            else:
                self._reply(404, {"error": f"no route for GET {path!r}", "status": 404})

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            path = self.path.split("?", 1)[0].rstrip("/")
            if path == "/scenarios":
                self._dispatch(
                    lambda: (202, app.submit_scenario(self._read_json()))
                )
            elif path == "/query":
                self._dispatch(lambda: (200, app.query(self._read_json())))
            elif path.startswith("/jobs/") and path.endswith("/cancel"):
                job_id = path[len("/jobs/") : -len("/cancel")]
                self._dispatch(lambda: (200, app.cancel_job(job_id)))
            else:
                self._reply(404, {"error": f"no route for POST {path!r}", "status": 404})

    return Handler


class _AcceptThreadsHTTPServer(HTTPServer):
    """An :class:`HTTPServer` whose connections are served by accept threads.

    ``serve_forever`` starts ``ACCEPT_THREADS - 1`` standing threads and runs
    the last accept loop on the calling thread.  :meth:`shutdown` replaces
    :meth:`socketserver.BaseServer.shutdown`, which would wait for the
    select loop this server does not run.
    """

    request_queue_size = LISTEN_BACKLOG

    def __init__(self, address: tuple[str, int], handler: type[BaseHTTPRequestHandler]):
        super().__init__(address, handler)
        self._lock = threading.Lock()
        self._closing = False
        self._idle = 0  # loops waiting in accept()
        self._threads: set[threading.Thread] = set()
        self._connections: set[socket.socket] = set()

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Run the accept loops until :meth:`shutdown` (nothing polls)."""
        with self._lock:
            if self._closing:
                return
            self._threads.add(threading.current_thread())
            for _ in range(ACCEPT_THREADS - 1):
                self._start_thread(overflow=False)
        self._accept_loop(overflow=False)

    def _start_thread(self, *, overflow: bool) -> None:
        """Start one accept loop on a new thread (call with the lock held)."""
        thread = threading.Thread(
            target=self._accept_loop,
            args=(overflow,),
            name=ACCEPT_THREAD_NAME,
            daemon=True,
        )
        self._threads.add(thread)
        thread.start()

    def _accept_loop(self, overflow: bool) -> None:
        try:
            while True:
                with self._lock:
                    if self._closing:
                        return
                    self._idle += 1
                try:
                    request, client_address = self.socket.accept()
                except OSError:  # the socket was shut down, or a transient error
                    with self._lock:
                        self._idle -= 1
                    continue
                with self._lock:
                    self._idle -= 1
                    if self._closing:
                        self.shutdown_request(request)
                        return
                    self._connections.add(request)
                    if self._idle == 0:
                        self._start_thread(overflow=True)
                try:
                    self.finish_request(request, client_address)
                except Exception:
                    self.handle_error(request, client_address)
                finally:
                    with self._lock:
                        self._connections.discard(request)
                    self.shutdown_request(request)
                if overflow and self._idle >= ACCEPT_THREADS:
                    return
        finally:
            with self._lock:
                self._threads.discard(threading.current_thread())

    def shutdown(self) -> None:
        """Stop every accept loop and wait for it (idempotent).

        Shutting the listening socket wakes every ``accept()``; ending the
        reads of open connections lets a kept-alive one close once its
        current request is answered.
        """
        with self._lock:
            self._closing = True
            connections = list(self._connections)
            current = threading.current_thread()
            threads = [thread for thread in self._threads if thread is not current]
        with contextlib.suppress(OSError):  # already shut down or closed
            self.socket.shutdown(socket.SHUT_RDWR)
        for connection in connections:
            with contextlib.suppress(OSError):  # already closed or reset
                connection.shutdown(socket.SHUT_RD)
        deadline = time.monotonic() + _JOIN_TIMEOUT_S
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))


class ServiceHTTPServer:
    """The service bound to a socket; start/stop wraps the stdlib server.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`) —
    what the CI smoke job and the end-to-end tests use.
    """

    def __init__(self, app: ServiceApp, *, host: str = "127.0.0.1", port: int = 0):
        self.app = app
        self._server = _AcceptThreadsHTTPServer((host, port), _make_handler(app))
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral choice)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running service."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceHTTPServer":
        """Serve on background accept threads; returns self for chaining."""
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=ACCEPT_THREAD_NAME,
            daemon=True,
        )
        self._thread.start()
        _LOGGER.info("service listening on %s", self.url)
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (the CLI path).

        The calling thread runs one of the accept loops; SIGINT ends it.
        """
        _LOGGER.info("service listening on %s", self.url)
        try:
            self._server.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - runs in a subprocess
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Stop the accept threads, the socket and the job worker (idempotent)."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=_JOIN_TIMEOUT_S)
            self._thread = None
        self.app.close()

    def __enter__(self) -> "ServiceHTTPServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def serve(
    *,
    data_dir: str,
    host: str = "127.0.0.1",
    port: int = 0,
    cache_capacity: int | None = None,
    engine_jobs: int | None = None,
) -> ServiceHTTPServer:
    """Build a :class:`ServiceApp` and bind it to a socket (not yet serving).

    The ``repro-experiments serve`` subcommand calls this and then
    :meth:`ServiceHTTPServer.serve_forever`; tests call :meth:`start` to get
    a background server with an ephemeral port.
    """
    from .cache import DEFAULT_CACHE_CAPACITY

    app = ServiceApp(
        data_dir=data_dir,
        cache_capacity=(
            cache_capacity if cache_capacity is not None else DEFAULT_CACHE_CAPACITY
        ),
        engine_jobs=engine_jobs,
    )
    return ServiceHTTPServer(app, host=host, port=port)
