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

The server is a :class:`~http.server.ThreadingHTTPServer`: request threads
only touch thread-safe app components (the store opens per-call connections,
the cache and job manager lock internally, request threads use plain
counters — never telemetry spans, which are single-threaded per recorder).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from ..utils.logging import get_logger
from .app import ServiceApp, ServiceError

__all__ = ["ServiceHTTPServer", "serve"]

_LOGGER = get_logger("service.http")

#: Refuse request bodies beyond this size (1 MiB) rather than buffering them.
MAX_BODY_BYTES = 1 << 20


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


class ServiceHTTPServer:
    """The service bound to a socket; start/stop wraps the stdlib server.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`) —
    what the CI smoke job and the end-to-end tests use.
    """

    def __init__(self, app: ServiceApp, *, host: str = "127.0.0.1", port: int = 0):
        self.app = app
        self._server = ThreadingHTTPServer((host, port), _make_handler(app))
        self._server.daemon_threads = True
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
        """Serve on a background thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()
        _LOGGER.info("service listening on %s", self.url)
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (the CLI path)."""
        _LOGGER.info("service listening on %s", self.url)
        try:
            self._server.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Shut the socket and the job worker down (idempotent)."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
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
