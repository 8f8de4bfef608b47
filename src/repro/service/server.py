"""The control-plane daemon front end: stdlib HTTP over the registry.

``repro serve`` builds a :class:`ControlPlaneServer`: one
``ThreadingHTTPServer`` (no third-party web framework — the container
bakes in only the scientific stack) whose handler parses JSON, hands
the request to :func:`repro.service.api.dispatch`, and writes the JSON
response. Handler threads are plain request workers; all campaign state
lives behind the thread-safe :class:`~repro.service.registry.CampaignRegistry`.

Shutdown discipline (the "draining and restarting safely" runbook in
OPERATIONS.md automates this order):

1. stop accepting TCP connections and sever kept-alive ones,
2. cancel or finish campaigns and join their control threads,
3. drain the shared worker pool,
4. close the shared store (only if the server opened it).
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro import trace
from repro._version import __version__
from repro.datastore.base import DataStore, open_store
from repro.service import api
from repro.service.registry import CampaignRegistry, ServiceConfig

__all__ = ["ControlPlaneServer"]

_MAX_BODY = 1 << 20  # 1 MiB of JSON is far beyond any legal request


class _Handler(BaseHTTPRequestHandler):
    """One request: parse → dispatch → JSON reply. No state of its own."""

    server_version = f"repro-control/{__version__}"
    protocol_version = "HTTP/1.1"
    # Keep-alive replies go out as two writes (headers, body); with Nagle
    # on, the body waits for the client's delayed ACK on every request.
    disable_nagle_algorithm = True

    # ControlPlaneServer attaches the registry and the set of open
    # connections to the TCP server.
    def setup(self) -> None:
        super().setup()
        self.server.conns.add(self.connection)  # type: ignore[attr-defined]

    def finish(self) -> None:
        self.server.conns.discard(self.connection)  # type: ignore[attr-defined]
        super().finish()

    def log_message(self, format: str, *args: Any) -> None:
        """Silence per-request stderr logging (telemetry covers this)."""

    def _read_body(self) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
        value = (self.headers.get("Content-Length") or "0").strip()
        length = int(value) if value.isdecimal() else -1
        if length == 0:
            return None, None
        if not 0 < length <= _MAX_BODY:
            # Past an unread body the next request's start is unknowable.
            self.close_connection = True
            return None, f"Content-Length must be 0..{_MAX_BODY} bytes"
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return None, f"request body is not valid JSON: {exc}"
        return body, None

    def _respond(self, status: int, payload: Any,
                 extra_headers: Optional[Dict[str, str]] = None) -> None:
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _handle(self, method: str) -> None:
        parts = urlsplit(self.path)
        query = dict(parse_qsl(parts.query))
        body, error = self._read_body()
        if error is not None:
            self._respond(400, {"error": error}, {"Connection": "close"}
                          if self.close_connection else None)
            return
        try:
            status, payload = api.dispatch(
                self.server.registry,  # type: ignore[attr-defined]
                method, parts.path, query, body)
        except Exception as exc:  # a handler bug must not kill the daemon
            status, payload = 500, {"error": f"internal: {exc}"}
        headers = None
        if status == 405 and isinstance(payload, dict) and "allow" in payload:
            headers = {"Allow": ", ".join(payload["allow"])}
        self._respond(status, payload, headers)

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._handle("DELETE")


class ControlPlaneServer:
    """The long-running daemon: HTTP front end + campaign registry.

    Parameters
    ----------
    store_url:
        Shared backend URL (``kv://…``, ``netkv://…``, ``fs://…``); used
        when no open ``store`` is given. The server owns (and closes) a
        store it opened itself, never one it was handed.
    host, port:
        Bind address; port 0 picks a free port (tests).
    config:
        Registry knobs (quotas, pool size, shares).
    trace_capacity:
        Span ring-buffer size for the daemon-wide tracer. The server
        enables tracing at start if nothing else has; a tracer that was
        already live is left untouched (and not disabled at stop).
    """

    def __init__(self, store_url: str = "kv://2",
                 host: str = "127.0.0.1", port: int = 0,
                 config: Optional[ServiceConfig] = None,
                 store: Optional[DataStore] = None,
                 trace_capacity: int = 65536) -> None:
        owns_store = store is None
        backend = store if store is not None else open_store(store_url)
        self.registry = CampaignRegistry(backend, config=config,
                                         owns_store=owns_store)
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.registry = self.registry  # type: ignore[attr-defined]
        self._httpd.conns = set()  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._trace_capacity = trace_capacity
        self._owns_tracer = False

    @property
    def address(self) -> Tuple[str, int]:
        return self._httpd.server_address[:2]  # type: ignore[return-value]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ControlPlaneServer":
        if trace.get_tracer() is None and self._trace_capacity > 0:
            trace.enable(capacity=self._trace_capacity)
            self._owns_tracer = True
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="control-plane-http", daemon=True)
        self._thread.start()
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """The safe-shutdown order (see module docstring)."""
        self._httpd.shutdown()
        self._httpd.server_close()
        # Sever kept-alive connections (each handler wakes to EOF).
        for conn in list(self._httpd.conns):  # type: ignore[attr-defined]
            with contextlib.suppress(OSError):  # its handler closed it
                conn.shutdown(socket.SHUT_RDWR)
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        self.registry.shutdown(timeout=timeout)
        if self._owns_tracer:
            trace.disable()
            self._owns_tracer = False

    def __enter__(self) -> "ControlPlaneServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
