"""A stdlib JSON client for the control plane, one method per route.

Tests, the EXPERIMENTS.md walkthrough, and scripts use this instead of
hand-rolling ``curl``/``http.client`` calls. Every method returns the
decoded JSON payload; any status ≥ 400 raises :class:`ServiceError`
carrying the HTTP status and the server's ``error`` string. Each
calling thread keeps one connection alive; ``close()`` releases them.
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import time
from typing import Any, Dict, List, Optional
from urllib.parse import urlencode

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """An API call failed; carries the HTTP status and server detail."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.detail = detail


class ServiceClient:
    """Talks to one ``repro serve`` daemon over HTTP/JSON."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8642,
                 timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        # by thread ident: a new thread inherits a dead one's idle conn
        self._conns: Dict[int, http.client.HTTPConnection] = {}

    # --- transport --------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        conn = self._conns.get(threading.get_ident())
        if conn is None:
            conn = http.client.HTTPConnection(self.host, self.port,
                                              timeout=self.timeout)
            self._conns[threading.get_ident()] = conn
        elif conn.sock is not None:
            # urllib3's check: readable while idle = closed by the server
            poller = select.poll()
            poller.register(conn.sock, select.POLLIN)
            if poller.poll(0):
                conn.close()
        return conn

    def _request(self, method: str, path: str,
                 query: Optional[Dict[str, Any]] = None,
                 body: Optional[Dict[str, Any]] = None) -> Any:
        if query:
            path = f"{path}?{urlencode(query)}"
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        while True:
            conn = self._connection()
            reused, response = conn.sock is not None, None
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except BaseException as exc:
                conn.close()
                # Re-send only a GET, once, and only if a reused
                # connection died before any reply.
                if not (isinstance(exc, ConnectionError) and reused
                        and response is None and method == "GET"):
                    raise
        if response.status >= 400:
            detail = raw.decode("utf-8", "replace")
            try:
                data = json.loads(detail)
            except ValueError:  # e.g. the stdlib's HTML error page
                data = None
            if isinstance(data, dict):
                detail = data.get("error", detail)
            raise ServiceError(response.status, detail)
        return json.loads(raw.decode("utf-8")) if raw else {}

    def close(self) -> None:
        """Close every thread's connection; later calls reconnect."""
        for conn in list(self._conns.values()):
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # --- daemon -----------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/health")

    def ready(self) -> bool:
        try:
            return bool(self._request("GET", "/v1/ready").get("ready"))
        except ServiceError as exc:
            if exc.status == 503:
                return False
            raise

    def info(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/info")

    def tenants(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/v1/tenants")["tenants"]

    def drain(self) -> Dict[str, Any]:
        return self._request("POST", "/v1/drain")

    def trace(self, limit: int = 100) -> List[Dict[str, Any]]:
        return self._request("GET", "/v1/trace",
                             query={"limit": limit})["spans"]

    # --- campaigns --------------------------------------------------------

    def submit(self, tenant: str, rounds: Optional[int] = None,
               name: str = "", seed: int = 0,
               workflow: Optional[Dict[str, Any]] = None,
               **extra: Any) -> Dict[str, Any]:
        body: Dict[str, Any] = {"tenant": tenant, "seed": seed, **extra}
        if rounds is not None:
            body["rounds"] = rounds
        if name:
            body["name"] = name
        if workflow is not None:
            body["workflow"] = workflow
        return self._request("POST", "/v1/campaigns", body=body)["campaign"]

    def campaigns(self, tenant: Optional[str] = None) -> List[Dict[str, Any]]:
        query = {"tenant": tenant} if tenant else None
        return self._request("GET", "/v1/campaigns", query=query)["campaigns"]

    def status(self, campaign_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/campaigns/{campaign_id}")["campaign"]

    def pause(self, campaign_id: str) -> Dict[str, Any]:
        return self._request("POST",
                             f"/v1/campaigns/{campaign_id}/pause")["campaign"]

    def resume(self, campaign_id: str) -> Dict[str, Any]:
        return self._request("POST",
                             f"/v1/campaigns/{campaign_id}/resume")["campaign"]

    def cancel(self, campaign_id: str) -> Dict[str, Any]:
        return self._request("POST",
                             f"/v1/campaigns/{campaign_id}/cancel")["campaign"]

    def delete(self, campaign_id: str) -> Dict[str, Any]:
        return self._request("DELETE",
                             f"/v1/campaigns/{campaign_id}")["deleted"]

    def telemetry(self, campaign_id: str) -> Dict[str, Any]:
        return self._request(
            "GET", f"/v1/campaigns/{campaign_id}/telemetry")["telemetry"]

    def campaign_trace(self, campaign_id: str,
                       limit: int = 100) -> List[Dict[str, Any]]:
        return self._request("GET", f"/v1/campaigns/{campaign_id}/trace",
                             query={"limit": limit})["spans"]

    # --- convenience ------------------------------------------------------

    def wait(self, campaign_id: str, timeout: float = 60.0,
             poll: float = 0.05) -> Dict[str, Any]:
        """Poll until the campaign reaches a terminal state."""
        deadline = time.monotonic() + timeout
        while True:
            snap = self.status(campaign_id)
            if snap["state"] in ("done", "failed", "cancelled"):
                return snap
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"campaign {campaign_id} still {snap['state']!r} "
                    f"after {timeout}s")
            time.sleep(poll)
