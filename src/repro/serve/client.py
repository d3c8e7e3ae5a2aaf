"""Blocking client for the serving layer, over TCP or in-process.

Two transports behind one tiny interface:

* :class:`HTTPTransport` — stdlib ``http.client`` against a running
  ``repro serve`` process (the CI smoke test and real deployments).
* :class:`LoopbackTransport` — hosts a :class:`~repro.serve.server.ServeApp`
  on a private event loop in a background thread and calls
  ``app.dispatch`` directly.  No sockets, no ports, fully hermetic —
  the unit tests and the serving benchmark drive the *entire* service
  stack (routing, admission, coalescing, degradation) this way, and
  concurrent client threads genuinely coalesce because their requests
  meet inside the single loop.

:class:`ServeClient` wraps either transport with typed helpers and
raises :class:`ServeClientError` (carrying the HTTP status and decoded
body) on non-2xx responses — except 429, which raises the sharper
:class:`~repro.serve.protocol.RejectedError` with the server's
``Retry-After`` so callers can implement honest backoff.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import urllib.parse
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import ReproError
from repro.serve.protocol import RejectedError
from repro.serve.server import ServeApp

Headers = List[Tuple[str, str]]


class ServeClientError(ReproError):
    """A non-2xx response from the service.

    :param status: HTTP status code.
    :param body: decoded JSON error body (``{"error", "message", ...}``)
        or ``{"raw": ...}`` when the body was not JSON.
    """

    def __init__(self, status: int, body: Dict[str, Any]) -> None:
        super().__init__(
            f"HTTP {status}: {body.get('message', body.get('raw', ''))}"
        )
        self.status = status
        self.body = body


class HTTPTransport:
    """One request per call over stdlib ``http.client``."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    def request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def close(self) -> None:
        """Nothing persistent to release (connections are per-request)."""


class LoopbackTransport:
    """Runs a :class:`ServeApp` on a private loop; no sockets involved.

    The background thread owns the event loop, so the app's coalescing
    timers and semaphores behave exactly as under the TCP server; any
    number of caller threads may issue requests concurrently.

    Use as a context manager or call :meth:`close` explicitly.
    """

    def __init__(self, app: ServeApp) -> None:
        self.app = app
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serve-loopback", daemon=True
        )
        self._thread.start()
        # Bind loop-affine resources (semaphore, executor) on the loop.
        asyncio.run_coroutine_threadsafe(
            self._startup(), self._loop
        ).result(timeout=10)

    async def _startup(self) -> None:
        self.app.startup()

    async def _stop_tasks(self) -> None:
        await self.app.stop_flusher()
        await self.app.coalescer.drain()

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, bytes]:
        future = asyncio.run_coroutine_threadsafe(
            self.app.dispatch(method, path, body or b""), self._loop
        )
        status, _headers, payload = future.result()
        return status, payload

    def close(self) -> None:
        if self._loop.is_running():
            # Stop the flusher and the coalescer's window tasks while
            # their loop is still alive, then stop the loop itself.
            asyncio.run_coroutine_threadsafe(
                self._stop_tasks(), self._loop
            ).result(timeout=10)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
        self._loop.close()
        self.app.shutdown()

    def __enter__(self) -> "LoopbackTransport":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class ServeClient:
    """Typed blocking access to the four service endpoints.

    ::

        with LoopbackTransport(ServeApp(db)) as transport:
            client = ServeClient(transport)
            result = client.query("sightings", k=5, threshold=0.5,
                                  deadline_ms=100)
            result["mode"]          # "exact" or "sampled"

    or against a live server::

        client = ServeClient.connect("127.0.0.1", 8080)
    """

    def __init__(self, transport: Any) -> None:
        self.transport = transport

    @classmethod
    def connect(
        cls, host: str, port: int, timeout: float = 30.0
    ) -> "ServeClient":
        return cls(HTTPTransport(host, port, timeout=timeout))

    # ------------------------------------------------------------------
    def query(
        self,
        table: str,
        k: int,
        threshold: float,
        mode: str = "auto",
        deadline_ms: Optional[float] = None,
        sample_budget: Optional[int] = None,
        confidence: Optional[float] = None,
        max_staleness_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Issue one PT-k query; returns the decoded response body.

        :raises RejectedError: on 429, with the server's retry hint.
        :raises ServeClientError: on any other non-2xx status (a 503
            from a replica means the staleness bound was exceeded).
        """
        payload: Dict[str, Any] = {
            "table": table,
            "k": k,
            "threshold": threshold,
            "mode": mode,
        }
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if sample_budget is not None:
            payload["sample_budget"] = sample_budget
        if confidence is not None:
            payload["confidence"] = confidence
        if max_staleness_s is not None:
            payload["max_staleness_s"] = max_staleness_s
        return self._json(
            "POST", "/query", json.dumps(payload).encode("utf-8")
        )

    def healthz(self) -> Dict[str, Any]:
        """Service liveness plus admission/coalescer counters."""
        return self._json("GET", "/healthz")

    def tables(self) -> List[Dict[str, Any]]:
        """The served tables with sizes and versions."""
        return self._json("GET", "/tables")["tables"]

    def metrics(self) -> str:
        """The Prometheus text exposition of the service's metrics."""
        status, body = self.transport.request("GET", "/metrics")
        if status != 200:
            raise ServeClientError(status, _decode(body))
        return body.decode("utf-8")

    # ------------------------------------------------------------------
    # Replication (primary-only routes; see docs/replication.md)
    # ------------------------------------------------------------------
    def fetch_wal(
        self,
        cursor: str,
        replica: str,
        max_records: Optional[int] = None,
        max_bytes: Optional[int] = None,
        advertise: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Fetch one batch of WAL records after ``cursor``.

        :raises ServeClientError: status 410 means the cursor fell
            outside the primary's retention — call :meth:`bootstrap`.
        """
        params = {"cursor": cursor, "replica": replica}
        if max_records is not None:
            params["max_records"] = str(max_records)
        if max_bytes is not None:
            params["max_bytes"] = str(max_bytes)
        if advertise is not None:
            params["advertise"] = advertise
        query = urllib.parse.urlencode(params)
        return self._json("GET", f"/replicate/wal?{query}")

    def bootstrap(self, replica: str) -> Dict[str, Any]:
        """Fetch full table documents plus the cursor to stream from."""
        query = urllib.parse.urlencode({"replica": replica})
        return self._json("GET", f"/replicate/bootstrap?{query}")

    def replicate_status(self) -> Dict[str, Any]:
        """The node's replication status (works on both roles)."""
        return self._json("GET", "/replicate/status")

    def mutate(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Apply one write on a writable node (``POST /mutate``).

        ``payload`` follows :func:`~repro.serve.protocol.mutation_from_dict`
        — e.g. ``{"op": "add", "table": t, "tid": ..., "score": ...,
        "probability": ...}``; ops are ``add`` / ``remove`` / ``update``
        / ``score`` / ``rule``.  Returns the new table version and, on
        a replication primary, the post-mutation WAL end cursor.
        Replicas refuse with 403.
        """
        return self._json(
            "POST", "/mutate", json.dumps(payload).encode("utf-8")
        )

    # ------------------------------------------------------------------
    def _json(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Any:
        status, payload = self.transport.request(method, path, body)
        decoded = _decode(payload)
        if status == 429:
            raise RejectedError(
                decoded.get("message", "rejected"),
                retry_after=float(decoded.get("retry_after", 1.0)),
            )
        if not (200 <= status < 300):
            raise ServeClientError(status, decoded)
        return decoded

    def close(self) -> None:
        self.transport.close()


def _decode(payload: bytes) -> Dict[str, Any]:
    try:
        decoded = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return {"raw": payload[:200].decode("utf-8", "replace")}
    if not isinstance(decoded, dict):
        return {"raw": decoded}
    return decoded
