"""A zero-dependency asyncio HTTP endpoint: ``/metrics`` and ``/healthz``.

Runs *inside* the serving tier's event loop (alongside ``serve_stdio``),
so a scrape reads the same registry the request path writes — no second
process, no sockets handed across threads.  The server speaks just enough
HTTP/1.0 for Prometheus and ``curl``: one request per connection, GET
only, ``Connection: close``.

Routes:

* ``GET /metrics``  — Prometheus text exposition of the registry (the SLO
  tracker, when attached, refreshes its ``slo_*`` gauges first);
* ``GET /healthz``  — JSON liveness: ``{"status": "ok"}`` plus whatever
  the health callback reports (tier snapshot highlights);
* anything else — 404.

Binding port 0 (the default) lets the OS pick — tests read the bound
``port`` attribute after :meth:`MetricsServer.start`.
"""

from __future__ import annotations

import asyncio
import json
from collections.abc import Callable

from repro.obs.metrics import REGISTRY, MetricsRegistry

_MAX_REQUEST_BYTES = 16384


class MetricsServer:
    """Serve ``/metrics`` + ``/healthz`` for one registry on one port."""

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        *,
        slo=None,
        health: Callable[[], dict] | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.registry = registry if registry is not None else REGISTRY
        self.slo = slo
        self.health = health
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def start(self) -> "MetricsServer":
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "MetricsServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- request handling --------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            writer.close()
            return
        if len(request) > _MAX_REQUEST_BYTES:
            await self._respond(writer, 413, "text/plain", "request too large\n")
            return
        parts = request.split(b"\r\n", 1)[0].decode("latin-1").split()
        method, path = (parts + ["", ""])[:2]
        path = path.split("?", 1)[0]
        if method != "GET":
            await self._respond(writer, 405, "text/plain", "GET only\n")
        elif path == "/metrics":
            if self.slo is not None:
                self.slo.export(self.registry)
            from repro.obs.export import prometheus_exposition

            await self._respond(
                writer,
                200,
                "text/plain; version=0.0.4",
                prometheus_exposition(self.registry),
            )
        elif path == "/healthz":
            body = {"status": "ok"}
            if self.health is not None:
                body.update(self.health())
            await self._respond(
                writer, 200, "application/json", json.dumps(body) + "\n"
            )
        else:
            await self._respond(writer, 404, "text/plain", "not found\n")

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter, status: int, ctype: str, body: str
    ) -> None:
        reasons = {200: "OK", 404: "Not Found", 405: "Method Not Allowed",
                   413: "Payload Too Large"}
        payload = body.encode()
        head = (
            f"HTTP/1.0 {status} {reasons.get(status, 'Error')}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + payload)
        try:
            await writer.drain()
        finally:
            writer.close()
