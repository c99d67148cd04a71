"""Async HTTP serving layer for distance-oracle stores.

``python -m repro serve`` wraps this module: a small hand-rolled
HTTP/1.1 server on stdlib ``asyncio`` (no new dependencies) answering
point-to-point queries over an :class:`~repro.serving.store.OracleStore`
with per-request metrics.  Endpoints:

* ``GET /healthz`` — liveness probe.
* ``GET /scenarios`` — the store catalog (hash, label, n, loaded flag).
* ``GET /distance?scenario=<hash>&source=<int>&target=<int>`` — one
  ``delta(source, target)``; unreachable pairs report ``distance: null``
  with ``reachable: false``.  Distances are emitted as JSON floats via
  ``repr`` round-tripping, so the parsed value is bit-identical to the
  mmap'd float64 the sweep record hashed.
* ``GET /path?scenario=...&source=...&target=...`` — the full shortest
  node sequence reconstructed from the predecessor plane.
* ``GET /stats`` — structured serving metrics: request/error counts per
  route, latency p50/p99, queries per second since start, and the
  store's hot-set hit/miss/eviction counters.

Connections are keep-alive (HTTP/1.1 default); a connection is closed
on ``Connection: close``, read timeout, or protocol errors.  The server
fails closed on input it does not parse: a request carrying a body
(``Content-Length`` or ``Transfer-Encoding``) is answered and the
connection closed, so the body is never read as a next request; a
request or header line over :data:`LINE_LIMIT`, or more than
:data:`MAX_HEADERS` header lines, is answered ``431`` and closed.  The
serving path never mutates artifacts, so concurrent requests are safe
by construction — the only shared mutable state is the LRU hot set,
which locks internally.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import Counter, deque
from typing import Deque, Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.serving.artifact import ArtifactError
from repro.serving.store import OracleStore, UnknownScenario

#: default bind address for ``python -m repro serve``
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8323

#: per-request latencies kept for the percentile window
LATENCY_WINDOW = 8192

#: seconds an idle keep-alive connection may sit before being dropped
IDLE_TIMEOUT = 60.0

#: the routes ``/stats`` counts by name; every other request path
#: (unknown routes, malformed request lines) is counted as ``other``, so
#: the counters stay bounded whatever clients send
ROUTES = ("/healthz", "/scenarios", "/distance", "/path", "/stats")

#: longest request or header line, in bytes (asyncio's default stream
#: limit); a longer one is answered with 431
LINE_LIMIT = 2 ** 16

#: header lines accepted per request; more is answered with 431
MAX_HEADERS = 100

_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
                405: "Method Not Allowed",
                431: "Request Header Fields Too Large",
                500: "Internal Server Error"}


class _TooLarge(Exception):
    """A request line, header line or header count over its limit."""


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One line, ``b""`` on EOF or idle timeout.

    A line longer than the stream limit raises :class:`_TooLarge`
    (asyncio reports it as a ``ValueError``).
    """
    try:
        return await asyncio.wait_for(reader.readline(), IDLE_TIMEOUT)
    except asyncio.TimeoutError:
        return b""
    except ValueError as exc:
        raise _TooLarge(f"line longer than {LINE_LIMIT} bytes") from exc


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list (empty -> 0.0)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


class ServingMetrics:
    """Per-request serving metrics behind ``GET /stats``.

    Counts requests and errors per route (:data:`ROUTES` plus ``other``)
    and keeps a bounded window of request latencies; :meth:`snapshot`
    reduces the window to p50/p99 and derives queries-per-second from
    the uptime clock.
    """

    def __init__(self, window: int = LATENCY_WINDOW) -> None:
        self.started = time.monotonic()
        self.requests: Counter = Counter()
        self.errors: Counter = Counter()
        self.latencies: Deque[float] = deque(maxlen=window)

    def observe(self, route: str, seconds: float, status: int) -> None:
        """Record one finished request."""
        if route not in ROUTES:
            route = "other"
        self.requests[route] += 1
        if status >= 400:
            self.errors[route] += 1
        self.latencies.append(seconds)

    def snapshot(self, store_stats: Optional[dict] = None) -> dict:
        """The ``/stats`` payload (plus the store's hot-set counters)."""
        window = sorted(self.latencies)
        uptime = max(time.monotonic() - self.started, 1e-9)
        total = sum(self.requests.values())
        return {
            "uptime_s": round(uptime, 3),
            "requests": dict(self.requests),
            "errors": dict(self.errors),
            "total_requests": total,
            "qps": round(total / uptime, 2),
            "latency_ms": {
                "window": len(window),
                "p50": round(_percentile(window, 0.50) * 1e3, 4),
                "p99": round(_percentile(window, 0.99) * 1e3, 4),
            },
            "store": store_stats or {},
        }


class OracleServer:
    """The asyncio HTTP server over one :class:`OracleStore`.

    ``await start()`` binds (``port=0`` picks a free port, exposed as
    ``.port`` — tests and benches use that); ``await close()`` tears
    down.  Request handling is deliberately boring: parse the request
    line, dispatch on path, emit one JSON body with ``Content-Length``.
    """

    def __init__(self, store: OracleStore, host: str = DEFAULT_HOST,
                 port: int = DEFAULT_PORT) -> None:
        self.store = store
        self.host = host
        self.port = port
        self.metrics = ServingMetrics()
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> "OracleServer":
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=LINE_LIMIT)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        """Stop accepting and close the listening sockets."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        """Run until cancelled (the ``repro serve`` foreground loop)."""
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # connection + request plumbing
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                t0 = time.perf_counter()
                try:
                    line = await _read_line(reader)
                    if not line.strip():
                        break
                    keep_alive = await self._handle_request(
                        line.decode("latin-1").strip(), reader, writer)
                except _TooLarge as exc:
                    await self._respond(writer, 431, {"error": str(exc)},
                                        route="other", t0=t0)
                    break
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            pass  # loop shutdown while parked on a keep-alive read
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError,
                    asyncio.CancelledError):  # pragma: no cover
                pass

    async def _handle_request(self, request_line: str,
                              reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> bool:
        t0 = time.perf_counter()
        parts = request_line.split()
        if len(parts) != 3:
            await self._respond(writer, 400,
                                {"error": f"malformed request line "
                                          f"{request_line!r}"},
                                route="malformed", t0=t0)
            return False
        method, target, _version = parts
        headers = await self._read_headers(reader)
        if headers is None:
            return False
        # A body is never read: answering and closing keeps it from
        # being parsed as the next request on this connection.
        has_body = ("transfer-encoding" in headers
                    or headers.get("content-length", "0") != "0")
        keep_alive = (not has_body
                      and headers.get("connection", "").lower() != "close")
        url = urlsplit(target)
        route = url.path
        if method != "GET":
            await self._respond(writer, 405,
                                {"error": f"{method} not supported; the "
                                          f"oracle is read-only"},
                                route=route, t0=t0, keep_alive=keep_alive)
            return keep_alive
        params = dict(parse_qsl(url.query))
        status, payload = self._dispatch(route, params)
        await self._respond(writer, status, payload, route=route, t0=t0,
                            keep_alive=keep_alive)
        return keep_alive

    @staticmethod
    async def _read_headers(reader) -> Optional[Dict[str, str]]:
        headers: Dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            line = await _read_line(reader)
            if not line:
                return None
            text = line.decode("latin-1").strip()
            if not text:
                return headers
            name, _, value = text.partition(":")
            headers[name.strip().lower()] = value.strip()
        raise _TooLarge(f"more than {MAX_HEADERS} header lines")

    async def _respond(self, writer, status: int, payload: dict, *,
                       route: str, t0: float,
                       keep_alive: bool = False) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()
        self.metrics.observe(route, time.perf_counter() - t0, status)

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------

    def _dispatch(self, route: str, params: Dict[str, str]) -> Tuple[int, dict]:
        try:
            if route == "/healthz":
                return 200, {"status": "ok"}
            if route == "/scenarios":
                catalog = self.store.catalog()
                return 200, {"count": len(catalog), "scenarios": catalog}
            if route == "/stats":
                return 200, self.metrics.snapshot(self.store.stats())
            if route == "/distance":
                return self._query(params, want_path=False)
            if route == "/path":
                return self._query(params, want_path=True)
            return 404, {"error": f"unknown route {route!r}; try /healthz, "
                                  f"/scenarios, /distance, /path, /stats"}
        except UnknownScenario as exc:
            return 404, {"error": str(exc)}
        except (ArtifactError, ValueError) as exc:
            return 400, {"error": str(exc)}

    def _query(self, params: Dict[str, str],
               want_path: bool) -> Tuple[int, dict]:
        missing = [k for k in ("scenario", "source", "target")
                   if k not in params]
        if missing:
            return 400, {"error": f"missing query parameter(s): "
                                  f"{', '.join(missing)}"}
        try:
            source = int(params["source"])
            target = int(params["target"])
        except ValueError:
            return 400, {"error": "source and target must be integers"}
        oracle = self.store.get(params["scenario"])
        distance = oracle.distance(source, target)
        reachable = distance != float("inf")
        payload = {
            "scenario": oracle.hash,
            "label": oracle.label,
            "source": source,
            "target": target,
            "distance": distance if reachable else None,
            "reachable": reachable,
        }
        if want_path:
            if not reachable:
                return 400, {"error": f"{target} is unreachable from "
                                      f"{source}; no path to reconstruct"}
            nodes = oracle.path(source, target)
            payload["path"] = nodes
            payload["hops"] = len(nodes) - 1
        return 200, payload


async def _serve(store: OracleStore, host: str, port: int,
                 announce=print) -> None:
    server = await OracleServer(store, host, port).start()
    announce(f"serving {len(store)} scenario(s) on "
             f"http://{server.host}:{server.port} "
             f"(hot set {store.capacity}; GET /scenarios for the catalog)")
    try:
        await server.serve_forever()
    except asyncio.CancelledError:  # pragma: no cover - shutdown path
        pass
    finally:
        await server.close()


def run_server(store: OracleStore, host: str = DEFAULT_HOST,
               port: int = DEFAULT_PORT, announce=print) -> None:
    """Blocking entry point behind ``python -m repro serve``."""
    try:
        asyncio.run(_serve(store, host, port, announce=announce))
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        announce("shutting down")


__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "OracleServer",
    "ROUTES",
    "ServingMetrics",
    "run_server",
]
