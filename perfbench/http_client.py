"""Closed-loop HTTP/1.1 client for the oracle server, and the reply checks.

Each keep-alive connection sends its next request only after the previous
reply has arrived; the connections share one request list, so the client
keeps exactly ``connections`` requests in flight.  Times come from
``clock`` (by default ``time.perf_counter``).  Replies are kept as raw
bytes while timing and checked afterwards, against the client's own mmap
of each artifact.
"""

from __future__ import annotations

import asyncio
import json
import struct
import time
from typing import List, Optional, Tuple


class Client:
    """``connections`` keep-alive connections to one server."""

    def __init__(self, host: str, port: int, connections: int,
                 clock=time.perf_counter) -> None:
        self.host = host
        self.clock = clock
        self.port = port
        self.connections = connections
        self._conns: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    async def open(self) -> None:
        for _ in range(self.connections):
            self._conns.append(
                await asyncio.open_connection(self.host, self.port))

    async def close(self) -> None:
        for _reader, writer in self._conns:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._conns.clear()

    @staticmethod
    async def _exchange(reader, writer, request: bytes) -> Tuple[int, bytes]:
        writer.write(request)
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, await reader.readexactly(length)

    async def get(self, target: str) -> Tuple[int, dict]:
        """One request on the first connection (not timed)."""
        reader, writer = self._conns[0]
        status, body = await self._exchange(reader, writer, encode(target))
        return status, json.loads(body)

    async def batch(self, requests: List[bytes]):
        """Send every request; return (seconds, latencies, statuses, bodies)."""
        count = len(requests)
        latency = [0.0] * count
        status = [0] * count
        body: List[Optional[bytes]] = [None] * count
        order = iter(range(count))

        async def loop(reader, writer):
            for i in order:
                t0 = self.clock()
                status[i], body[i] = await self._exchange(
                    reader, writer, requests[i])
                latency[i] = self.clock() - t0

        t0 = self.clock()
        await asyncio.gather(*(loop(r, w) for r, w in self._conns))
        return self.clock() - t0, latency, status, body


def encode(target: str) -> bytes:
    return f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")


def _same_float(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


def check_reply(oracle, want_path: bool, source: int, target: int,
                status: int, body: bytes) -> Optional[str]:
    """Why one reply is wrong, or None when it matches the plane exactly.

    A 200 must carry the plane's float64 bit for bit and, for ``/path``,
    the plane's predecessor chain; the only allowed other status is the
    400 for ``/path`` between unreachable nodes.
    """
    expect = float(oracle.dist[source, target])
    reachable = expect != float("inf")
    if status == 400 and want_path and not reachable:
        return None
    if status != 200:
        return f"status {status}: {body[:120]!r}"
    payload = json.loads(body)
    if (payload.get("source"), payload.get("target")) != (source, target):
        return "reply names another pair"
    if payload.get("scenario") != oracle.hash:
        return "reply names another scenario"
    if payload.get("reachable") is not reachable:
        return "reachability differs from the plane"
    if reachable and not (isinstance(payload.get("distance"), float)
                          and _same_float(payload["distance"], expect)):
        return f"distance {payload.get('distance')!r} != plane {expect!r}"
    if not reachable and payload.get("distance") is not None:
        return "unreachable pair with a distance"
    if want_path:
        nodes = payload.get("path")
        if not nodes or nodes[0] != source or nodes[-1] != target:
            return "path does not join source to target"
        if payload.get("hops") != len(nodes) - 1:
            return "hops do not match the path"
        for u, v in zip(nodes, nodes[1:]):
            if int(oracle.pred[source, v]) != u:
                return f"path step {u}->{v} is not the plane's predecessor"
    return None
