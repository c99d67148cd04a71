"""The distance-oracle serving layer: artifacts, store, and HTTP server."""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np
import pytest

from repro.congest import CongestNetwork
from repro.experiments import ALGORITHMS, ScenarioSpec, make_graph
from repro.experiments.runner import run_scenario
from repro.serving import (
    ArtifactError,
    DistanceOracle,
    OracleServer,
    OracleStore,
    UnknownScenario,
    build_artifact,
    build_store,
    load_artifact,
)
from repro.serving.artifact import MAGIC, artifact_path

from conftest import faulted_record


def _spec(seed: int = 1, n: int = 14) -> ScenarioSpec:
    return ScenarioSpec(family="er", n=n, algorithm="naive-bf", seed=seed,
                        strict=False)


@pytest.fixture(scope="module")
def record():
    return run_scenario(_spec(), verify=True)


@pytest.fixture(scope="module")
def store_dir(record, tmp_path_factory):
    root = tmp_path_factory.mktemp("oracle-store")
    build_artifact(record, root)
    return root


# ----------------------------------------------------------------------
# artifacts
# ----------------------------------------------------------------------

def test_artifact_round_trip_is_bit_identical(record, store_dir):
    oracle = load_artifact(artifact_path(store_dir, record["hash"]))
    spec = _spec()
    graph = make_graph(spec.family, spec.n, spec.seed)
    result = ALGORITHMS[spec.algorithm](
        CongestNetwork(graph, strict=False), graph)
    assert oracle.hash == record["hash"]
    assert oracle.header["dist_sha256"] == record["dist_sha256"]
    # byte-for-byte: the mmap'd plane equals the simulation output
    assert np.array_equal(np.asarray(oracle.dist),
                          np.asarray(result.dist, dtype=np.float64))
    assert np.array_equal(np.asarray(oracle.pred),
                          np.asarray(result.pred, dtype=np.int64))
    oracle.close()


def test_oracle_path_matches_apsp_result(record, store_dir):
    oracle = load_artifact(artifact_path(store_dir, record["hash"]))
    spec = _spec()
    graph = make_graph(spec.family, spec.n, spec.seed)
    result = ALGORITHMS[spec.algorithm](
        CongestNetwork(graph, strict=False), graph)
    result.verify(graph)  # anchor: the reference routing is exact
    for s in range(0, graph.n, 3):
        for t in range(graph.n):
            if np.isinf(result.dist[s, t]):
                continue
            assert oracle.path(s, t) == result.path(s, t)
            assert oracle.distance(s, t) == float(result.dist[s, t])
    oracle.close()


def test_oracle_rejects_out_of_range_queries(record, store_dir):
    oracle = load_artifact(artifact_path(store_dir, record["hash"]))
    with pytest.raises(ValueError, match="source"):
        oracle.distance(-1, 0)
    with pytest.raises(ValueError, match="target"):
        oracle.distance(0, oracle.n)
    oracle.close()


def test_build_is_idempotent_and_force_rebuilds(record, tmp_path):
    first = build_artifact(record, tmp_path)
    mtime = first.path.stat().st_mtime_ns
    again = build_artifact(record, tmp_path)  # short-circuits on existing
    assert again.nbytes == first.nbytes
    assert again.path.stat().st_mtime_ns == mtime
    forced = build_artifact(record, tmp_path, force=True)
    assert forced.nbytes == first.nbytes
    assert forced.dist_sha256 == record["dist_sha256"]


def test_build_refuses_mismatched_record_hash(record, tmp_path):
    tampered = dict(record)
    tampered["dist_sha256"] = "0" * 64
    with pytest.raises(ArtifactError, match="not bit-identical"):
        build_artifact(tampered, tmp_path)


def test_build_rejects_faulted_records(tmp_path):
    # A record from a release with the fault axis no longer rebuilds.
    with pytest.raises(ArtifactError, match="unreadable spec.*fault"):
        build_artifact(faulted_record(), tmp_path)


@pytest.mark.parametrize("spec", [
    [1], "er", None, {"family": "er", "n": "abc", "algorithm": "naive-bf"},
], ids=["list", "string", "null", "n-not-int"])
def test_build_rejects_malformed_specs(record, spec, tmp_path):
    with pytest.raises(ArtifactError, match="missing 'spec'|unreadable spec"):
        build_artifact(dict(record, spec=spec), tmp_path)
    assert not list(tmp_path.iterdir())


def test_corrupt_plane_fails_checksum_verification(record, tmp_path):
    info = build_artifact(record, tmp_path)
    data = bytearray(info.path.read_bytes())
    data[-5] ^= 0xFF  # flip a byte inside the pred plane
    info.path.write_bytes(bytes(data))
    with pytest.raises(ArtifactError, match="corrupt"):
        load_artifact(info.path, verify=True)
    # verify=False maps without hashing: the corruption goes unnoticed
    oracle = load_artifact(info.path, verify=False)
    assert oracle.n == 14
    oracle.close()


def test_truncated_and_foreign_files_rejected(record, tmp_path):
    info = build_artifact(record, tmp_path)
    blob = info.path.read_bytes()
    short = tmp_path / "short.oracle"
    short.write_bytes(blob[:-64])
    with pytest.raises(ArtifactError, match="truncated|bytes"):
        load_artifact(short)
    bogus = tmp_path / "bogus.oracle"
    bogus.write_bytes(b"not an artifact at all" + bytes(64))
    with pytest.raises(ArtifactError, match="bad magic"):
        load_artifact(bogus)
    assert blob[:8] == MAGIC


def test_build_store_skips_unbuildable_records(tmp_path):
    records = tmp_path / "records"
    records.mkdir()
    ok = run_scenario(_spec(n=10), verify=False)
    (records / f"{ok['hash']}.json").write_text(json.dumps(ok))
    for name, spec in (("list", [1]), ("n", dict(ok["spec"], n="abc"))):
        bad = dict(ok, spec=spec)
        (records / f"bad-{name}.json").write_text(json.dumps(bad))
    built, skipped = build_store([records], tmp_path / "store")
    assert [info.hash for info in built] == [ok["hash"]]
    assert len(skipped) == 2
    assert all("unreadable spec" in line for line in skipped)


# ----------------------------------------------------------------------
# the store (LRU hot set)
# ----------------------------------------------------------------------

def _multi_store(tmp_path, seeds=(1, 2, 3)):
    for seed in seeds:
        build_artifact(run_scenario(_spec(seed=seed, n=10), verify=False),
                       tmp_path)
    return OracleStore(tmp_path, capacity=2)


def test_store_lru_eviction_and_counters(tmp_path):
    store = _multi_store(tmp_path)
    keys = store.keys()
    assert len(store) == 3
    first, second, third = (store.get(k) for k in keys)
    assert store.misses == 3 and store.evictions == 1
    # the first-loaded oracle fell out of the capacity-2 hot set
    assert first.dist is None  # evicted oracles are closed
    assert isinstance(third, DistanceOracle) and third.dist is not None
    again = store.get(keys[2])
    assert again is third and store.hits == 1
    loaded = [e["hash"] for e in store.catalog() if e["loaded"]]
    assert loaded == sorted([keys[1], keys[2]])
    stats = store.stats()
    assert stats["loaded"] == 2 and stats["capacity"] == 2
    store.close()
    assert store.stats()["loaded"] == 0


def test_store_unknown_scenario(store_dir):
    store = OracleStore(store_dir)
    with pytest.raises(UnknownScenario, match="unknown scenario"):
        store.get("feedfacedeadbeef")
    store.close()


def test_store_requires_artifacts(tmp_path):
    with pytest.raises(ArtifactError, match="no .oracle artifacts"):
        OracleStore(tmp_path)
    with pytest.raises(ArtifactError, match="not a directory"):
        OracleStore(tmp_path / "missing")


# ----------------------------------------------------------------------
# the HTTP server
# ----------------------------------------------------------------------

async def _get(reader, writer, target: str):
    writer.write(f"GET {target} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = (await reader.readline()).decode().strip()
        if not line:
            break
        name, _, value = line.partition(":")
        if name.lower() == "content-length":
            length = int(value)
    return status, json.loads(await reader.readexactly(length))


def _serve(store, coro_fn):
    """Run ``coro_fn(server)`` against a freshly started server."""
    async def runner():
        server = await OracleServer(store, port=0).start()
        try:
            return await coro_fn(server)
        finally:
            await server.close()

    return asyncio.run(runner())


def test_server_routes_and_metrics(record, store_dir):
    store = OracleStore(store_dir)
    oracle = store.get(record["hash"])

    async def scenario(server):
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       server.port)
        status, body = await _get(reader, writer, "/healthz")
        assert (status, body) == (200, {"status": "ok"})
        status, body = await _get(reader, writer, "/scenarios")
        assert status == 200 and body["count"] == 1
        assert body["scenarios"][0]["hash"] == record["hash"]
        target = (f"/distance?scenario={record['hash']}"
                  f"&source=0&target=3")
        status, body = await _get(reader, writer, target)
        assert status == 200
        # JSON float repr round-trips: parsed == the mmap'd float64
        assert body["distance"] == oracle.distance(0, 3)
        status, body = await _get(
            reader, writer,
            f"/path?scenario={record['hash']}&source=0&target=3")
        assert status == 200
        assert body["path"] == oracle.path(0, 3)
        assert body["hops"] == len(body["path"]) - 1
        # error shapes
        status, body = await _get(reader, writer, "/nope")
        assert status == 404 and "unknown route" in body["error"]
        status, body = await _get(
            reader, writer, "/distance?scenario=ffff&source=0&target=1")
        assert status == 404 and "unknown scenario" in body["error"]
        status, body = await _get(
            reader, writer, f"/distance?scenario={record['hash']}")
        assert status == 400 and "missing query parameter" in body["error"]
        status, body = await _get(
            reader, writer,
            f"/distance?scenario={record['hash']}&source=x&target=1")
        assert status == 400 and "integers" in body["error"]
        status, body = await _get(reader, writer, "/stats")
        assert status == 200
        assert body["total_requests"] == 8
        assert body["errors"] == {"/distance": 3, "other": 1}
        assert body["latency_ms"]["p99"] >= body["latency_ms"]["p50"] >= 0
        assert body["store"]["scenarios"] == 1
        # unknown paths share one label: the counters stay bounded
        for i in range(50):
            status, _ = await _get(reader, writer, f"/unknown-{i}")
            assert status == 404
        status, body = await _get(reader, writer, "/stats")
        assert len(body["requests"]) <= 6
        assert body["requests"]["other"] == 51
        assert body["errors"]["other"] == 51
        writer.close()
        await writer.wait_closed()

    _serve(store, scenario)
    store.close()


def test_server_rejects_non_get(record, store_dir):
    store = OracleStore(store_dir)

    async def scenario(server):
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       server.port)
        writer.write(b"POST /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        assert status == 405
        writer.close()
        await writer.wait_closed()

    _serve(store, scenario)
    store.close()


async def _exchange(server, payload: bytes) -> list:
    """Send raw bytes on a fresh connection; read until the server closes.

    Returns the status code of every response received.  A server that
    keeps the connection open fails the read timeout.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    writer.write(payload)
    await writer.drain()
    data = await asyncio.wait_for(reader.read(), 10)
    writer.close()
    await writer.wait_closed()
    return [int(line.split()[1]) for line in data.split(b"\r\n")
            if line.startswith(b"HTTP/1.1 ")]


def test_server_answers_request_with_body_once_and_closes(record, store_dir):
    store = OracleStore(store_dir)
    body = b"GET /nope HTTP/1.1\r\n\r\n"  # 22 bytes that parse as a request

    async def scenario(server):
        statuses = await _exchange(
            server,
            b"POST /healthz HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
        assert statuses == [405]
        chunked = await _exchange(
            server,
            b"GET /healthz HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
            b"\r\n0\r\n\r\n")
        assert chunked == [200]
        # the body was never parsed as a request of its own
        assert "other" not in server.metrics.requests

    _serve(store, scenario)
    store.close()


def test_server_rejects_overlong_request_line(record, store_dir):
    store = OracleStore(store_dir)

    async def scenario(server):
        errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context))
        statuses = await _exchange(
            server, b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n")
        assert statuses == [431]
        assert errors == []

    _serve(store, scenario)
    store.close()


def test_server_caps_header_count(record, store_dir):
    from repro.serving.server import MAX_HEADERS

    store = OracleStore(store_dir)

    def request(headers: int) -> bytes:
        lines = b"".join(b"X-H%d: v\r\n" % i for i in range(headers))
        return (b"GET /healthz HTTP/1.1\r\n" + lines
                + b"Connection: close\r\n\r\n")

    async def scenario(server):
        assert await _exchange(server, request(MAX_HEADERS - 1)) == [200]
        assert await _exchange(server, request(MAX_HEADERS + 50)) == [431]

    _serve(store, scenario)
    store.close()


def test_server_concurrent_requests_are_correct(record, store_dir):
    store = OracleStore(store_dir)
    oracle = store.get(record["hash"])
    n = oracle.n

    async def client(server, client_id: int):
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       server.port)
        try:
            for i in range(25):
                s, t = (client_id + 3 * i) % n, (7 * i + client_id) % n
                status, body = await _get(
                    reader, writer,
                    f"/distance?scenario={record['hash']}"
                    f"&source={s}&target={t}")
                assert status == 200
                want = oracle.distance(s, t)
                got = (float("inf") if body["distance"] is None
                       else body["distance"])
                assert got == want, f"client {client_id} pair ({s},{t})"
        finally:
            writer.close()
            await writer.wait_closed()

    async def scenario(server):
        await asyncio.gather(*[client(server, c) for c in range(6)])
        return server.metrics.snapshot(store.stats())

    stats = _serve(store, scenario)
    assert stats["total_requests"] == 150
    assert stats["errors"] == {}
    store.close()


def test_metrics_snapshot_percentiles():
    from repro.serving import ServingMetrics

    metrics = ServingMetrics(window=100)
    for i in range(100):
        metrics.observe("/distance", (i + 1) / 1000, 200)
    metrics.observe("/distance", 0.5, 404)
    snap = metrics.snapshot()
    assert snap["requests"] == {"/distance": 101}
    assert snap["errors"] == {"/distance": 1}
    # window keeps the last 100 latencies: 2ms..101ms plus the 500ms error
    assert snap["latency_ms"]["p50"] == pytest.approx(52.0, abs=1.5)
    assert snap["latency_ms"]["p99"] == pytest.approx(101.0, abs=401)
    assert snap["qps"] > 0
    assert time.monotonic() >= metrics.started
