"""The distance-oracle serving layer: sweep records become a query service.

The APSP pipeline's offline product is a cached sweep record per
scenario; this package turns those records into an online service in
three layers:

* :mod:`repro.serving.artifact` — the versioned memory-mapped binary
  artifact (distance + predecessor planes, checksummed against the
  record's ``dist_sha256``) and its offline builder
  (``python -m repro build-oracle``).
* :mod:`repro.serving.store` — a catalog of artifacts with a bounded
  LRU hot set of loaded (mmap'd, checksum-verified) oracles.
* :mod:`repro.serving.server` — the stdlib-``asyncio`` HTTP server
  (``python -m repro serve``) answering distance and path queries with
  per-request latency/hit-rate metrics at ``GET /stats``.

The benchmark's ``oracle-serve`` workload (``perfbench/``) measures
p50/p99 latency and QPS under concurrent keep-alive load, checking every
reply against the oracle's plane; ``repro perf`` gates the pinned
serving scenario alongside the engine trajectories.
"""

from repro.serving.artifact import (
    ARTIFACT_VERSION,
    ArtifactError,
    ArtifactInfo,
    DistanceOracle,
    build_artifact,
    build_store,
    load_artifact,
)
from repro.serving.server import OracleServer, ServingMetrics, run_server
from repro.serving.store import DEFAULT_HOT_SET, OracleStore, UnknownScenario

__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactError",
    "ArtifactInfo",
    "DEFAULT_HOT_SET",
    "DistanceOracle",
    "OracleServer",
    "OracleStore",
    "ServingMetrics",
    "UnknownScenario",
    "build_artifact",
    "build_store",
    "load_artifact",
    "run_server",
]
