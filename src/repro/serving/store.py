"""The oracle store: a catalog of artifacts with an LRU hot set.

A store is a directory of ``*.oracle`` files (one per scenario hash,
written by :func:`repro.serving.artifact.build_store`).  The catalog —
scenario hash, label, node count — is read from the cheap JSON headers
up front; the expensive part, mapping and checksum-verifying the binary
planes, happens lazily on first query and stays resident in a bounded
LRU hot set, so a store can hold arbitrarily many scenarios while only
the actively queried ones cost address space and verification time.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List

from repro.serving.artifact import (
    ARTIFACT_SUFFIX,
    ArtifactError,
    DistanceOracle,
    load_artifact,
    read_header,
)

#: default hot-set capacity (loaded oracles held concurrently)
DEFAULT_HOT_SET = 8


class UnknownScenario(KeyError):
    """A queried scenario hash has no artifact in the store."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return self.args[0] if self.args else ""


class OracleStore:
    """Serve :class:`DistanceOracle` instances from a store directory.

    ``capacity`` bounds the number of concurrently loaded oracles;
    :meth:`get` promotes on hit and evicts least-recently-used on
    overflow.  ``verify`` (default on) re-hashes every plane at load
    time against the build-time checksums.  Thread-safe: the asyncio
    server drives it from one loop, but benches and tests may not.
    """

    def __init__(self, root, capacity: int = DEFAULT_HOT_SET,
                 verify: bool = True) -> None:
        import pathlib

        self.root = pathlib.Path(root)
        self.capacity = max(1, int(capacity))
        self.verify = verify
        self._catalog: Dict[str, dict] = {}
        self._hot: "OrderedDict[str, DistanceOracle]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.scan()

    def scan(self) -> None:
        """(Re)read the catalog from the store directory's headers."""
        if not self.root.is_dir():
            raise ArtifactError(
                f"oracle store {self.root} is not a directory; build one "
                f"with `repro build-oracle`"
            )
        catalog: Dict[str, dict] = {}
        for path in sorted(self.root.glob(f"*{ARTIFACT_SUFFIX}")):
            header = read_header(path)
            catalog[header["hash"]] = {
                "hash": header["hash"],
                "label": header["label"],
                "n": header["n"],
                "nbytes": header["nbytes"],
                "algorithm": header.get("algorithm"),
                "path": path,
            }
        if not catalog:
            raise ArtifactError(
                f"oracle store {self.root} holds no {ARTIFACT_SUFFIX} "
                f"artifacts"
            )
        with self._lock:
            self._catalog = catalog

    def __len__(self) -> int:
        return len(self._catalog)

    def __contains__(self, key: str) -> bool:
        return key in self._catalog

    def keys(self) -> List[str]:
        """Scenario hashes in the catalog, sorted."""
        return sorted(self._catalog)

    def catalog(self) -> List[dict]:
        """One summary dict per scenario (hash, label, n, loaded flag)."""
        with self._lock:
            hot = set(self._hot)
        return [
            {"hash": e["hash"], "label": e["label"], "n": e["n"],
             "nbytes": e["nbytes"], "algorithm": e["algorithm"],
             "loaded": e["hash"] in hot}
            for _, e in sorted(self._catalog.items())
        ]

    def get(self, key: str) -> DistanceOracle:
        """The scenario's oracle, loading (and possibly evicting) LRU-wise."""
        with self._lock:
            oracle = self._hot.get(key)
            if oracle is not None:
                self._hot.move_to_end(key)
                self.hits += 1
                return oracle
            entry = self._catalog.get(key)
        if entry is None:
            raise UnknownScenario(
                f"unknown scenario {key!r}; the store holds "
                f"{len(self._catalog)} scenario(s) (GET /scenarios lists "
                f"them)"
            )
        # Load outside the lock: checksumming a big plane must not stall
        # concurrent hits.  A racing load of the same key keeps the
        # first-registered oracle and closes the duplicate.
        oracle = load_artifact(entry["path"], verify=self.verify)
        with self._lock:
            racing = self._hot.get(key)
            if racing is not None:
                self.hits += 1
                oracle.close()
                return racing
            self.misses += 1
            self._hot[key] = oracle
            self._hot.move_to_end(key)
            while len(self._hot) > self.capacity:
                _, evicted = self._hot.popitem(last=False)
                self.evictions += 1
                evicted.close()
        return oracle

    def stats(self) -> dict:
        """Hot-set counters for the ``/stats`` endpoint."""
        with self._lock:
            return {
                "scenarios": len(self._catalog),
                "loaded": len(self._hot),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def close(self) -> None:
        """Unload every resident oracle."""
        with self._lock:
            for oracle in self._hot.values():
                oracle.close()
            self._hot.clear()


__all__ = ["DEFAULT_HOT_SET", "OracleStore", "UnknownScenario"]
