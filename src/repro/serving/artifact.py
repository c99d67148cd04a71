"""Versioned memory-mapped distance-oracle artifacts.

One artifact per scenario, built offline from a cached sweep record and
served online without ever deserializing the matrices: the file carries a
small JSON header followed by two 64-byte-aligned binary planes — the
``n x n`` float64 distance matrix and the ``n x n`` int64 predecessor
matrix — that :func:`load_artifact` exposes as read-only ``np.memmap``
views.

The build is *provably bit-identical to the simulation*: the builder
re-executes the record's :class:`~repro.experiments.spec.ScenarioSpec`,
hashes the materialized distance matrix with the exact canonicalization
:mod:`repro.experiments.runner` uses, and refuses to write unless it
matches the record's ``dist_sha256``.  Both plane hashes land in the
header, and :func:`load_artifact` re-hashes the mapped bytes against
them, so a served distance can always be traced byte-for-byte back to
the sweep record that produced it.

Layout (all integers little-endian)::

    offset 0   MAGIC (8 bytes)
    offset 8   uint32: header length H
    offset 12  header JSON (utf-8, sorted keys, compact)
    ...        zero padding to the next 64-byte boundary
    dist plane n*n float64 ('<f8', C order)
    pred plane n*n int64   ('<i8', C order)

The header holds only deterministic facts (spec, hashes, sizes — never
timestamps or machine identity), so the artifact file is a pure function
of the record and its byte size is a gateable exact metric.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import tempfile
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple

import numpy as np

#: file magic: "RPRO" + "ORCL"; loaders reject anything else byte-for-byte
MAGIC = b"RPROORCL"

#: bump when the on-disk layout changes; loaders reject other versions
ARTIFACT_VERSION = 1

#: data planes start on multiples of this (mmap-friendly alignment)
ALIGN = 64

#: filename suffix for artifacts inside a store directory
ARTIFACT_SUFFIX = ".oracle"


class ArtifactError(ValueError):
    """An oracle artifact is malformed, corrupt, or unbuildable."""


def artifact_path(store_dir, key: str) -> pathlib.Path:
    """Where scenario ``key``'s artifact lives inside ``store_dir``."""
    return pathlib.Path(store_dir) / f"{key}{ARTIFACT_SUFFIX}"


def _align(offset: int) -> int:
    return (offset + ALIGN - 1) // ALIGN * ALIGN


def _plane_offsets(header_len: int, n: int) -> Tuple[int, int, int]:
    """``(dist_offset, pred_offset, total_bytes)`` for an ``n``-node file.

    Derived, not stored: the header cannot contain its own offsets
    without a fixed-point, so loaders recompute them from the header
    length the same way the builder did.
    """
    dist_offset = _align(12 + header_len)
    pred_offset = _align(dist_offset + n * n * 8)
    return dist_offset, pred_offset, pred_offset + n * n * 8


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class ArtifactInfo:
    """What :func:`build_artifact` reports about one written artifact."""

    path: pathlib.Path
    hash: str
    label: str
    n: int
    nbytes: int
    dist_sha256: str


class DistanceOracle:
    """One loaded artifact: mmap'd planes plus point-query methods.

    Created by :func:`load_artifact`; the ``dist`` / ``pred`` attributes
    are read-only ``np.memmap`` views, so a loaded oracle costs pages
    only for the entries actually touched.  ``distance`` and ``path``
    answer the two query shapes the paper's APSP output supports
    (Section 1.1: distances plus last-edge routing).
    """

    def __init__(self, path: pathlib.Path, header: dict,
                 dist: np.memmap, pred: np.memmap) -> None:
        #: backing file (named ``file``: ``path`` is the query method)
        self.file = pathlib.Path(path)
        self.header = header
        self.dist = dist
        self.pred = pred

    @property
    def hash(self) -> str:
        """The scenario key the artifact was built from."""
        return self.header["hash"]

    @property
    def label(self) -> str:
        """Human-readable scenario label (from the spec)."""
        return self.header["label"]

    @property
    def n(self) -> int:
        """Number of nodes (both planes are ``n x n``)."""
        return self.header["n"]

    @property
    def spec(self) -> dict:
        """The originating scenario spec, in its canonical dict form."""
        return self.header["spec"]

    @property
    def nbytes(self) -> int:
        """Total artifact file size in bytes."""
        return self.header["nbytes"]

    def _check_pair(self, source: int, target: int) -> None:
        n = self.n
        for name, v in (("source", source), ("target", target)):
            if not isinstance(v, int) or not 0 <= v < n:
                raise ValueError(
                    f"{name} must be an integer in [0, {n}), got {v!r}")

    def distance(self, source: int, target: int) -> float:
        """``delta(source, target)`` (``inf`` when unreachable)."""
        self._check_pair(source, target)
        return float(self.dist[source, target])

    def path(self, source: int, target: int) -> List[int]:
        """The shortest ``source -> target`` node sequence.

        Reconstructed from the predecessor plane exactly like
        :meth:`repro.apsp.result.APSPResult.path`; raises
        :class:`ValueError` on an unreachable pair and
        :class:`ArtifactError` on a broken predecessor chain (which
        the load-time checksum makes unreachable in practice).
        """
        self._check_pair(source, target)
        if math.isinf(self.dist[source, target]):
            raise ValueError(f"{target} is unreachable from {source}")
        out = [target]
        while out[-1] != source:
            p = int(self.pred[source, out[-1]])
            if p < 0 or len(out) > self.n:
                raise ArtifactError(
                    f"{self.file}: broken predecessor chain "
                    f"{source} -> {target} at {out[-1]}"
                )
            out.append(p)
        out.reverse()
        return out

    def close(self) -> None:
        """Release the underlying memory maps."""
        # np.memmap owns an mmap object; dropping the arrays releases it.
        self.dist = None  # type: ignore[assignment]
        self.pred = None  # type: ignore[assignment]


def _materialize(spec) -> tuple:
    """Re-execute ``spec`` and return ``(graph, dist, pred)``."""
    from repro.congest.network import CongestNetwork
    from repro.experiments.registry import make_graph
    from repro.experiments.runner import _execute

    graph = make_graph(spec.family, spec.n, spec.seed, spec.weights)
    net = CongestNetwork(graph, strict=spec.strict, compress=spec.compress)
    result = _execute(spec, graph, net)
    if result.pred is None:
        raise ArtifactError(
            f"{spec.label}: {spec.algorithm} records no predecessors; "
            f"an oracle needs the routing plane"
        )
    dist = np.ascontiguousarray(result.dist, dtype="<f8")
    pred = np.ascontiguousarray(result.pred, dtype="<i8")
    return graph, dist, pred


def build_artifact(record: dict, store_dir,
                   force: bool = False) -> ArtifactInfo:
    """Build one scenario's oracle artifact from its cached sweep record.

    Re-runs the record's spec to materialize the distance and
    predecessor matrices, verifies the distance hash against the
    record's ``dist_sha256`` and certifies both planes (refusing to
    write on any failure), and atomically writes ``<hash>.oracle`` under
    ``store_dir``.  A record whose spec does not rebuild is rejected.
    An existing artifact is left untouched unless ``force`` is set.
    """
    from repro.apsp.result import CertificateError, certify
    from repro.experiments.runner import RECORD_VERSION
    from repro.experiments.spec import ScenarioSpec

    if record.get("version") != RECORD_VERSION:
        raise ArtifactError(
            f"record version {record.get('version')!r} != {RECORD_VERSION}; "
            f"re-run the sweep to refresh the record"
        )
    for field in ("hash", "spec", "dist_sha256"):
        if not record.get(field):
            raise ArtifactError(f"record is missing {field!r}")
    try:
        spec = ScenarioSpec.from_dict(record["spec"])
    except (TypeError, ValueError) as exc:
        raise ArtifactError(
            f"record {record['hash']} has an unreadable spec: {exc}"
        ) from exc
    if spec.key != record["hash"]:
        raise ArtifactError(
            f"record hash {record['hash']} does not match its spec "
            f"(key {spec.key}); the record file is corrupt"
        )
    store_dir = pathlib.Path(store_dir)
    path = artifact_path(store_dir, spec.key)
    if path.exists() and not force:
        oracle = load_artifact(path)
        info = ArtifactInfo(path, oracle.hash, oracle.label, oracle.n,
                            oracle.nbytes, oracle.header["dist_sha256"])
        oracle.close()
        return info

    graph, dist, pred = _materialize(spec)
    dist_sha = _sha256(dist.tobytes())
    if dist_sha != record["dist_sha256"]:
        raise ArtifactError(
            f"{spec.label}: rebuilt distance matrix hashes {dist_sha[:16]}…, "
            f"record says {record['dist_sha256'][:16]}…; refusing to build "
            f"an oracle that is not bit-identical to the sweep record"
        )
    try:
        certify(graph, dist, pred)
    except CertificateError as exc:
        raise ArtifactError(f"{spec.label}: refusing to build: {exc}") from exc
    n = dist.shape[0]
    header = {
        "artifact_version": ARTIFACT_VERSION,
        "hash": spec.key,
        "label": spec.label,
        "spec": record["spec"],
        "algorithm": record.get("algorithm", spec.algorithm),
        "n": n,
        "dist_dtype": "<f8",
        "pred_dtype": "<i8",
        "dist_sha256": dist_sha,
        "pred_sha256": _sha256(pred.tobytes()),
        "finite_pairs": record.get("finite_pairs"),
    }
    blob = _render_header(header, n)
    store_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=store_dir, prefix=f"{spec.key}.",
                                    suffix=f"{ARTIFACT_SUFFIX}.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
            fh.write(dist.tobytes())
            pad = _plane_offsets(len(blob) - 12, n)[1] - len(blob) - n * n * 8
            fh.write(b"\x00" * pad)
            fh.write(pred.tobytes())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return ArtifactInfo(path, spec.key, spec.label, n,
                        path.stat().st_size, dist_sha)


def _render_header(header: dict, n: int) -> bytes:
    """Magic + length + header JSON + padding, with ``nbytes`` filled in.

    ``nbytes`` depends on the header length, which depends on the
    rendered JSON; the fixed-width rendering below breaks the cycle by
    reserving a stable-width integer field before measuring.
    """
    # Render once with a placeholder of the same decimal width class,
    # then re-render with the real size; the second pass cannot change
    # the length because the total is a function of the header length
    # only through 64-byte alignment, and the digit count is preserved
    # by construction (sizes here are far from a digit boundary only in
    # pathological cases, which the loop below handles anyway).
    body = dict(header)
    nbytes = 0
    for _ in range(4):  # converges in <= 2 iterations
        body["nbytes"] = nbytes
        blob = json.dumps(body, sort_keys=True,
                          separators=(",", ":")).encode()
        total = _plane_offsets(len(blob), n)[2]
        if total == nbytes:
            break
        nbytes = total
    else:  # pragma: no cover - would need a pathological digit cascade
        raise ArtifactError("header size failed to converge")
    dist_offset = _plane_offsets(len(blob), n)[0]
    pad = dist_offset - 12 - len(blob)
    return MAGIC + len(blob).to_bytes(4, "little") + blob + b"\x00" * pad


def read_header(path) -> dict:
    """The artifact's JSON header (cheap: no plane bytes are read)."""
    path = pathlib.Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise ArtifactError(f"{path} is not an oracle artifact "
                                f"(bad magic {magic!r})")
        header_len = int.from_bytes(fh.read(4), "little")
        if header_len <= 0 or header_len > 1 << 20:
            raise ArtifactError(f"{path}: implausible header length "
                                f"{header_len}")
        try:
            header = json.loads(fh.read(header_len).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ArtifactError(f"{path}: corrupt header: {exc}") from exc
    if header.get("artifact_version") != ARTIFACT_VERSION:
        raise ArtifactError(
            f"{path}: artifact version {header.get('artifact_version')!r}, "
            f"this build reads {ARTIFACT_VERSION}; rebuild with "
            f"`repro build-oracle --force`"
        )
    for key in ("hash", "label", "spec", "n", "dist_sha256", "pred_sha256"):
        if key not in header:
            raise ArtifactError(f"{path}: header is missing {key!r}")
    header["_header_len"] = header_len
    return header


def load_artifact(path, verify: bool = True) -> DistanceOracle:
    """Map one artifact; with ``verify`` (default) re-hash both planes.

    Verification reads every plane byte once and compares against the
    header's build-time hashes — the load-time half of the
    "provably bit-identical to the sweep record" contract.  Disable it
    only for latency experiments on stores you just verified.
    """
    path = pathlib.Path(path)
    header = read_header(path)
    n = header["n"]
    header_len = header.pop("_header_len")
    dist_offset, pred_offset, total = _plane_offsets(header_len, n)
    size = path.stat().st_size
    if size != total:
        raise ArtifactError(
            f"{path}: file is {size} bytes, layout says {total} "
            f"(truncated or foreign file)"
        )
    if header.get("nbytes") != total:
        raise ArtifactError(
            f"{path}: header nbytes {header.get('nbytes')} != layout "
            f"total {total}"
        )
    dist = np.memmap(path, dtype=header["dist_dtype"], mode="r",
                     offset=dist_offset, shape=(n, n))
    pred = np.memmap(path, dtype=header["pred_dtype"], mode="r",
                     offset=pred_offset, shape=(n, n))
    if verify:
        for name, plane, want in (
            ("dist", dist, header["dist_sha256"]),
            ("pred", pred, header["pred_sha256"]),
        ):
            got = _sha256(plane.tobytes())
            if got != want:
                raise ArtifactError(
                    f"{path}: {name} plane hashes {got[:16]}…, header "
                    f"says {want[:16]}…; the artifact is corrupt"
                )
    return DistanceOracle(path, header, dist, pred)


def iter_cached_records(paths: Iterable) -> Iterator[Tuple[pathlib.Path, dict]]:
    """Yield ``(file, record)`` for sweep-record JSON under ``paths``.

    Each path may be a record file or a cache directory (its ``*.json``
    files are read in sorted order).  Files that are not valid JSON
    objects raise :class:`ArtifactError` naming the file; record-level
    validation happens in :func:`build_artifact`.
    """
    for p in paths:
        p = pathlib.Path(p)
        files = sorted(p.glob("*.json")) if p.is_dir() else [p]
        if not files:
            raise ArtifactError(f"no record JSON under {p}")
        for f in files:
            try:
                record = json.loads(f.read_text(encoding="utf-8"))
            except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ArtifactError(f"{f} is not a record file: {exc}") \
                    from exc
            if not isinstance(record, dict):
                raise ArtifactError(f"{f} is not a record object")
            yield f, record


def build_store(record_paths: Iterable, store_dir, force: bool = False,
                progress=None) -> Tuple[List[ArtifactInfo], List[str]]:
    """Build every buildable record under ``record_paths`` into a store.

    Returns ``(built, skipped)`` where ``skipped`` holds one explanatory
    line per record that cannot become an oracle (unreadable specs,
    foreign record versions).  ``progress(info)`` is called per artifact.
    """
    built: List[ArtifactInfo] = []
    skipped: List[str] = []
    for f, record in iter_cached_records(record_paths):
        try:
            info = build_artifact(record, store_dir, force=force)
        except ArtifactError as exc:
            skipped.append(f"{f.name}: {exc}")
            continue
        built.append(info)
        if progress is not None:
            progress(info)
    return built, skipped


__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactError",
    "ArtifactInfo",
    "DistanceOracle",
    "artifact_path",
    "build_artifact",
    "build_store",
    "iter_cached_records",
    "load_artifact",
    "read_header",
]
