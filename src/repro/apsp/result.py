"""APSP outcome record shared by every end-to-end algorithm."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.congest.metrics import PhaseLog, RoundStats
from repro.graphs.spec import Graph


@dataclass
class APSPResult:
    """Distance matrix + the per-step round ledger of one APSP run.

    ``dist[x, t]`` is the computed ``delta(x, t)`` (``inf`` when ``t`` is
    unreachable from ``x``); ``pred[x, t]`` the predecessor of ``t`` on a
    shortest ``x -> t`` path (-1 at the source / unreachable pairs) — the
    "last edge" part of the APSP output (Section 1.1); ``log`` holds one
    entry per paper step so the per-step budget of Theorem 1.1's proof can
    be inspected (experiment F1); ``meta`` carries algorithm-specific
    facts (``h``, ``|Q|``, ``|Q'|``, ``|B|``, blocker/delivery choices).
    """

    algorithm: str
    dist: np.ndarray
    log: PhaseLog
    meta: Dict[str, object] = field(default_factory=dict)
    pred: Optional[np.ndarray] = None

    @property
    def stats(self) -> RoundStats:
        return self.log.total(self.algorithm)

    @property
    def rounds(self) -> int:
        return self.stats.rounds

    def step_rounds(self) -> Dict[str, int]:
        """Rounds aggregated per step label (Theorem 1.1's budget view)."""
        return self.log.rounds_by_label()

    def path(self, x: int, t: int) -> list:
        """Reconstruct one shortest ``x -> t`` path from the predecessors.

        Returns the node sequence ``[x, ..., t]``; raises if the pair is
        unreachable or the result carries no routing information.
        """
        if self.pred is None:
            raise ValueError(f"{self.algorithm} recorded no predecessors")
        if math.isinf(self.dist[x, t]):
            raise ValueError(f"{t} is unreachable from {x}")
        out = [t]
        while out[-1] != x:
            p = int(self.pred[x, out[-1]])
            if p < 0 or len(out) > self.dist.shape[0]:
                raise AssertionError(
                    f"broken predecessor chain {x} -> {t} at {out[-1]}"
                )
            out.append(p)
        out.reverse()
        return out

    def verify(self, graph: Graph, atol: float = 1e-9) -> float:
        """Certify ``|dist - delta| <= atol`` and every route; see :func:`certify`."""
        return certify(graph, self.dist, self.pred, atol)


class CertificateError(AssertionError):
    """An APSP answer failed a certificate check (named in the message)."""


def _fail(cond: str, bad: np.ndarray, heads=None) -> None:
    """Raise ``cond`` at the first true ``bad[x, j]`` (target ``heads[j]``)."""
    if bad.any():
        x, j = np.unravel_index(int(bad.argmax()), bad.shape)
        t = j if heads is None else heads[j]
        raise CertificateError(f"{cond} fails at (x, t) = ({x}, {t})")


def certify(graph: Graph, dist: np.ndarray, pred: Optional[np.ndarray],
            atol: float = 1e-9) -> float:
    """Check an APSP answer by its own certificate; return the max residual.

    With ``eps = atol / n``: n x n shapes, no NaN or ``-inf``, a zero
    diagonal; ``pred >= 0`` exactly on finite off-diagonal pairs (-1
    elsewhere); ``dist[x, v] <= dist[x, u] + w(u, v) + eps`` on every arc;
    each ``(pred[x, t], t)`` an arc, tight within ``eps``; every ``pred``
    chain ends at ``x`` (pointer doubling; only this catches a zero-weight
    cycle).  For non-negative weights these imply ``|dist - delta| <=
    atol`` and that every chain is a shortest path (McConnell et al.,
    *Certifying algorithms*, 2011).  Nothing is recomputed.
    """
    n = graph.n
    if pred is None or dist.shape != (n, n) or pred.shape != (n, n):
        raise CertificateError(f"shape: dist and pred must be {n} x {n}")
    _fail("NaN/-inf value", np.isnan(dist) | np.isneginf(dist))
    _fail("zero diagonal", np.diag(np.diag(dist) != 0))
    eps = atol / max(n, 1)
    want = np.isfinite(dist)
    np.fill_diagonal(want, False)
    _fail("pred pattern", np.where(want, (pred < 0) | (pred >= n), pred != -1))

    arcs = np.array(graph.edges, dtype=float).reshape(-1, 3)
    if not graph.directed:
        arcs = np.concatenate([arcs, arcs[:, [1, 0, 2]]])
    tail, head = arcs[:, 0].astype(np.intp), arcs[:, 1].astype(np.intp)
    # Arc-major over dist.T (row gathers), each temporary <= 16 MiB.
    dist_t = np.ascontiguousarray(dist.T)
    step = max(1, (16 << 20) // (8 * max(n, 1)))
    for a in (slice(a0, a0 + step) for a0 in range(0, len(arcs), step)):
        reach = dist_t[tail[a]]
        reach += arcs[a, 2:] + eps
        _fail("edge feasibility", (dist_t[head[a]] > reach).T, head[a])

    weight = np.full((n, n), np.inf)
    weight[tail, head] = arcs[:, 2]
    cols = np.arange(n)[None, :]
    up = np.where(want, pred, cols)
    w_last = weight[up, cols]
    _fail("pred arc", want & np.isinf(w_last))
    with np.errstate(invalid="ignore"):  # inf - inf off the mask only
        resid = np.abs(np.take_along_axis(dist, up, axis=1) + w_last - dist)
    resid[~want] = 0.0
    _fail("pred tightness", resid > eps)
    for _ in range(math.ceil(math.log2(max(n, 2))) + 1):
        up = np.take_along_axis(up, up, axis=1)
    _fail("forest", want & (up != cols.T))
    return float(resid.max(initial=0.0))


__all__ = ["APSPResult", "CertificateError", "certify"]
