"""Centralized shortest-path references (ground truth).

Every distributed algorithm in this repository is checked against these
sequential implementations.  Following the hpc guideline of vectorizing the
numeric hot spots, the dense all-pairs routines use numpy (min-plus /
Floyd-Warshall over matrices); the per-source routines use a binary heap.

These functions compute three flavors the paper needs:

* true shortest-path distances ``δ(u, v)``;
* ``h``-hop-limited distances ``δ_h(u, v)`` (Definition in Section 2) — the
  minimum weight over paths with at most ``h`` edges;
* lexicographically tie-broken labels (:data:`repro.graphs.spec.Cost`),
  which the CSSSP machinery uses to make shortest paths unique.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.spec import Cost, Graph, INF_COST, ZERO_COST, add_cost


def single_source_shortest_paths(
    graph: Graph, source: int, reverse: bool = False
) -> Tuple[List[float], List[int]]:
    """Dijkstra from ``source`` (weights are non-negative).

    Returns ``(dist, parent)`` where ``dist[v]`` is ``δ(source, v)``
    (``math.inf`` if unreachable) and ``parent[v]`` the predecessor on the
    tie-broken shortest path (-1 for the source / unreachable nodes).

    With ``reverse=True`` computes distances *to* ``source`` (i.e. Dijkstra
    on the reversed graph) — the centralized mirror of an in-SSSP.
    """
    n = graph.n
    labels: List[Cost] = [INF_COST] * n
    parent = [-1] * n
    labels[source] = ZERO_COST
    heap: List[Tuple[Cost, int]] = [(ZERO_COST, source)]
    done = [False] * n
    edges_of = graph.in_edges if reverse else graph.out_edges
    while heap:
        cost, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        for u, w, tb in edges_of(v):
            cand = add_cost(cost, w, tb)
            if cand < labels[u]:
                labels[u] = cand
                parent[u] = v
                heapq.heappush(heap, (cand, u))
    dist = [lab[0] for lab in labels]
    return dist, parent


def all_pairs_shortest_paths(graph: Graph) -> np.ndarray:
    """Dense ``n x n`` matrix of true distances ``δ(u, v)`` via Dijkstra."""
    n = graph.n
    out = np.full((n, n), math.inf)
    for s in range(n):
        dist, _ = single_source_shortest_paths(graph, s)
        out[s, :] = dist
    return out


def adjacency_matrix(graph: Graph) -> np.ndarray:
    """Weight matrix with ``inf`` for non-edges and 0 on the diagonal."""
    n = graph.n
    mat = np.full((n, n), math.inf)
    np.fill_diagonal(mat, 0.0)
    for v in range(n):
        for u, w, _tb in graph.out_edges(v):
            if w < mat[v, u]:
                mat[v, u] = w
    return mat


def h_hop_distances(
    graph: Graph, h: int, sources: Optional[Sequence[int]] = None
) -> np.ndarray:
    """``δ_h`` matrix rows for ``sources`` (all nodes by default).

    ``out[i, v]`` is the minimum weight of a path from ``sources[i]`` to
    ``v`` using at most ``h`` edges (``inf`` if none).  Vectorized min-plus
    iteration: ``D_{k+1} = min(D_k, min-plus(D_k, W))``.
    """
    n = graph.n
    w = adjacency_matrix(graph)
    srcs = list(range(n)) if sources is None else list(sources)
    cur = np.full((len(srcs), n), math.inf)
    for i, s in enumerate(srcs):
        cur[i, s] = 0.0
    for _ in range(h):
        # min-plus product row-block x adjacency, vectorized over targets
        expanded = cur[:, :, None] + w[None, :, :]
        nxt = np.minimum(cur, expanded.min(axis=1))
        if np.array_equal(nxt, cur):
            break
        cur = nxt
    return cur


def h_hop_labels(
    graph: Graph, source: int, h: int, reverse: bool = False
) -> List[Cost]:
    """Tie-broken ``h``-hop labels from (or to, if ``reverse``) ``source``.

    The centralized mirror of the distributed ``h``-hop Bellman-Ford in
    :mod:`repro.primitives.bellman_ford`; used by tests to validate it
    round-for-round.
    """
    n = graph.n
    labels: List[Cost] = [INF_COST] * n
    labels[source] = ZERO_COST
    edges_of = graph.out_edges if not reverse else graph.in_edges
    for _ in range(h):
        updates: Dict[int, Cost] = {}
        for v in range(n):
            if labels[v] == INF_COST:
                continue
            for u, w, tb in edges_of(v):
                cand = add_cost(labels[v], w, tb)
                if cand < labels[u] and cand < updates.get(u, INF_COST):
                    updates[u] = cand
        changed = False
        for u, cand in updates.items():
            if cand < labels[u]:
                labels[u] = cand
                changed = True
        if not changed:
            break
    return labels


def min_plus_closure(mat: np.ndarray) -> np.ndarray:
    """Floyd-Warshall closure of a (possibly asymmetric) cost matrix.

    A weight-only reference for tests.  Step 5 itself closes the
    blocker matrix over full label triples in
    :func:`repro.apsp.closure.local_closure`.
    """
    out = mat.copy()
    n = out.shape[0]
    for k in range(n):
        np.minimum(out, out[:, k, None] + out[None, k, :], out=out)
    return out


__all__ = [
    "adjacency_matrix",
    "all_pairs_shortest_paths",
    "h_hop_distances",
    "h_hop_labels",
    "min_plus_closure",
    "single_source_shortest_paths",
]
