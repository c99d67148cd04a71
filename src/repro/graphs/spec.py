"""Weighted graph data structure for the CONGEST algorithms.

Node ids are ``0 .. n-1`` (the paper allows ids in ``1 .. poly(n)``; a dense
relabeling loses nothing).  Edge weights are arbitrary non-negative reals;
zero weights are allowed (all algorithms in the paper handle them).

Tie-breaking keys
-----------------
The CSSSP construction of [1] (Appendix A.2) needs shortest paths to be
*unique* so that the collection of trees is consistent (the u->v path is the
same in every tree that contains it).  We realize uniqueness with a
deterministic lexicographic cost per edge::

    cost(e) = (w(e), 1, tb(e))

summed component-wise along a path and compared lexicographically, where
``tb(e)`` is a 48-bit deterministic pseudo-random key derived from the edge
endpoints and the graph seed.  The primary component keeps true weights
exact; the ``1`` (hop count) prefers fewer hops among equal-weight paths —
needed so that a vertex whose true distance is achievable within ``h`` hops
lands within depth ``h`` of the truncated CSSSP tree; the third component
makes the minimum generically unique.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

#: lexicographic path cost: (total weight, hop count, tie-break sum)
Cost = Tuple[float, int, int]

#: the identity for lexicographic path costs
ZERO_COST: Cost = (0.0, 0, 0)

#: "unreachable" sentinel, larger than every finite cost
INF_COST: Cost = (math.inf, 0, 0)

_MASK48 = (1 << 48) - 1

#: weight quantum: weights snap to multiples of 2^-16 (see Graph docstring)
WEIGHT_QUANTUM = 1.0 / (1 << 16)


def quantize_weight(w: float) -> float:
    """Snap ``w`` to the dyadic grid ``k / 2^16``.

    With weights on this grid, every path sum the algorithms form (up to
    millions of terms at the magnitudes used here) is *exactly*
    representable in double precision, so addition is associative: two
    computations of the same distance through different groupings agree
    bit for bit.  That exactness is what lets equal-weight ties be decided
    by the true hop counts and tie-break fingerprints everywhere
    (Bellman-Ford relaxation, the Step-5 closure, Step-7 routing) instead
    of by floating-point noise.
    """
    return round(w * (1 << 16)) * WEIGHT_QUANTUM


def _mix(a: int, b: int, seed: int) -> int:
    """SplitMix64-style deterministic hash of an edge, truncated to 48 bits."""
    z = (
        a * 0x9E3779B97F4A7C15 + b * 0xBF58476D1CE4E5B9 + seed * 0x94D049BB133111EB
    ) & ((1 << 64) - 1)
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & ((1 << 64) - 1)
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & ((1 << 64) - 1)
    z ^= z >> 31
    return z & _MASK48


def add_cost(c: Cost, w: float, tb: int) -> Cost:
    """Extend path cost ``c`` by one edge of weight ``w`` and key ``tb``."""
    return (c[0] + w, c[1] + 1, c[2] + tb)


class Graph:
    """A simple weighted graph (directed or undirected), no self loops.

    Parameters
    ----------
    n:
        Number of nodes.
    edges:
        Iterable of ``(u, v, w)`` with ``w >= 0``.  For undirected graphs
        each pair should appear once; both orientations are materialized.
        Weights are quantized to the dyadic grid ``2^{-16}`` (about 5
        decimal digits) so that distributed and centralized distance sums
        agree exactly regardless of summation order — see
        :func:`quantize_weight`.
    directed:
        Whether the shortest-path instance is directed.  Communication is
        always over the underlying undirected graph (Section 1.1).
    seed:
        Seed for the deterministic tie-breaking keys.
    name:
        Optional label used by benchmark reports.
    """

    __slots__ = (
        "n", "directed", "name", "seed", "_edges", "_out", "_in", "_und", "_tb"
    )

    def __init__(
        self,
        n: int,
        edges: Iterable[Tuple[int, int, float]],
        directed: bool = False,
        seed: int = 0,
        name: str = "",
    ) -> None:
        self.n = n
        self.directed = directed
        self.seed = seed
        self.name = name
        edge_list: List[Tuple[int, int, float]] = []
        seen: set = set()
        out: List[List[Tuple[int, float, int]]] = [[] for _ in range(n)]
        inn: List[List[Tuple[int, float, int]]] = [[] for _ in range(n)]
        und: List[set] = [set() for _ in range(n)]
        tb_map: Dict[Tuple[int, int], int] = {}
        for u, v, w in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self loop at {u}")
            if w < 0:
                raise ValueError(f"negative weight {w} on ({u},{v})")
            key = (u, v) if directed else (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            w = quantize_weight(float(w))
            edge_list.append((u, v, w))
            tb = _mix(key[0] + 1, key[1] + 1, seed) | 1
            tb_map[(u, v)] = tb
            out[u].append((v, w, tb))
            inn[v].append((u, w, tb))
            und[u].add(v)
            und[v].add(u)
            if not directed:
                tb_map[(v, u)] = tb
                out[v].append((u, w, tb))
                inn[u].append((v, w, tb))
        self._edges = edge_list
        self._out = [sorted(a) for a in out]
        self._in = [sorted(a) for a in inn]
        self._und = [tuple(sorted(s)) for s in und]
        self._tb = tb_map

    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of stored edges (each undirected edge counted once)."""
        return len(self._edges)

    @property
    def edges(self) -> Sequence[Tuple[int, int, float]]:
        return tuple(self._edges)

    def out_edges(self, v: int) -> Sequence[Tuple[int, float, int]]:
        """Relaxable outgoing edges ``(head, weight, tiebreak)`` of ``v``."""
        return self._out[v]

    def in_edges(self, v: int) -> Sequence[Tuple[int, float, int]]:
        """Relaxable incoming edges ``(tail, weight, tiebreak)`` of ``v``."""
        return self._in[v]

    def und_neighbors(self, v: int) -> Sequence[int]:
        """Communication neighbors (underlying undirected graph)."""
        return self._und[v]

    def tiebreak(self, u: int, v: int) -> int:
        """Tie-break key of directed edge ``(u, v)``."""
        return self._tb[(u, v)]

    # ------------------------------------------------------------------
    def reverse(self) -> "Graph":
        """The graph with every edge reversed, *preserving* tie-break keys.

        Key stability matters: an in-SSSP computed on ``g`` and an out-SSSP
        computed on ``g.reverse()`` must tie-break identically, or the two
        views of the same tree would disagree.
        """
        if not self.directed:
            return self
        g = Graph(
            self.n,
            [(v, u, w) for (u, v, w) in self._edges],
            directed=True,
            seed=self.seed,
            name=self.name + "~rev",
        )
        # Transplant the original keys onto the flipped orientation.
        g._tb = {(v, u): tb for (u, v), tb in self._tb.items()}
        g._out = [
            sorted((u, w, g._tb[(v, u)]) for (u, w, _old) in g._out[v])
            for v in range(self.n)
        ]
        g._in = [
            sorted((u, w, g._tb[(u, v)]) for (u, w, _old) in g._in[v])
            for v in range(self.n)
        ]
        return g

    def is_connected(self) -> bool:
        """Connectivity of the underlying undirected graph.

        CONGEST algorithms for APSP assume a connected communication
        network; generators in this package guarantee it.
        """
        if self.n == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in self._und[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == self.n

    def und_diameter(self) -> int:
        """Hop diameter of the underlying undirected graph (BFS per node)."""
        from collections import deque

        best = 0
        for s in range(self.n):
            dist = {s: 0}
            dq = deque([s])
            while dq:
                v = dq.popleft()
                for u in self._und[v]:
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        dq.append(u)
            best = max(best, max(dist.values(), default=0))
        return best

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "digraph" if self.directed else "graph"
        tag = f" {self.name!r}" if self.name else ""
        return f"Graph({kind}, n={self.n}, m={self.m}{tag})"


__all__ = [
    "Cost",
    "Graph",
    "INF_COST",
    "WEIGHT_QUANTUM",
    "ZERO_COST",
    "add_cost",
    "quantize_weight",
]
