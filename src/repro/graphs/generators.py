"""Workload generators for tests and the benchmark harness.

The paper evaluates nothing empirically, so the choice of inputs is ours.
We provide the standard families used by distributed-shortest-path
implementations (random graphs, grids, rings, trees, preferential
attachment) plus adversarial shapes that stress specific components:

* :func:`star_of_paths` — many long disjoint paths meeting at a hub;
  maximizes congestion at the hub, stressing the bottleneck-node machinery
  of Algorithm 13.
* :func:`broom` — a long handle feeding a wide brush; stresses the
  round-robin pipeline of Algorithm 9 (one node must forward messages for
  many sinks).
* :func:`layered_digraph` — directed layered graphs where many pairs are
  far apart in hops, exercising the ``hops > n^{2/3}`` case (Algorithm 8).

All generators take a ``seed`` and are fully deterministic; all guarantee a
connected underlying undirected graph (a CONGEST prerequisite).
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from repro.graphs.spec import Graph

WeightRange = Tuple[float, float]

#: Shape parameter of the heavy-tailed ``dist="pareto"`` weight draw:
#: alpha < 2 gives infinite variance, so a few enormous edges dominate
#: every instance — the adversarial regime for weighted-distance
#: pipelines tuned on uniform weights.
PARETO_ALPHA = 1.2

#: Weight distributions every generator accepts via ``dist=``.
DISTRIBUTIONS = ("uniform", "pareto")


def _weights(
    rng: random.Random,
    wrange: WeightRange,
    integer: bool,
    zero_frac: float,
    dist: str = "uniform",
):
    lo, hi = wrange
    if not 0.0 <= zero_frac <= 1.0:
        raise ValueError("zero_frac must be in [0, 1]")
    if dist not in DISTRIBUTIONS:
        raise ValueError(
            f"unknown weight distribution {dist!r}; one of {DISTRIBUTIONS}"
        )

    def draw() -> float:
        if zero_frac and rng.random() < zero_frac:
            return 0.0
        if dist == "pareto":
            w = rng.paretovariate(PARETO_ALPHA)
            return float(round(w)) if integer else w
        if integer:
            return float(rng.randint(int(lo), int(hi)))
        return rng.uniform(lo, hi)

    return draw


def erdos_renyi(
    n: int,
    p: float = 0.2,
    seed: int = 0,
    directed: bool = False,
    wrange: WeightRange = (0.0, 100.0),
    integer: bool = False,
    zero_frac: float = 0.0,
    dist: str = "uniform",
) -> Graph:
    """G(n, p) with a random Hamiltonian backbone for connectivity.

    The backbone (a random permutation cycle) guarantees the underlying
    undirected graph is connected; the remaining pairs appear independently
    with probability ``p``.
    """
    rng = random.Random(seed)
    draw = _weights(rng, wrange, integer, zero_frac, dist)
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = set()
    for i in range(n):
        u, v = perm[i], perm[(i + 1) % n]
        if n > 1:
            pairs.add((u, v) if directed else (min(u, v), max(u, v)))
    for u in range(n):
        for v in range(n) if directed else range(u + 1, n):
            if u == v:
                continue
            if rng.random() < p:
                pairs.add((u, v) if directed else (min(u, v), max(u, v)))
    edges = [(u, v, draw()) for (u, v) in sorted(pairs)]
    return Graph(n, edges, directed=directed, seed=seed, name=f"er(n={n},p={p})")


def path_graph(
    n: int,
    seed: int = 0,
    wrange: WeightRange = (1.0, 10.0),
    integer: bool = False,
    dist: str = "uniform",
) -> Graph:
    """The n-node path 0-1-...-(n-1): diameter Θ(n), worst case for hops."""
    rng = random.Random(seed)
    draw = _weights(rng, wrange, integer, 0.0, dist)
    edges = [(i, i + 1, draw()) for i in range(n - 1)]
    return Graph(n, edges, seed=seed, name=f"path(n={n})")


def ring_graph(
    n: int,
    seed: int = 0,
    wrange: WeightRange = (1.0, 10.0),
    integer: bool = False,
    dist: str = "uniform",
) -> Graph:
    """The n-cycle."""
    rng = random.Random(seed)
    draw = _weights(rng, wrange, integer, 0.0, dist)
    edges = [(i, (i + 1) % n, draw()) for i in range(n)]
    if n == 2:
        edges = edges[:1]
    return Graph(n, edges, seed=seed, name=f"ring(n={n})")


def complete_graph(
    n: int,
    seed: int = 0,
    wrange: WeightRange = (0.0, 100.0),
    integer: bool = False,
    dist: str = "uniform",
) -> Graph:
    """K_n — diameter 1, maximal bandwidth."""
    rng = random.Random(seed)
    draw = _weights(rng, wrange, integer, 0.0, dist)
    edges = [(u, v, draw()) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, edges, seed=seed, name=f"complete(n={n})")


def grid2d(
    rows: int,
    cols: int,
    seed: int = 0,
    wrange: WeightRange = (1.0, 10.0),
    integer: bool = False,
    dist: str = "uniform",
) -> Graph:
    """rows x cols grid: moderate diameter, planar congestion patterns."""
    rng = random.Random(seed)
    draw = _weights(rng, wrange, integer, 0.0, dist)
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1, draw()))
            if r + 1 < rows:
                edges.append((v, v + cols, draw()))
    return Graph(rows * cols, edges, seed=seed, name=f"grid({rows}x{cols})")


def random_tree(
    n: int,
    seed: int = 0,
    wrange: WeightRange = (1.0, 10.0),
    integer: bool = False,
    dist: str = "uniform",
) -> Graph:
    """Uniform random recursive tree — sparse, unique paths."""
    rng = random.Random(seed)
    draw = _weights(rng, wrange, integer, 0.0, dist)
    edges = [(rng.randrange(v), v, draw()) for v in range(1, n)]
    return Graph(n, edges, seed=seed, name=f"tree(n={n})")


def barabasi_albert(
    n: int,
    m_attach: int = 2,
    seed: int = 0,
    wrange: WeightRange = (1.0, 10.0),
    integer: bool = False,
    dist: str = "uniform",
) -> Graph:
    """Preferential-attachment graph: heavy hubs, small diameter."""
    rng = random.Random(seed)
    draw = _weights(rng, wrange, integer, 0.0, dist)
    if n < 2:
        return Graph(n, [], seed=seed, name=f"ba(n={n})")
    pairs = set()
    repeated: list = [0]
    for v in range(1, n):
        k = min(m_attach, len(set(repeated)))
        chosen = set()
        while len(chosen) < k:
            chosen.add(rng.choice(repeated))
        for u in chosen:
            pairs.add((min(u, v), max(u, v)))
            repeated.append(u)
        repeated.extend([v] * k)
    edges = [(u, v, draw()) for (u, v) in sorted(pairs)]
    return Graph(n, edges, seed=seed, name=f"ba(n={n},m={m_attach})")


def layered_digraph(
    layers: int,
    width: int,
    seed: int = 0,
    p: float = 0.6,
    wrange: WeightRange = (1.0, 10.0),
    integer: bool = False,
    dist: str = "uniform",
) -> Graph:
    """Directed layered graph: many pairs at hop distance Θ(layers).

    Node ``l * width + i`` sits in layer ``l``; edges go from layer ``l``
    to ``l + 1`` with probability ``p`` (plus a deterministic backbone so
    every node has an outgoing edge and the underlying graph is connected).
    This makes ``hops(x, c) > n^{2/3}`` common, exercising Algorithm 8.
    """
    rng = random.Random(seed)
    draw = _weights(rng, wrange, integer, 0.0, dist)
    n = layers * width
    pairs = set()
    for l in range(layers - 1):
        for i in range(width):
            u = l * width + i
            pairs.add((u, (l + 1) * width + i))  # backbone
            for j in range(width):
                if rng.random() < p:
                    pairs.add((u, (l + 1) * width + j))
    edges = [(u, v, draw()) for (u, v) in sorted(pairs)]
    return Graph(
        n, edges, directed=True, seed=seed, name=f"layered({layers}x{width})"
    )


def star_of_paths(
    arms: int,
    arm_len: int,
    seed: int = 0,
    wrange: WeightRange = (1.0, 10.0),
    integer: bool = False,
    dist: str = "uniform",
) -> Graph:
    """``arms`` disjoint paths of length ``arm_len`` joined at a hub (node 0).

    Every cross-arm shortest path passes through the hub, so the hub's
    count (Algorithm 14) is Θ(n) in every sink tree — the canonical
    bottleneck-node instance.
    """
    rng = random.Random(seed)
    draw = _weights(rng, wrange, integer, 0.0, dist)
    edges = []
    nxt = 1
    for _ in range(arms):
        prev = 0
        for _ in range(arm_len):
            edges.append((prev, nxt, draw()))
            prev = nxt
            nxt += 1
    return Graph(nxt, edges, seed=seed, name=f"star({arms}x{arm_len})")


def random_geometric(
    n: int,
    radius: Optional[float] = None,
    seed: int = 0,
    wrange: WeightRange = (0.0, 0.0),
    integer: bool = False,
    dist: str = "uniform",
) -> Graph:
    """Unit-square random geometric graph (the classic sensor-net model).

    Nodes are uniform points; an edge joins pairs within ``radius``
    (default ``1.6 * sqrt(ln n / n)``, just above the connectivity
    threshold).  With the default ``wrange`` the *Euclidean distance* is
    the edge weight, so shortest paths are geometrically meaningful; any
    other range draws weights like the other generators.  A nearest-
    neighbor chain over the x-sorted points guarantees connectivity.
    """
    import math as _math

    rng = random.Random(seed)
    if radius is None:
        radius = 1.6 * _math.sqrt(_math.log(max(n, 2)) / max(n, 2))
    pts = [(rng.random(), rng.random()) for _ in range(n)]
    draw = _weights(rng, wrange, integer, 0.0, dist)
    euclid = wrange == (0.0, 0.0) and dist == "uniform"

    def dist(i: int, j: int) -> float:
        return _math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])

    pairs = set()
    for i in range(n):
        for j in range(i + 1, n):
            if dist(i, j) <= radius:
                pairs.add((i, j))
    order = sorted(range(n), key=lambda i: pts[i])
    for a, b in zip(order, order[1:]):  # connectivity backbone
        pairs.add((min(a, b), max(a, b)))
    edges = [
        (u, v, dist(u, v) if euclid else draw()) for (u, v) in sorted(pairs)
    ]
    return Graph(n, edges, seed=seed, name=f"rgg(n={n},r={radius:.2f})")


def watts_strogatz(
    n: int,
    k: int = 4,
    beta: float = 0.2,
    seed: int = 0,
    wrange: WeightRange = (1.0, 10.0),
    integer: bool = False,
    dist: str = "uniform",
) -> Graph:
    """Small-world graph: ring lattice with ``k`` neighbors, rewired.

    Each edge of the ``k``-nearest-neighbor ring is rewired with
    probability ``beta`` to a random endpoint (keeping the lattice side,
    so the graph stays connected).  Low diameter plus local clustering —
    the regime where the `h`-hop machinery saturates quickly.
    """
    rng = random.Random(seed)
    draw = _weights(rng, wrange, integer, 0.0, dist)
    half = max(1, k // 2)
    pairs = set()
    for u in range(n):
        for off in range(1, half + 1):
            v = (u + off) % n
            if u == v:
                continue
            if rng.random() < beta:
                w = rng.randrange(n)
                tries = 0
                while (w == u or (min(u, w), max(u, w)) in pairs) and tries < n:
                    w = rng.randrange(n)
                    tries += 1
                if w != u and (min(u, w), max(u, w)) not in pairs:
                    pairs.add((min(u, w), max(u, w)))
                    continue
            pairs.add((min(u, v), max(u, v)))
    for u in range(n):  # ring backbone survives rewiring
        v = (u + 1) % n
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    edges = [(u, v, draw()) for (u, v) in sorted(pairs)]
    return Graph(n, edges, seed=seed, name=f"ws(n={n},k={k},b={beta})")


def caterpillar(
    spine_len: int,
    legs_per_node: int = 2,
    seed: int = 0,
    wrange: WeightRange = (1.0, 10.0),
    integer: bool = False,
    dist: str = "uniform",
) -> Graph:
    """A spine path with pendant leaves — maximal leaf-to-spine traffic.

    Every root-to-leaf path in a spine node's tree ends one hop off the
    spine, so blocker sets concentrate on the spine; a cheap adversarial
    shape for the score machinery.
    """
    rng = random.Random(seed)
    draw = _weights(rng, wrange, integer, 0.0, dist)
    edges = [(i, i + 1, draw()) for i in range(spine_len - 1)]
    nxt = spine_len
    for s in range(spine_len):
        for _ in range(legs_per_node):
            edges.append((s, nxt, draw()))
            nxt += 1
    return Graph(
        nxt, edges, seed=seed, name=f"caterpillar({spine_len}x{legs_per_node})"
    )


def broom(
    handle_len: int,
    brush: int,
    seed: int = 0,
    wrange: WeightRange = (1.0, 10.0),
    integer: bool = False,
    dist: str = "uniform",
) -> Graph:
    """A path of ``handle_len`` nodes whose far end fans out to ``brush`` leaves.

    All brush leaves' messages to sinks near node 0 must serialize through
    the handle — the shape that makes the round-robin pipeline's progress
    argument (Lemma 4.6) non-trivial.
    """
    rng = random.Random(seed)
    draw = _weights(rng, wrange, integer, 0.0, dist)
    edges = [(i, i + 1, draw()) for i in range(handle_len - 1)]
    hub = handle_len - 1
    for b in range(brush):
        edges.append((hub, handle_len + b, draw()))
    return Graph(
        handle_len + brush, edges, seed=seed, name=f"broom({handle_len}+{brush})"
    )


__all__ = [
    "DISTRIBUTIONS",
    "PARETO_ALPHA",
    "barabasi_albert",
    "broom",
    "caterpillar",
    "complete_graph",
    "erdos_renyi",
    "grid2d",
    "layered_digraph",
    "path_graph",
    "random_geometric",
    "random_tree",
    "ring_graph",
    "star_of_paths",
    "watts_strogatz",
]
