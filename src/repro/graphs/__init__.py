"""Graphs: data structure, generators, and centralized references.

* :class:`~repro.graphs.spec.Graph` — weighted directed/undirected graph
  with the per-edge deterministic tie-breaking keys used to make shortest
  paths unique (required for consistent CSSSP collections, Section A.2).
* :mod:`~repro.graphs.generators` — workload generators used by the tests
  and the benchmark harness.
* :mod:`~repro.graphs.reference` — centralized shortest-path references
  (Dijkstra / hop-limited Bellman-Ford / Floyd-Warshall), the test
  oracles for the primitives and for ``APSPResult.verify``'s certificate.
"""

from repro.graphs.spec import Graph
from repro.graphs.generators import (
    barabasi_albert,
    broom,
    caterpillar,
    complete_graph,
    erdos_renyi,
    grid2d,
    layered_digraph,
    path_graph,
    random_geometric,
    random_tree,
    ring_graph,
    star_of_paths,
    watts_strogatz,
)
from repro.graphs.reference import (
    all_pairs_shortest_paths,
    h_hop_distances,
    min_plus_closure,
    single_source_shortest_paths,
)

__all__ = [
    "Graph",
    "all_pairs_shortest_paths",
    "barabasi_albert",
    "broom",
    "caterpillar",
    "complete_graph",
    "erdos_renyi",
    "grid2d",
    "h_hop_distances",
    "layered_digraph",
    "min_plus_closure",
    "path_graph",
    "random_geometric",
    "random_tree",
    "ring_graph",
    "single_source_shortest_paths",
    "star_of_paths",
    "watts_strogatz",
]
