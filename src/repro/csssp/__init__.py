"""Consistent ``h``-hop SSSP collections (CSSSP, [1] / Section A.2).

An ``h``-CSSSP for a source set ``S`` is a collection of height-``h`` rooted
trees, one per source, such that the path between any two nodes is the same
in every tree containing it, and the tree ``T_x`` contains every node whose
true shortest path from/to ``x`` needs at most ``h`` hops (Definition A.3).

* :mod:`~repro.csssp.collection` — the orchestrator-side record of the
  per-node local state (parent / depth / children per tree) plus the
  pruning flags mutated by the removal protocols, all in ``(T, n)`` planes.
* :mod:`~repro.csssp.builder` — the [1] construction: a ``2h``-hop
  Bellman-Ford per source truncated to depth ``h`` (``O(|S| \\cdot h)``
  rounds, Lemma A.4).
* :mod:`~repro.csssp.pruning` — subtree-removal protocols: the paper's
  sequential Algorithm 6 and the pipelined parallel variant with incremental
  aggregate maintenance used by the greedy baseline and Algorithm 13.
"""

from repro.csssp.collection import CSSSPCollection, TreeView
from repro.csssp.builder import build_csssp
from repro.csssp.pruning import ParallelPruner, remove_subtrees_sequential

__all__ = [
    "CSSSPCollection",
    "ParallelPruner",
    "TreeView",
    "build_csssp",
    "remove_subtrees_sequential",
]
