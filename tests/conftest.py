"""Shared fixtures: canonical small instances and their networks.

Session-scoped caches keep the suite fast — collections and reference
matrices are reused by every test that only *reads* them.  Tests that
mutate a collection must use ``.copy()`` (the algorithms already do).
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from repro.congest import CongestNetwork
from repro.csssp import build_csssp
from repro.graphs import (
    broom,
    erdos_renyi,
    grid2d,
    layered_digraph,
    path_graph,
    ring_graph,
    star_of_paths,
)
from repro.graphs.reference import all_pairs_shortest_paths


def make_graph(kind: str):
    """Deterministic canonical instances used across the suite."""
    if kind == "er-sparse":
        return erdos_renyi(24, p=0.12, seed=3)
    if kind == "er-dense":
        return erdos_renyi(20, p=0.4, seed=7)
    if kind == "er-zero":
        return erdos_renyi(18, p=0.25, seed=11, zero_frac=0.3)
    if kind == "er-directed":
        return erdos_renyi(20, p=0.3, seed=5, directed=True)
    if kind == "grid":
        return grid2d(5, 5, seed=2)
    if kind == "path":
        return path_graph(20, seed=1)
    if kind == "ring":
        return ring_graph(17, seed=4)
    if kind == "star":
        return star_of_paths(4, 5, seed=6)
    if kind == "broom":
        return broom(8, 10, seed=8)
    if kind == "layered":
        return layered_digraph(6, 4, seed=1)
    raise KeyError(kind)


GRAPH_KINDS = [
    "er-sparse",
    "er-dense",
    "er-zero",
    "er-directed",
    "grid",
    "path",
    "ring",
    "star",
    "broom",
    "layered",
]

_graph_cache: Dict[str, object] = {}
_ref_cache: Dict[str, object] = {}
_coll_cache: Dict[Tuple[str, int, str], object] = {}


@pytest.fixture(params=GRAPH_KINDS)
def any_graph(request):
    kind = request.param
    if kind not in _graph_cache:
        _graph_cache[kind] = make_graph(kind)
    return _graph_cache[kind]


@pytest.fixture
def er_graph():
    if "er-sparse" not in _graph_cache:
        _graph_cache["er-sparse"] = make_graph("er-sparse")
    return _graph_cache["er-sparse"]


def graph_of(kind: str):
    if kind not in _graph_cache:
        _graph_cache[kind] = make_graph(kind)
    return _graph_cache[kind]


def reference_of(kind: str):
    if kind not in _ref_cache:
        _ref_cache[kind] = all_pairs_shortest_paths(graph_of(kind))
    return _ref_cache[kind]


def collection_of(kind: str, h: int, orientation: str = "out"):
    """Cached CSSSP collection (read-only — copy before mutating)."""
    key = (kind, h, orientation)
    if key not in _coll_cache:
        g = graph_of(kind)
        net = CongestNetwork(g)
        sources = range(g.n)
        coll, _ = build_csssp(net, g, sources, h, orientation=orientation)
        _coll_cache[key] = coll
    return _coll_cache[key]


def beta_per_tree(counts) -> Dict[int, Dict[int, int]]:
    """A ``PathCounts`` table as ``{source: {leaf: beta}}``, every source in."""
    out: Dict[int, Dict[int, int]] = {x: {} for x in counts.xs}
    for r, leaf, b in zip(counts.row.tolist(), counts.leaf.tolist(),
                          counts.beta.tolist()):
        out[counts.xs[r]][leaf] = b
    return out


@pytest.fixture
def network(any_graph):
    return CongestNetwork(any_graph)


def faulted_record() -> dict:
    """A faulted-scenario record as releases with a fault axis wrote it.

    Same ``RECORD_VERSION`` (2) as today's records and a hash that
    matches its spec under that release's canonical form; the spec
    carries ``faults``/``fault_seed`` keys that no longer exist, so every
    loader must refuse it as an unreadable spec.
    """
    return {
        "version": 2, "hash": "cf91d1f4b9aaedee",
        "spec": {"family": "er", "n": 10, "algorithm": "naive-bf",
                 "seed": 1, "weights": "uniform", "h_exponent": None,
                 "blocker": None, "delivery": None, "strict": False,
                 "compress": False, "faults": "drop", "fault_seed": 1},
        "graph": "er(n=10,p=0.4)", "actual_n": 10, "algorithm": "naive-bf",
        "rounds": 45, "messages": 597, "max_node_congestion": 96,
        "step_rounds": {"bellman-ford": 45},
        "step_congestion": {"bellman-ford": 15}, "meta": {},
        "dist_sha256": "21bb09ad70c2dc93b7673c151bd0c29e"
                       "003c2ce59aa48e04b7107cce793816b6",
        "finite_pairs": 100, "dist_sum": 5024.063781738281,
        "verified": False,
        "faults": {"model": "drop", "fault_seed": 1,
                   "plan_seed": 117965182691534, "events": {"drop": 13},
                   "trace_sha256": "a80b7868b6e645cb"},
        "fault_outcome": "divergent",
        "baseline": {"rounds": 44, "messages": 607,
                     "dist_sha256": "b9c96f43f8d645ca4343218a7102584c"
                                    "3cf2595538c7428782eda6222c09e442"},
        "timing": {"wall_s": 0.0024, "baseline_wall_s": 0.0017},
    }
