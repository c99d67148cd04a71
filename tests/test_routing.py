"""Predecessor output — the "last edge" half of the APSP problem.

Section 1.1: "each node in the network needs to compute its shortest path
distance from every other node as well as the last edge on each such
shortest path."  Every 3-phase algorithm and naive BF produce ``pred``;
these tests check the reconstructed paths are genuine optimal paths on
every graph family, including the adversarial zero-weight-tie cases that
motivated carrying lexicographic triples through Step 6.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.congest import CongestNetwork
from repro.graphs import erdos_renyi
from repro.apsp import (
    CertificateError,
    baseline_n32_apsp,
    deterministic_apsp,
    naive_bf_apsp,
    randomized_apsp,
)

from conftest import GRAPH_KINDS, graph_of


@pytest.mark.parametrize("kind", GRAPH_KINDS)
def test_paper_algorithm_routing_on_every_family(kind):
    g = graph_of(kind)
    net = CongestNetwork(g)
    result = deterministic_apsp(net, g)
    result.verify(g)


@pytest.mark.parametrize("algo", [baseline_n32_apsp, randomized_apsp,
                                  naive_bf_apsp])
def test_other_algorithms_routing(algo):
    for kind in ("er-sparse", "er-zero", "er-directed"):
        g = graph_of(kind)
        net = CongestNetwork(g)
        result = algo(net, g)
        result.verify(g)


def test_path_endpoints_and_shape():
    g = graph_of("er-sparse")
    net = CongestNetwork(g)
    result = deterministic_apsp(net, g)
    for t in range(1, g.n, 5):
        nodes = result.path(0, t)
        assert nodes[0] == 0 and nodes[-1] == t
        assert len(nodes) == len(set(nodes))  # simple path, no cycles
        assert len(nodes) <= g.n


def test_path_errors():
    g = graph_of("layered")
    net = CongestNetwork(g)
    result = deterministic_apsp(net, g)
    with pytest.raises(ValueError):
        result.path(g.n - 1, 0)  # unreachable on a layered digraph
    result.pred = None
    with pytest.raises(ValueError):
        result.path(0, 1)
    with pytest.raises(CertificateError, match="shape"):
        result.verify(g)


def test_last_edge_is_graph_edge_everywhere():
    g = graph_of("er-directed")
    net = CongestNetwork(g)
    result = deterministic_apsp(net, g)
    out_edges = {(v, u) for v in range(g.n) for (u, _w, _t) in g.out_edges(v)}
    for x in range(g.n):
        for t in range(g.n):
            p = int(result.pred[x, t])
            if p >= 0:
                assert (p, t) in out_edges, (x, t, p)
    # Source / unreachable entries carry -1.
    assert all(result.pred[x, x] == -1 for x in range(g.n))


def test_predecessor_rows_form_trees():
    """Per source, pred pointers must be acyclic (a shortest-path tree)."""
    g = graph_of("er-zero")  # zero weights: the hard tie case
    net = CongestNetwork(g)
    result = deterministic_apsp(net, g)
    for x in range(g.n):
        for t in range(g.n):
            if math.isinf(result.dist[x, t]) or x == t:
                continue
            seen = set()
            v = t
            while v != x:
                assert v not in seen, f"cycle in pred row {x} at {v}"
                seen.add(v)
                v = int(result.pred[x, v])
                assert v >= 0


@given(
    n=st.integers(8, 20),
    seed=st.integers(0, 400),
    zero=st.floats(0.0, 0.8),
    directed=st.booleans(),
)
@settings(max_examples=10, deadline=None)
def test_routing_property(n, seed, zero, directed):
    g = erdos_renyi(n, p=0.3, seed=seed, zero_frac=zero, directed=directed)
    net = CongestNetwork(g)
    result = deterministic_apsp(net, g)
    result.verify(g)
