"""BFS tree, broadcast (Lemmas A.1/A.2), aggregation, pipelined sums."""

from __future__ import annotations

from collections import deque

import pytest

from repro.congest import CongestNetwork
from repro.graphs import grid2d, path_graph, ring_graph
from repro.primitives import (
    aggregate_and_broadcast,
    broadcast_from_root,
    build_bfs_tree,
    gather_and_broadcast,
    pipelined_vector_sum,
)
from repro.primitives.convergecast import max_with_argmax, tuple_sum

from conftest import GRAPH_KINDS, graph_of


def bfs_depths(g, root):
    seen = {root: 0}
    dq = deque([root])
    while dq:
        v = dq.popleft()
        for u in g.und_neighbors(v):
            if u not in seen:
                seen[u] = seen[v] + 1
                dq.append(u)
    return seen


@pytest.mark.parametrize("kind", GRAPH_KINDS)
def test_bfs_tree_depths_minimal(kind):
    g = graph_of(kind)
    net = CongestNetwork(g)
    tree, stats = build_bfs_tree(net)
    expect = bfs_depths(g, 0)
    assert tree.depth == [expect[v] for v in range(g.n)]
    assert tree.height == max(expect.values())
    # Structure: children/parents agree, root is its own ancestor only.
    for v in range(g.n):
        if v == tree.root:
            assert tree.parent[v] == -1
        else:
            assert tree.depth[tree.parent[v]] == tree.depth[v] - 1
            assert v in tree.children[tree.parent[v]]
    assert tree.path_to_root(g.n - 1)[-1] == tree.root
    # Flood + height convergecast: O(diameter) rounds.
    assert stats.rounds <= 4 * (tree.height + 1) + 2


def test_bfs_tree_disconnected_raises():
    from repro.graphs.spec import Graph

    g = Graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    net = CongestNetwork(g)
    with pytest.raises(ValueError):
        build_bfs_tree(net)


@pytest.mark.parametrize("kind", ["er-sparse", "path", "grid", "star"])
def test_gather_and_broadcast_all_to_all(kind):
    g = graph_of(kind)
    net = CongestNetwork(g)
    tree, _ = build_bfs_tree(net)
    items = [[(v, v * 10)] for v in range(g.n)]
    received, stats = gather_and_broadcast(net, tree, items)
    expect = sorted((v, v * 10) for v in range(g.n))
    for v in range(g.n):
        assert sorted(received[v]) == expect
    # Lemma A.2 shape: O(n) rounds for n items.
    assert stats.rounds <= 4 * tree.height + 2 * g.n + 6


def test_gather_and_broadcast_uneven_items():
    g = path_graph(8, seed=0)
    net = CongestNetwork(g)
    tree, _ = build_bfs_tree(net)
    items = [[(v, j) for j in range(v % 3)] for v in range(g.n)]
    k = sum(len(i) for i in items)
    received, stats = gather_and_broadcast(net, tree, items)
    assert len(received[0]) == k
    assert stats.rounds <= 4 * tree.height + 2 * k + 6


def test_broadcast_from_root_k_values():
    g = ring_graph(9, seed=1)
    net = CongestNetwork(g)
    tree, _ = build_bfs_tree(net)
    k = 15
    items = [(j, j * j) for j in range(k)]
    received, stats = broadcast_from_root(net, tree, items)
    for v in range(g.n):
        assert received[v] == items  # order preserved from the root
    # Lemma A.1 shape: O(height + k).
    assert stats.rounds <= 2 * tree.height + 2 * k + 6


def test_broadcast_empty_items():
    g = path_graph(5, seed=0)
    net = CongestNetwork(g)
    tree, _ = build_bfs_tree(net)
    received, _ = gather_and_broadcast(net, tree, [[] for _ in range(g.n)])
    assert all(r == [] for r in received)


@pytest.mark.parametrize("kind", ["er-sparse", "grid", "broom"])
def test_aggregate_sum_and_max(kind):
    g = graph_of(kind)
    net = CongestNetwork(g)
    tree, _ = build_bfs_tree(net)
    values = [(float(v),) for v in range(g.n)]
    total, stats = aggregate_and_broadcast(net, tree, values, tuple_sum)
    assert total == (sum(range(g.n)),)
    assert stats.rounds <= 2 * tree.height + 4

    pairs = [(float(v % 7), v) for v in range(g.n)]
    best, _ = aggregate_and_broadcast(net, tree, pairs, max_with_argmax)
    expect = max(pairs, key=lambda t: (t[0], -t[1]))
    assert best == expect


def test_max_with_argmax_tie_breaks_to_smaller_id():
    assert max_with_argmax((5.0, 3), (5.0, 7)) == (5.0, 3)
    assert max_with_argmax((5.0, 7), (5.0, 3)) == (5.0, 3)
    assert max_with_argmax((1.0, 0), (2.0, 9)) == (2.0, 9)


@pytest.mark.parametrize("kind", ["er-sparse", "path", "grid"])
@pytest.mark.parametrize("ncomp", [1, 7, 40])
def test_pipelined_vector_sum(kind, ncomp):
    g = graph_of(kind)
    net = CongestNetwork(g)
    tree, _ = build_bfs_tree(net)
    vectors = [[float((v * 31 + j) % 11) for j in range(ncomp)] for v in range(g.n)]
    totals, stats = pipelined_vector_sum(net, tree, vectors)
    expect = [sum(vectors[v][j] for v in range(g.n)) for j in range(ncomp)]
    assert totals == pytest.approx(expect)
    # Lemmas A.13/A.14 shape: height + N rounds (no broadcast).
    assert stats.rounds <= tree.height + ncomp + 2


def test_pipelined_vector_sum_broadcast_result():
    g = grid2d(3, 4, seed=2)
    net = CongestNetwork(g)
    tree, _ = build_bfs_tree(net)
    vectors = [[1.0, 2.0, 3.0] for _ in range(g.n)]
    totals, stats = pipelined_vector_sum(net, tree, vectors, broadcast_result=True)
    assert totals == pytest.approx([g.n, 2.0 * g.n, 3.0 * g.n])
    assert stats.rounds <= 2 * (tree.height + 3) + 4


def test_pipelined_vector_sum_rejects_ragged():
    g = path_graph(3, seed=0)
    net = CongestNetwork(g)
    tree, _ = build_bfs_tree(net)
    with pytest.raises(ValueError):
        pipelined_vector_sum(net, tree, [[1.0], [1.0, 2.0], [1.0]])
