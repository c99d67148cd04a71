"""Distributed Bellman-Ford vs the centralized references."""

from __future__ import annotations

import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.congest import CongestNetwork
from repro.experiments.registry import make_graph
from repro.graphs import erdos_renyi, path_graph
from repro.graphs.reference import (
    h_hop_distances,
    h_hop_labels,
    single_source_shortest_paths,
)
from repro.graphs.spec import INF_COST, ZERO_COST
from repro.primitives import bellman_ford, notify_children
from repro.primitives.bellman_ford import bellman_ford_many

from conftest import GRAPH_KINDS, graph_of, reference_of


@pytest.mark.parametrize("kind", GRAPH_KINDS)
def test_full_sssp_exact(kind):
    g = graph_of(kind)
    net = CongestNetwork(g)
    ref = reference_of(kind)
    for s in (0, g.n // 2, g.n - 1):
        res = bellman_ford(net, g, s)
        for v in range(g.n):
            assert res.dist[v] == pytest.approx(ref[s, v]) or (
                math.isinf(res.dist[v]) and math.isinf(ref[s, v])
            )


@pytest.mark.parametrize("kind", ["er-sparse", "er-directed", "path", "er-zero"])
@pytest.mark.parametrize("h", [1, 2, 4])
def test_h_hop_sssp_exact(kind, h):
    g = graph_of(kind)
    net = CongestNetwork(g)
    s = 1
    res = bellman_ford(net, g, s, h=h)
    mat = h_hop_distances(g, h, [s])
    for v in range(g.n):
        assert res.dist[v] == pytest.approx(mat[0, v]) or (
            math.isinf(res.dist[v]) and math.isinf(mat[0, v])
        )


@pytest.mark.parametrize("kind", ["er-sparse", "er-directed", "layered"])
def test_in_sssp_exact(kind):
    g = graph_of(kind)
    net = CongestNetwork(g)
    for s in (0, g.n - 1):
        res = bellman_ford(net, g, s, reverse=True)
        dist, _ = single_source_shortest_paths(g, s, reverse=True)
        for v in range(g.n):
            assert res.dist[v] == pytest.approx(dist[v]) or (
                math.isinf(res.dist[v]) and math.isinf(dist[v])
            )


def test_labels_match_reference_labels_exactly():
    g = graph_of("er-sparse")
    net = CongestNetwork(g)
    res = bellman_ford(net, g, 2, h=4)
    ref = h_hop_labels(g, 2, 4)
    assert res.label == ref  # identical lexicographic triples, bit for bit


def test_round_bound_h_plus_one():
    g = path_graph(30, seed=0)
    net = CongestNetwork(g)
    for h in (1, 5, 29):
        res = bellman_ford(net, g, 0, h=h)
        assert res.rounds.rounds <= h + 1


def test_messages_bounded_by_edge_rounds():
    g = graph_of("er-dense")
    net = CongestNetwork(g)
    res = bellman_ford(net, g, 0, h=5)
    # At most one label per directed relax edge per round.
    assert res.rounds.messages <= 2 * g.m * (res.rounds.rounds)


def test_hops_recorded():
    g = path_graph(8, seed=2)
    net = CongestNetwork(g)
    res = bellman_ford(net, g, 0)
    assert res.hops == list(range(8))
    assert res.parent[0] == -1
    for v in range(1, 8):
        assert res.parent[v] == v - 1


def test_multi_init_extension_semantics():
    # Path 0-1-2-3-4; init node 2 with value 10, budget h=1: reaches 1 and 3.
    g = path_graph(5, seed=3, wrange=(1.0, 1.0), integer=True)
    net = CongestNetwork(g)
    res = bellman_ford(net, g, 0, h=1, inits={2: (10.0, 0, 0)})
    assert res.dist[2] == 10.0
    assert res.dist[1] == pytest.approx(10.0 + g.edges[1][2])
    assert res.dist[3] == pytest.approx(10.0 + g.edges[2][2])
    assert math.isinf(res.dist[0]) and math.isinf(res.dist[4])


def test_multi_init_takes_min_over_sources():
    g = path_graph(4, seed=1, wrange=(1.0, 1.0), integer=True)
    net = CongestNetwork(g)
    res = bellman_ford(
        net, g, 0, h=3, inits={0: ZERO_COST, 3: (0.5, 0, 0)}
    )
    # Node 2: from 0 costs 2 edges, from 3 costs 0.5 + 1 edge.
    assert res.dist[2] == pytest.approx(min(2.0, 1.5))


def test_unreachable_directed():
    from repro.graphs.spec import Graph

    # Node 2 has no path from 0, but the communication graph must be
    # connected for CONGEST, so it hangs off a dead edge.
    g2 = Graph(3, [(0, 1, 1.0), (2, 1, 1.0)], directed=True)
    net = CongestNetwork(g2)
    res = bellman_ford(net, g2, 0)
    assert math.isinf(res.dist[2])  # 2 -> 1 edge points the wrong way
    assert not res.reaches(2)


def test_notify_children_builds_children_lists():
    g = path_graph(6, seed=0)
    net = CongestNetwork(g)
    res = bellman_ford(net, g, 0)
    children, stats = notify_children(net, res.parent)
    assert children[0] == [1]
    assert children[4] == [5]
    assert children[5] == []
    assert stats.rounds == 1


@pytest.mark.parametrize("compress", [False, True])
@pytest.mark.parametrize("arg", ["labels", "inits_per_source"])
@pytest.mark.parametrize("extra", [-1, 1])
def test_bellman_ford_many_rejects_length_mismatch(compress, arg, extra):
    """One entry per source, checked before any phase runs."""
    g = graph_of("er-sparse")
    net = CongestNetwork(g, compress=compress)
    sources = [0, 1, 2]
    given = {"labels": [f"bf({s})" for s in range(len(sources) + extra)],
             "inits_per_source": [None] * (len(sources) + extra)}
    with pytest.raises(ValueError, match=f"{arg} has {len(sources) + extra} "
                                         f"entries for 3 sources"):
        bellman_ford_many(net, g, sources, h=2, **{arg: given[arg]})
    assert net.total.rounds == 0 and net.total.messages == 0


def test_batch_views_match_planes():
    """Indexing, iterating and the stats of an :class:`SSSPBatch`."""
    g = graph_of("er-sparse")
    for compress in (False, True):
        net = CongestNetwork(g, compress=compress)
        batch = bellman_ford_many(net, g, [0, 3], h=3, labels=["a", "b"])
        assert len(batch) == 2 and batch.dist.shape == (2, g.n)
        for i, res in enumerate(batch):
            assert res.source == batch.sources[i]
            assert res.dist == batch.dist[i].tolist()
            assert res.parent == batch.parent[i].tolist()
            assert [lab == INF_COST for lab in res.label] == [
                k < 0 for k in batch.hops[i].tolist()]
            assert res.rounds.label == ["a", "b"][i]
            assert batch.stats(i).per_node_sent == {
                v: c for v, c in enumerate(batch.sent[i].tolist()) if c}
        total = batch.total("both")
        assert total.label == "both"
        assert total.rounds == int(batch.rounds.sum()) == net.total.rounds
        assert total.per_node_sent == net.total.per_node_sent


def test_empty_batches_and_parentless_trees():
    """No sources, or a tree with no edges: nothing charged, nothing built."""
    g = graph_of("er-sparse")
    for compress in (False, True):
        net = CongestNetwork(g, compress=compress)
        batch = bellman_ford_many(net, g, [], h=2)
        assert len(batch) == 0 and list(batch) == []
        assert batch.dist.shape == (0, g.n)
        assert batch.total().rounds == 0
        children, stats = notify_children(net, [-1] * g.n)
        assert children == [[] for _ in range(g.n)] and stats.rounds == 0
        assert net.total.rounds == 0


def test_batched_solver_memory_bound():
    """The Step-1 shape at n = 512 allocates at most 256 MiB at its peak.

    Every source of ``er`` n = 512 with ``h = 16`` in one compressed
    batch.  The solver screens each round's announcements in bounded
    chunks, so the peak (about 80 MiB, results included) does not grow
    with the number of announcements in a round; one unchunked round of
    this shape needs several hundred MiB of temporaries.
    """
    graph = make_graph("er", 512, 1)
    net = CongestNetwork(graph, compress=True)
    tracemalloc.start()
    try:
        results = bellman_ford_many(net, graph, range(graph.n), h=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(results) == graph.n
    assert peak <= 256 * 2**20, f"peak {peak / 2**20:.0f} MiB > 256 MiB"


@given(n=st.integers(4, 22), seed=st.integers(0, 500), h=st.integers(1, 6))
@settings(max_examples=20, deadline=None)
def test_h_hop_property(n, seed, h):
    g = erdos_renyi(n, p=0.25, seed=seed)
    net = CongestNetwork(g)
    res = bellman_ford(net, g, 0, h=h)
    mat = h_hop_distances(g, h, [0])
    for v in range(n):
        ok = res.dist[v] == pytest.approx(mat[0, v]) or (
            math.isinf(res.dist[v]) and math.isinf(mat[0, v])
        )
        assert ok, (v, res.dist[v], mat[0, v])
        if res.label[v] != INF_COST:
            assert res.label[v][1] <= h


def test_bf_tables_cached_per_graph_and_direction():
    """One network caches the programs' edge tables per (graph, direction);
    every cached run equals a run on a fresh network."""
    g = erdos_renyi(24, p=0.25, directed=True, seed=5)
    g_rev = g.reverse()  # a second directed graph on the same links
    net = CongestNetwork(g)
    for graph, reverse in [(g, False), (g, True), (g_rev, False),
                           (g_rev, True), (g, False)]:
        cached = bellman_ford(net, graph, 3, h=6, reverse=reverse)
        fresh = bellman_ford(CongestNetwork(graph), graph, 3, h=6,
                             reverse=reverse)
        assert cached == fresh, (graph.name, reverse)
    assert len(net._bf_tables) == 4
