"""Algorithms 13/14: message counts, bottleneck invariants (F5's claims)."""

from __future__ import annotations

import math

import pytest

from repro.congest import CongestNetwork
from repro.csssp import build_csssp
from repro.graphs import star_of_paths
from repro.pipeline.bottleneck import compute_bottleneck, message_counts

from conftest import collection_of, graph_of


def central_counts(coll, x):
    t = coll.trees[x]
    out = [0.0] * coll.n
    for v in range(coll.n):
        if t.live(v):
            out[v] = float(len(t.subtree(v)))
    return out


@pytest.mark.parametrize("kind", ["er-sparse", "grid", "star", "broom"])
def test_message_counts_match_subtree_sizes(kind):
    g = graph_of(kind)
    coll = collection_of(kind, 3).copy()
    net = CongestNetwork(g)
    counts, stats = message_counts(net, coll)
    for x in coll.trees:
        assert counts[x] == pytest.approx(central_counts(coll, x))
    # Algorithm 14: h+1 rounds per source.
    assert stats.rounds <= len(coll.trees) * (coll.h + 2)


def test_star_hub_is_the_bottleneck():
    g = star_of_paths(arms=4, arm_len=5, seed=0)
    net = CongestNetwork(g)
    h2 = 10
    sinks = [5, 10, 15, 20]  # arm tips
    cq, _ = build_csssp(net, g, sinks, h2, orientation="in")
    # Force picking by setting the threshold below the hub's load.
    res = compute_bottleneck(net, cq, threshold=float(g.n))
    assert 0 in res.bottlenecks  # every cross-arm path serializes at the hub
    assert res.max_residual <= res.threshold


@pytest.mark.parametrize("kind", ["er-sparse", "grid", "star"])
def test_bottleneck_invariants(kind):
    """Lemmas A.15/A.16: residual <= threshold, |B| <= total/threshold."""
    g = graph_of(kind)
    coll = collection_of(kind, 3, orientation="in").copy()
    net = CongestNetwork(g)
    counts, _ = message_counts(net, coll)
    initial_total = sum(
        counts[x][v]
        for x, t in coll.trees.items()
        for v in range(g.n)
        if t.live(v) and t.depth[v] >= 1
    )
    threshold = max(10.0, initial_total / 16.0)
    res = compute_bottleneck(net, coll, threshold=threshold)
    assert res.max_residual <= threshold
    # Each pick removes > threshold load, so |B| < initial_total/threshold.
    assert len(res.bottlenecks) <= initial_total / threshold


def test_default_threshold_is_n_sqrt_q():
    g = graph_of("er-sparse")
    coll = collection_of("er-sparse", 3, orientation="in").copy()
    net = CongestNetwork(g)
    res = compute_bottleneck(net, coll)
    assert res.threshold == pytest.approx(g.n * math.sqrt(len(coll.trees)))
    # At n=24 with q=n trees the default is far above any load: B empty.
    assert res.bottlenecks == []


def test_bottleneck_prunes_collection_in_place():
    g = star_of_paths(arms=4, arm_len=5, seed=0)
    net = CongestNetwork(g)
    sinks = [5, 10, 15, 20]
    cq, _ = build_csssp(net, g, sinks, 10, orientation="in")
    res = compute_bottleneck(net, cq, threshold=float(g.n))
    assert res.bottlenecks
    for b in res.bottlenecks:
        for x, t in cq.trees.items():
            if t.depth[b] >= 1:
                assert not t.live(b)


def test_totals_after_equal_recount():
    """Residual totals must equal a fresh Algorithm-14 recount."""
    g = star_of_paths(arms=3, arm_len=4, seed=2)
    net = CongestNetwork(g)
    sinks = [4, 8, 12]
    cq, _ = build_csssp(net, g, sinks, 8, orientation="in")
    res = compute_bottleneck(net, cq, threshold=8.0)
    fresh, _ = message_counts(net, cq)
    for v in range(g.n):
        expect = sum(
            fresh[x][v]
            for x, t in cq.trees.items()
            if t.live(v) and t.depth[v] >= 1
        )
        assert res.totals[v] == pytest.approx(expect), v
