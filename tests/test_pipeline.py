"""Step 6 machinery: round-robin pipeline, relay join, delivery variants."""

from __future__ import annotations

import math

import pytest

from repro.congest import CongestNetwork
from repro.congest.metrics import PhaseLog
from repro.csssp import build_csssp
from repro.graphs import broom, path_graph, star_of_paths
from repro.pipeline import broadcast_delivery, reversed_qsink
from repro.pipeline.relay import relay_join
from repro.pipeline.short_range import round_robin_pipeline
from repro.pipeline.values import reference_values

from conftest import graph_of, reference_of


def true_values(g, ref, q_nodes):
    """values[x][c] = exact delta(x, c) triples (Step 5's hand-over)."""
    return reference_values(g, q_nodes)


@pytest.mark.parametrize("kind", ["er-sparse", "grid", "path", "er-directed"])
def test_round_robin_delivers_all_live_values(kind):
    g = graph_of(kind)
    ref = reference_of(kind)
    net = CongestNetwork(g)
    q_nodes = sorted(range(0, g.n, 3))
    h2 = max(2, g.n // 3)
    cq, _ = build_csssp(net, g, q_nodes, h2, orientation="in")
    values = true_values(g, ref, q_nodes)
    delivered, stats, trace = round_robin_pipeline(net, cq, values)
    for c in q_nodes:
        t = cq.trees[c]
        for x in range(g.n):
            if t.live(x) and x != c:
                assert delivered[c][x][0] == pytest.approx(ref[x, c])
    assert trace.rounds == stats.rounds
    assert trace.messages == stats.messages
    # Each value travels its tree depth: messages = sum of live depths.
    expect_msgs = sum(
        cq.trees[c].depth[x]
        for c in q_nodes
        for x in range(g.n)
        if cq.trees[c].live(x) and x != c and c in values[x]
    )
    assert stats.messages == expect_msgs


def test_round_robin_on_broom_serializes_through_handle():
    """All brush values to a sink at the handle end share one path: rounds
    must cover the full load but stay near load + depth (pipeline, not
    load * depth)."""
    g = broom(handle_len=10, brush=12, seed=3)
    net = CongestNetwork(g)
    sink = 0
    cq, _ = build_csssp(net, g, [sink], g.n, orientation="in")
    values = [{sink: (float(v), 0, 0)} if v != sink else {} for v in range(g.n)]
    delivered, stats, trace = round_robin_pipeline(net, cq, values)
    assert len(delivered[sink]) == g.n - 1
    load = g.n - 1
    depth = max(cq.trees[sink].depth)
    assert stats.rounds >= load  # node 1 forwards everything
    assert stats.rounds <= load + depth + 2  # pipelining bound (Lemma 4.6)


def test_round_robin_multi_sink_star():
    g = star_of_paths(arms=3, arm_len=4, seed=1)
    ref_sinks = [4, 8, 12]
    net = CongestNetwork(g)
    cq, _ = build_csssp(net, g, ref_sinks, g.n, orientation="in")
    values = [
        {c: (float(100 * v + c), 0, 0) for c in ref_sinks if cq.trees[c].live(v)}
        for v in range(g.n)
    ]
    delivered, _stats, _ = round_robin_pipeline(net, cq, values)
    for c in ref_sinks:
        for x in range(g.n):
            if cq.trees[c].live(x) and x != c:
                assert delivered[c][x][0] == 100 * x + c


def test_round_robin_skips_pruned_sources():
    g = path_graph(8, seed=0)
    net = CongestNetwork(g)
    sink = 0
    cq, _ = build_csssp(net, g, [sink], g.n, orientation="in")
    cq.trees[sink].mark_removed(5)  # prune 5,6,7
    values = [{sink: (float(v), 0, 0)} if v != sink else {} for v in range(g.n)]
    delivered, _stats, _ = round_robin_pipeline(net, cq, values)
    assert set(delivered[sink]) == {1, 2, 3, 4}


@pytest.mark.parametrize("kind", ["er-sparse", "path", "er-directed"])
def test_relay_join_upper_bounds_and_exactness(kind):
    g = graph_of(kind)
    ref = reference_of(kind)
    net = CongestNetwork(g)
    relays = [g.n // 2, g.n - 1]
    sinks = [0, 1]
    log = PhaseLog()
    candidates = relay_join(net, g, relays, sinks, log)
    for c in sinks:
        for x, val in candidates[c].items():
            # Always a realizable path cost...
            assert val[0] >= ref[x, c] - 1e-9
            # ...and exact when a shortest path passes through a relay.
            through = min(
                (ref[x, r] + ref[r, c] for r in relays), default=math.inf
            )
            assert val[0] == pytest.approx(through)


@pytest.mark.parametrize("kind", ["er-sparse", "grid", "er-directed", "er-zero"])
def test_broadcast_delivery_exact(kind):
    g = graph_of(kind)
    ref = reference_of(kind)
    net = CongestNetwork(g)
    q_nodes = sorted(range(0, g.n, 4))
    values = true_values(g, ref, q_nodes)
    delivered, stats = broadcast_delivery(net, q_nodes, values)
    for c in q_nodes:
        for x in range(g.n):
            if math.isfinite(ref[x, c]) and x != c:
                assert delivered[c][x][0] == pytest.approx(ref[x, c])
    total_items = sum(len(v) for v in values)
    assert stats.rounds <= 4 * g.n + 2 * total_items + 8


@pytest.mark.parametrize("kind", ["er-sparse", "path", "grid", "er-directed",
                                  "star", "broom", "er-zero", "layered"])
def test_reversed_qsink_exact_everywhere(kind):
    """Step 6 end to end: every blocker learns delta(x, c) for every x."""
    g = graph_of(kind)
    ref = reference_of(kind)
    net = CongestNetwork(g)
    q_nodes = sorted(range(1, g.n, 3))
    values = true_values(g, ref, q_nodes)
    result = reversed_qsink(net, g, q_nodes, values)
    for c in q_nodes:
        for x in range(g.n):
            if x == c or math.isinf(ref[x, c]):
                continue
            assert result.delivered[c].get(x)[0] == pytest.approx(ref[x, c]), (
                kind, x, c,
            )


def test_reversed_qsink_small_h2_exercises_long_range():
    """Tiny h2 forces most pairs through Algorithm 8's Q' relays."""
    g = graph_of("path")
    ref = reference_of("path")
    net = CongestNetwork(g)
    q_nodes = [0, g.n - 1]
    values = true_values(g, ref, q_nodes)
    result = reversed_qsink(net, g, q_nodes, values, h2=3)
    assert result.q_prime  # long paths exist, Q' must be nonempty
    for c in q_nodes:
        for x in range(g.n):
            if x != c and math.isfinite(ref[x, c]):
                assert result.delivered[c].get(x)[0] == pytest.approx(ref[x, c])


def test_reversed_qsink_low_threshold_exercises_bottlenecks():
    g = graph_of("star")
    ref = reference_of("star")
    net = CongestNetwork(g)
    q_nodes = sorted(v for v in range(g.n) if v % 5 == 0 and v > 0)
    values = true_values(g, ref, q_nodes)
    result = reversed_qsink(
        net, g, q_nodes, values, bottleneck_threshold=float(g.n)
    )
    assert result.bottleneck.bottlenecks
    for c in q_nodes:
        for x in range(g.n):
            if x != c and math.isfinite(ref[x, c]):
                assert result.delivered[c].get(x)[0] == pytest.approx(ref[x, c])

