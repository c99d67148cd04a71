"""Per-edge congestion tracking (the Ghaffari-scheduling quantity).

The paper contrasts its deterministic pipeline with the randomized
scheduling of [9], whose bound is ``O(d + c log n)`` in terms of dilation
and *edge congestion* ``c``.  The engine can record per-edge loads so
that comparison is measurable.
"""

from __future__ import annotations

import pytest

from repro.congest import CongestNetwork, RoundStats
from repro.csssp import build_csssp
from repro.graphs import broom, path_graph
from repro.pipeline.short_range import round_robin_pipeline
from repro.primitives import bellman_ford

from conftest import graph_of


def test_edge_tracking_off_by_default():
    g = path_graph(5, seed=0)
    net = CongestNetwork(g)
    res = bellman_ford(net, g, 0)
    assert res.rounds.per_edge_sent == {}
    assert res.rounds.max_edge_congestion == 0


def test_edge_tracking_counts_bf_loads():
    g = path_graph(5, seed=0)
    net = CongestNetwork(g, track_edges=True)
    res = bellman_ford(net, g, 0)
    # One label crosses each forward edge exactly once on a path.
    for v in range(g.n - 1):
        assert res.rounds.per_edge_sent[(v, v + 1)] == 1
    assert res.rounds.max_edge_congestion >= 1


def test_edge_congestion_merges_across_phases():
    a = RoundStats(per_edge_sent={(0, 1): 3})
    b = RoundStats(per_edge_sent={(0, 1): 2, (1, 2): 5})
    c = a + b
    assert c.per_edge_sent == {(0, 1): 5, (1, 2): 5}
    assert c.max_edge_congestion == 5
    assert a.per_edge_sent == {(0, 1): 3}  # add does not mutate


def test_from_sends_builds_the_stats_of_send_counts():
    sent = [0, 3, 1, 0]
    edges = ([1, 1, 2, 1, 3], [0, 2, 1, 0, 2], [1, 1, 1, 1, 0])
    stats = RoundStats.from_sends(5, sent, edges, label="phase")
    # zero sends are left out, of nodes and of edges alike
    assert stats.per_node_sent == {1: 3, 2: 1}
    assert (3, 2) not in stats.per_edge_sent
    # repeated (src, dst) pairs are summed
    assert stats.per_edge_sent == {(1, 0): 2, (1, 2): 1, (2, 1): 1}
    assert stats.messages == sum(sent) == 4
    assert (stats.rounds, stats.label) == (5, "phase")
    # a scalar count applies to every listed edge
    assert RoundStats.from_sends(1, [0, 2, 1], ([1, 1, 2], [0, 2, 1], 1)
                                 ).per_edge_sent == {(1, 0): 1, (1, 2): 1,
                                                     (2, 1): 1}
    # no edges, no per-edge loads
    assert RoundStats.from_sends(2, sent).per_edge_sent == {}


@pytest.mark.parametrize("edges", [
    ([1, 2], [0, 1], [2, 1]),  # node 1 sent 3, its edges carry 2
    ([1, 1, 2, 0], [0, 2, 1, 1], 1),  # node 0 sent nothing, loads say 1
])
def test_from_sends_rejects_edge_loads_that_miss_the_sends(edges):
    with pytest.raises(ValueError, match="edge loads add up to"):
        RoundStats.from_sends(1, [0, 3, 1], edges)


def test_pipeline_edge_congestion_equals_handle_load():
    """On a broom every value to the sink crosses the first handle edge:
    edge congestion there = number of values = n - 1."""
    g = broom(handle_len=6, brush=8, seed=1)
    net = CongestNetwork(g, track_edges=True)
    cq, _ = build_csssp(net, g, [0], g.n, orientation="in")
    values = [{0: (float(v), 0, 0)} if v != 0 else {} for v in range(g.n)]
    net.total = RoundStats()  # isolate the pipeline phase
    delivered, stats, _trace = round_robin_pipeline(net, cq, values)
    assert stats.per_edge_sent[(1, 0)] == g.n - 1
    assert stats.max_edge_congestion == g.n - 1
    # Bandwidth respected: per-round load on any edge never exceeded 1,
    # so rounds >= the busiest edge's total load.
    assert stats.rounds >= stats.max_edge_congestion


def test_dilation_plus_congestion_bound_shape():
    """Measured pipeline rounds sit below dilation + congestion — the
    quantity the randomized scheduler of [9] would guarantee up to logs,
    achieved here deterministically."""
    g = graph_of("star")
    net = CongestNetwork(g, track_edges=True)
    sinks = [v for v in range(g.n) if v % 5 == 0 and v > 0]
    cq, _ = build_csssp(net, g, sinks, g.n, orientation="in")
    values = [
        {c: (float(v), 0, 0) for c in sinks if cq.trees[c].live(v) and v != c}
        for v in range(g.n)
    ]
    delivered, stats, _ = round_robin_pipeline(net, cq, values)
    dilation = max(max(t.depth) for t in cq.trees.values())
    assert stats.rounds <= dilation + stats.max_node_congestion + len(sinks)
