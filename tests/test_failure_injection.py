"""Failure injection: the guard rails must fire, not silently degrade.

CONGEST model violations (bandwidth, locality, word size), malformed
inputs, and corrupted intermediate state must raise loudly — a simulator
that silently queues over-budget messages would fabricate round counts.
"""

from __future__ import annotations

import math

import pytest

from repro.congest import CongestNetwork, NodeProgram
from repro.congest.network import BandwidthExceeded, NotANeighbor
from repro.csssp import build_csssp
from repro.csssp.collection import CSSSPCollection
from repro.graphs import path_graph
from repro.graphs.spec import Graph
from repro.blocker import BlockerParams, sampling_blocker_set
from repro.pipeline import reversed_qsink
from repro.pipeline.short_range import round_robin_pipeline
from repro.primitives import bellman_ford

from conftest import collection_of, graph_of


class _OverTalker(NodeProgram):
    """Sends two words... two messages per edge per round."""

    def on_round(self, ctx):
        if ctx.round == 0 and ctx.neighbors:
            u = ctx.neighbors[0]
            ctx.send(u, "a")
            ctx.send(u, "b")
        self.active = False


def test_bandwidth_violation_raises_not_queues():
    g = path_graph(4)
    net = CongestNetwork(g)
    with pytest.raises(BandwidthExceeded):
        net.run([_OverTalker(v) for v in range(g.n)])
    # Non-strict mode measures instead of raising (diagnostics use).
    loose = CongestNetwork(g, strict=False)
    stats = loose.run([_OverTalker(v) for v in range(g.n)])
    assert stats.messages == 2 * g.n  # every node over-talks once


class _WrongNeighbor(NodeProgram):
    def on_round(self, ctx):
        if ctx.round == 0 and ctx.node == 0:
            ctx.send(3, "x")
        self.active = False


def test_nonlocal_send_raises():
    g = path_graph(5)
    net = CongestNetwork(g)
    with pytest.raises(NotANeighbor):
        net.run([_WrongNeighbor(v) for v in range(g.n)])


def test_pipeline_messages_fit_word_limit():
    """Step 6 payloads (c, x, d, k, tb) are 5 words — within the model's
    constant, and the strict engine enforces it on every send."""
    g = graph_of("er-sparse")
    net = CongestNetwork(g, word_limit=5)
    from repro.pipeline.values import reference_values

    q_nodes = [0, 3, 6]
    values = reference_values(g, q_nodes)
    reversed_qsink(net, g, q_nodes, values)  # must not raise


def test_round_robin_detects_lost_values():
    """Corrupting the pruned collection (a live node whose parent edge was
    silently cut) must be caught by the completeness assertion."""
    g = path_graph(6, seed=0)
    net = CongestNetwork(g)
    cq, _ = build_csssp(net, g, [0], g.n, orientation="in")
    # Corrupt: node 3 stays 'live' but its parent pointer is destroyed.
    cq.trees[0].parent[3] = -1
    cq.trees[0].children[2] = []
    values = [{0: (float(v), 0, 0)} if v != 0 else {} for v in range(g.n)]
    with pytest.raises(Exception):
        round_robin_pipeline(net, cq, values)


def test_extension_rejects_disconnected_budget():
    """h = 0 would never be valid for the driver."""
    g = graph_of("er-sparse")
    net = CongestNetwork(g)
    from repro.apsp import three_phase_apsp

    with pytest.raises(ValueError):
        three_phase_apsp(net, g, h=0)


def test_sampling_raises_when_coverage_impossible():
    coll = collection_of("er-sparse", 3)
    g = graph_of("er-sparse")
    net = CongestNetwork(g)
    with pytest.raises(RuntimeError):
        # Densities near zero cannot cover; Las Vegas loop must give up
        # loudly rather than spin forever.
        sampling_blocker_set(net, coll, density=1e-9, max_attempts=2)


def test_blocker_verification_catches_noncover():
    from repro.blocker import is_blocker_set, uncovered_paths

    coll = collection_of("er-sparse", 3)
    assert not is_blocker_set(coll, [])
    missed = uncovered_paths(coll, [])
    assert len(missed) == coll.path_count()


def test_collection_rejects_malformed_tree():
    g = graph_of("er-sparse")
    coll = CSSSPCollection(g, 2, [0], [[-1] + [0] * (g.n - 1)],
                           [[0] + [1] * (g.n - 1)])
    coll.check_tree_shape()  # consistent so far
    coll.trees[0].depth[1] = 5  # deeper than h and skipping levels
    with pytest.raises(AssertionError):
        coll.check_tree_shape()


def test_verify_catches_corrupted_pred():
    from repro.apsp import CertificateError, naive_bf_apsp

    g = graph_of("er-sparse")
    net = CongestNetwork(g)
    result = naive_bf_apsp(net, g)
    result.verify(g)
    # Point a predecessor at a non-adjacent node.
    x, t = 0, g.n - 1
    bad = next(
        v for v in range(g.n) if v not in g.und_neighbors(t) and v != t
    )
    result.pred[x, t] = bad
    with pytest.raises(CertificateError, match="pred arc"):
        result.verify(g)


def test_bf_on_disconnected_communication_graph():
    g = Graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    net = CongestNetwork(g)
    res = bellman_ford(net, g, 0)
    assert math.isinf(res.dist[2]) and math.isinf(res.dist[3])
    assert res.dist[1] == pytest.approx(g.edges[0][2])


def test_bad_blocker_params_rejected_early():
    with pytest.raises(ValueError):
        BlockerParams(eps=1.0)
    with pytest.raises(ValueError):
        BlockerParams(delta=-0.1)

