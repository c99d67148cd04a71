"""Step 7 — extended h-hop shortest paths (Section 5, Lemma 5.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.congest import CongestNetwork
from repro.pipeline import extend_h_hop

from conftest import graph_of, reference_of


def delivered_from_reference(g, ref, q_nodes):
    """What a perfect Step 6 hands Step 7: delta(x, c) triples at each c."""
    from repro.pipeline.values import reference_values

    values = reference_values(g, q_nodes)
    return {
        c: {x: values[x][c] for x in range(g.n) if c in values[x]}
        for c in q_nodes
    }


@pytest.mark.parametrize("kind", ["er-sparse", "grid", "path", "er-directed",
                                  "er-zero", "layered", "star"])
@pytest.mark.parametrize("h", [2, 3])
def test_extension_completes_apsp(kind, h):
    """With a blocker-free h-window guarantee (Q = every 'h-th' node is
    more than we need — use all nodes as blockers), extension is exact."""
    g = graph_of(kind)
    ref = reference_of(kind)
    net = CongestNetwork(g)
    q_nodes = list(range(g.n))  # every node a blocker: always sufficient
    delivered = delivered_from_reference(g, ref, q_nodes)
    dist, pred, stats = extend_h_hop(net, g, h, delivered)
    assert (np.isfinite(dist) == np.isfinite(ref)).all()
    mask = np.isfinite(ref)
    assert np.allclose(dist[mask], ref[mask])
    # Lemma 5.1: O(h) rounds per source.
    assert stats.rounds <= g.n * (h + 1)


def test_extension_with_sparse_blockers_exact_when_windows_covered():
    """Blockers every 2 hops on a path: h = 2 windows always hit one."""
    g = graph_of("path")
    ref = reference_of("path")
    net = CongestNetwork(g)
    q_nodes = list(range(0, g.n, 2))
    delivered = delivered_from_reference(g, ref, q_nodes)
    dist, _pred, _ = extend_h_hop(net, g, 2, delivered)
    mask = np.isfinite(ref)
    assert np.allclose(dist[mask], ref[mask])


def test_extension_without_blockers_is_h_hop_only():
    g = graph_of("path")
    ref = reference_of("path")
    net = CongestNetwork(g)
    dist, _pred, _ = extend_h_hop(net, g, 3, {})
    # Row 0: only nodes within 3 hops are reached.
    assert np.isfinite(dist[0, :4]).all()
    assert np.isinf(dist[0, 4:]).all()
    assert dist[0, 3] == pytest.approx(ref[0, 3])


def test_extension_subset_of_sources():
    g = graph_of("er-sparse")
    ref = reference_of("er-sparse")
    net = CongestNetwork(g)
    q_nodes = list(range(g.n))
    delivered = delivered_from_reference(g, ref, q_nodes)
    srcs = [0, 5]
    dist, _pred, _ = extend_h_hop(net, g, 3, delivered, sources=srcs)
    for x in srcs:
        mask = np.isfinite(ref[x])
        assert np.allclose(dist[x][mask], ref[x][mask])
    # Untouched rows stay infinite.
    assert np.isinf(dist[1]).all()


def test_extension_stale_upper_bounds_never_undershoot():
    """Delivered values that are upper bounds (not exact) can only yield
    distances >= the truth — extension never invents shorter paths."""
    g = graph_of("er-sparse")
    ref = reference_of("er-sparse")
    net = CongestNetwork(g)
    q_nodes = list(range(0, g.n, 2))
    delivered = delivered_from_reference(g, ref, q_nodes)
    for c in delivered:
        for x in delivered[c]:
            d, k, tb = delivered[c][x]
            delivered[c][x] = (d + 0.5, k, tb)  # inflate
    dist, _pred, _ = extend_h_hop(net, g, 3, delivered)
    mask = np.isfinite(ref)
    assert (dist[mask] >= ref[mask] - 1e-9).all()
