"""CSSSP construction: Definition A.3 properties and tree invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.congest import CongestNetwork
from repro.congest.compressed import stacked_trees
from repro.csssp import build_csssp
from repro.graphs import erdos_renyi
from repro.graphs.reference import h_hop_labels

from conftest import GRAPH_KINDS, collection_of, graph_of


def true_labels(g, x, reverse=False):
    """Unconstrained lexicographic optimum labels (h = n is enough)."""
    return h_hop_labels(g, x, g.n, reverse=reverse)


def tree_dist(g, t, v, reverse=False):
    """Weight of ``t``'s tree path to ``v``, summed from the root down.

    That is the order Bellman-Ford accumulates labels in, so the sum is
    bit-equal to the label the tree path carries.
    """
    path = t.path_from_root(v)
    d = 0.0
    for above, below in zip(path, path[1:]):
        tail, head = (below, above) if reverse else (above, below)
        d += next(w for u, w, _ in g.out_edges(tail) if u == head)
    return d


@pytest.mark.parametrize("kind", GRAPH_KINDS)
@pytest.mark.parametrize("h", [2, 3])
def test_tree_shape_invariants(kind, h):
    coll = collection_of(kind, h)
    coll.check_tree_shape()
    for x, t in coll.trees.items():
        assert t.root == x and t.depth[x] == 0
        for v in range(t.n):
            assert t.depth[v] <= h


@pytest.mark.parametrize(
    "kind", ["er-sparse", "er-directed", "grid", "path", "er-zero"]
)
@pytest.mark.parametrize("h", [2, 3])
def test_containment_guarantee(kind, h):
    """Definition A.3: true <= h-hop shortest paths are in the tree, exactly."""
    g = graph_of(kind)
    coll = collection_of(kind, h)
    for x in range(g.n):
        labels = true_labels(g, x)
        t = coll.trees[x]
        for v in range(g.n):
            lab = labels[v]
            if lab[0] < math.inf and lab[1] <= h:
                assert t.depth[v] == lab[1], (x, v)
                assert tree_dist(g, t, v) == pytest.approx(lab[0])
                # The tree path is the true shortest path: walk parents and
                # compare against the reference parent chain via labels.
                path = t.path_from_root(v)
                assert path[0] == x and path[-1] == v
                assert len(path) == lab[1] + 1


@pytest.mark.parametrize("kind", ["er-sparse", "grid", "er-directed"])
def test_certified_cross_tree_consistency(kind):
    g = graph_of(kind)
    h = 3
    coll = collection_of(kind, h)
    labels = {x: true_labels(g, x) for x in range(g.n)}

    def certify(x, v):
        lab = labels[x][v]
        t = coll.trees[x]
        return lab[1] == t.depth[v] and abs(lab[0] - tree_dist(g, t, v)) < 1e-12

    coll.check_consistency(certify)


def test_full_consistency_when_h_exceeds_hop_radius():
    # With 2h beyond every hop distance there are no junk nodes at all.
    g = erdos_renyi(16, p=0.4, seed=1)
    net = CongestNetwork(g)
    coll, _ = build_csssp(net, g, range(g.n), h=g.n)
    coll.check_consistency()  # strict mode


@pytest.mark.parametrize("kind", ["er-sparse", "er-directed", "layered"])
def test_in_collection_mirrors_reverse_distances(kind):
    g = graph_of(kind)
    h = 3
    coll = collection_of(kind, h, orientation="in")
    for x in list(coll.trees)[:6]:
        labels = true_labels(g, x, reverse=True)
        t = coll.trees[x]
        for v in range(g.n):
            lab = labels[v]
            if lab[0] < math.inf and lab[1] <= h:
                assert t.depth[v] == lab[1]
                assert tree_dist(g, t, v, reverse=True) == pytest.approx(lab[0])


def test_round_cost_linear_in_sources_and_h():
    g = graph_of("er-sparse")
    net = CongestNetwork(g)
    for h in (2, 4):
        _, stats = build_csssp(net, g, range(g.n), h)
        # 2h+1 (BF) + h+1 (kept flood) + 1 (children) per source, plus slack.
        assert stats.rounds <= g.n * (3 * h + 4)


def test_hyperedges_have_exactly_h_vertices_excluding_root():
    coll = collection_of("er-sparse", 3)
    count = 0
    for x, leaf, vertices in coll.hyperedges():
        count += 1
        assert len(vertices) == 3
        assert x not in vertices or coll.trees[x].depth[x] != 0 or vertices[0] != x
        assert vertices[-1] == leaf
        assert coll.trees[x].depth[leaf] == 3
    assert count == coll.path_count()


def test_subtree_and_mark_removed():
    coll = collection_of("path", 3).copy()
    t = coll.trees[0]  # path graph: tree 0 is 0-1-2-3
    sub = t.subtree(1)
    assert set(sub) == {1, 2, 3}
    detached = t.mark_removed(2)
    assert set(detached) == {2, 3}
    assert t.live(1) and not t.live(2) and not t.live(3)
    assert t.live_children(1) == []
    # Second removal is a no-op on already-removed nodes.
    assert t.mark_removed(2) == []


def test_copy_isolates_removals():
    coll = collection_of("er-sparse", 3)
    dup = coll.copy()
    x = dup.sources[0]
    kids = dup.trees[x].live_children(x)
    if kids:
        dup.trees[x].mark_removed(kids[0])
        assert coll.trees[x].live(kids[0])


def test_copy_shares_structure_and_copies_only_flags():
    coll = collection_of("er-sparse", 3)
    stack, live = stacked_trees(coll)
    dup = coll.copy()
    x = dup.sources[0]
    t, u = coll.trees[x], dup.trees[x]
    assert u.parent is t.parent and u.depth is t.depth
    assert u.children is t.children
    assert dup.parent is coll.parent and dup.depth is coll.depth
    assert not np.shares_memory(u.removed, t.removed)
    assert u.removed.tolist() == t.removed.tolist()
    v = next(v for v in range(coll.n) if t.live(v))
    u.removed[v] = True
    assert not t.removed[v]
    # The copy shares the stacked static state, not the live mask.
    dup_stack, dup_live = stacked_trees(dup)
    assert dup_stack is stack
    assert not dup_live[stack.row_of[x], v] and live[stack.row_of[x], v]


def test_compressed_build_keeps_one_store():
    """The planes and the ``removed`` array are the only tree store."""
    g = graph_of("er-sparse")
    coll, _ = build_csssp(CongestNetwork(g, compress=True), g, range(g.n), 3)
    stack, _ = stacked_trees(coll)
    assert np.shares_memory(stack.parent, coll.parent)
    assert np.shares_memory(stack.depth, coll.depth)
    x = coll.sources[1]
    i = stack.row_of[x]
    t = coll.trees[x]
    assert t.removed.base is coll.removed
    v = next(v for v in range(coll.n) if t.live(v))
    t.removed[v] = True
    assert coll.removed[i, v]
    _, live = stacked_trees(coll)
    assert not live[i, v]
    assert live.sum() == stack.member.sum() - 1
    assert t.children == [
        [c for c in range(coll.n) if t.parent[c] == u] for u in range(coll.n)]


def test_reset_removals():
    coll = collection_of("er-sparse", 3).copy()
    x = coll.sources[0]
    kids = coll.trees[x].live_children(x)
    if kids:
        coll.trees[x].mark_removed(kids[0])
    coll.reset_removals()
    assert coll.path_count() == collection_of("er-sparse", 3).path_count()


def test_bad_orientation_and_h_rejected():
    g = graph_of("er-sparse")
    net = CongestNetwork(g)
    with pytest.raises(ValueError):
        build_csssp(net, g, [0], h=0)
    from repro.csssp.collection import CSSSPCollection

    with pytest.raises(ValueError):
        CSSSPCollection(g, 2, [], [], [], orientation="sideways")


@pytest.mark.parametrize("compress", [False, True])
def test_bad_orientation_rejected_before_any_phase(compress):
    g = graph_of("er-sparse")
    net = CongestNetwork(g, compress=compress)
    with pytest.raises(ValueError, match="orientation 'In'"):
        build_csssp(net, g, range(g.n), 2, orientation="In")
    assert net.total.rounds == 0 and net.total.messages == 0


@given(n=st.integers(6, 20), seed=st.integers(0, 300), h=st.integers(1, 4))
@settings(max_examples=15, deadline=None)
def test_containment_property(n, seed, h):
    g = erdos_renyi(n, p=0.3, seed=seed)
    net = CongestNetwork(g)
    coll, _ = build_csssp(net, g, range(n), h)
    coll.check_tree_shape()
    for x in range(0, n, max(1, n // 4)):
        labels = h_hop_labels(g, x, n)
        t = coll.trees[x]
        for v in range(n):
            if labels[v][0] < math.inf and labels[v][1] <= h:
                assert t.depth[v] == labels[v][1]


def test_check_consistency_detects_injected_divergence():
    """The strict checker must catch trees that disagree on a shared path.

    Hand-built collection on the 4-cycle 0-1-2-3: T_0 routes 0->2 via 1,
    T_2's mirror is consistent; corrupting T_1 to claim the 1->...->3 path
    runs 1-0-3 while T_0 implies 0->3 is the direct edge makes the shared
    segment (0, 3) diverge.
    """
    from repro.csssp.collection import CSSSPCollection
    from repro.graphs.spec import Graph

    g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])

    def tree(root, parent):
        depth = [0] * 4
        for v in range(4):
            d, u = 0, v
            while u != root:
                u = parent[u]
                d += 1
            depth[v] = d
        return root, parent, depth

    def collection(h, *trees):
        roots, parents, depths = zip(*trees)
        return CSSSPCollection(g, h, roots, parents, depths)

    t0 = tree(0, [-1, 0, 1, 0])        # 0->3 is the direct edge
    t1 = tree(1, [1, -1, 1, 0])        # 1->0->3: contains segment (0, 3)
    coll = collection(2, t0, t1)
    coll.check_tree_shape()
    coll.check_consistency()  # consistent so far: (0,3) is (0,3) in both

    # Corrupt T_1: route 3 under 2 instead, so its (1..3) path changes and
    # the shared (1, 2) prefix stays but a new (2, 3) segment appears that
    # conflicts with T_0?  Build the conflict on (0, 3): T_1 now claims
    # 0->3 goes 0-1-2-3 by rerouting 3 under 2 while keeping 0 an ancestor.
    t1_bad = tree(1, [1, -1, 1, 2])    # path to 3: 1-2-3, no (0,3) anymore
    # Conflict via (1, 3): T_1-bad says 1-2-3; make another tree claim 1-0-3:
    t2 = tree(2, [1, 2, -1, 0])        # paths: 2-1-0-3 => segment (1, 3) = 1-0-3
    coll = collection(3, t1_bad, t2)
    with pytest.raises(AssertionError):
        coll.check_consistency()
