"""Subtree-removal protocols: Algorithm 6 and the pipelined pruner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.congest import CongestNetwork
from repro.congest.compressed import stacked_trees
from repro.csssp import ParallelPruner, remove_subtrees_sequential
from repro.blocker.scores import compute_scores, leaf_indicators, subtree_sums

from conftest import collection_of, graph_of


def centralized_removed_state(coll, roots):
    """Apply the same removals with the centralized helper."""
    ref = coll.copy()
    for x, t in ref.trees.items():
        for z in roots:
            if t.depth[z] >= 1 and not t.removed[z]:
                t.mark_removed(z)
    return ref


def centralized_subtree_sums(coll, x, values):
    t = coll.trees[x]
    out = [0.0] * coll.n
    for v in range(coll.n):
        if t.live(v):
            out[v] = sum(values[u] for u in t.subtree(v))
    return out


@pytest.mark.parametrize("kind", ["er-sparse", "grid", "path", "star", "er-directed"])
def test_sequential_removal_matches_centralized(kind):
    g = graph_of(kind)
    base = collection_of(kind, 3)
    coll = base.copy()
    net = CongestNetwork(g)
    roots = [1, g.n // 2, g.n - 2]
    stats = remove_subtrees_sequential(net, coll, roots)
    ref = centralized_removed_state(base, roots)
    for x in coll.trees:
        assert np.array_equal(coll.trees[x].removed, ref.trees[x].removed), f"tree {x}"
    # Algorithm 6 cost: at most h rounds per tree with any removal work.
    assert stats.rounds <= len(coll.trees) * (coll.h + 1)


def test_sequential_removal_skips_roots_at_depth_zero():
    coll = collection_of("path", 3).copy()
    g = graph_of("path")
    net = CongestNetwork(g)
    remove_subtrees_sequential(net, coll, [0])
    # Node 0 is root of T_0: not removed there...
    assert coll.trees[0].live(0)
    # ...but removed (with its subtree) wherever it sits at depth >= 1.
    t1 = coll.trees[1]
    assert t1.depth[0] == 1 and not t1.live(0)


def test_sequential_removal_idempotent():
    g = graph_of("er-sparse")
    coll = collection_of("er-sparse", 3).copy()
    net = CongestNetwork(g)
    remove_subtrees_sequential(net, coll, [3])
    snapshot = {x: t.removed.tolist() for x, t in coll.trees.items()}
    stats = remove_subtrees_sequential(net, coll, [3])
    assert {x: t.removed.tolist() for x, t in coll.trees.items()} == snapshot
    assert stats.rounds == 0  # nothing live to remove -> no phases run


@pytest.mark.parametrize("kind", ["er-sparse", "grid", "star", "broom"])
def test_parallel_pruner_matches_sequential_and_keeps_aggregates(kind):
    g = graph_of(kind)
    base = collection_of(kind, 3)
    net = CongestNetwork(g)

    coll = base.copy()
    agg = {
        x: centralized_subtree_sums(base, x, leaf_indicators(base, x))
        for x in base.trees
    }
    pruner = ParallelPruner(net, coll, agg)

    # Initial totals equal the centralized score definition.
    def expected_totals(ref):
        totals = [0.0] * ref.n
        for x, t in ref.trees.items():
            sums = centralized_subtree_sums(ref, x, leaf_indicators(ref, x))
            for v in range(ref.n):
                if t.live(v) and t.depth[v] >= 1:
                    totals[v] += sums[v]
        return totals

    assert pruner.totals == pytest.approx(expected_totals(base))

    victims = [v for v in (2, 5, g.n - 3) if 0 <= v < g.n]
    removed_so_far = []
    for z in victims:
        pruner.remove([z])
        removed_so_far.append(z)
        ref = centralized_removed_state(base, removed_so_far)
        for x in coll.trees:
            assert np.array_equal(coll.trees[x].removed, ref.trees[x].removed), (z, x)
        # Aggregates stay exact for live nodes after every removal.
        for x, t in coll.trees.items():
            expect = centralized_subtree_sums(ref, x, leaf_indicators(ref, x))
            for v in range(g.n):
                if t.live(v):
                    assert agg[x][v] == pytest.approx(expect[v]), (z, x, v)
        assert pruner.totals == pytest.approx(expected_totals(ref))


def test_parallel_pruner_batch_removal_nested_roots():
    """Removing an ancestor and its descendant together must not
    double-subtract (the absorption rule)."""
    g = graph_of("path")
    base = collection_of("path", 4)
    net = CongestNetwork(g)
    coll = base.copy()
    agg = {x: centralized_subtree_sums(base, x, leaf_indicators(base, x))
           for x in base.trees}
    pruner = ParallelPruner(net, coll, agg)
    # In T_0 of a path graph, 2 is an ancestor of 3.
    pruner.remove([2, 3])
    ref = centralized_removed_state(base, [2, 3])
    for x in coll.trees:
        assert np.array_equal(coll.trees[x].removed, ref.trees[x].removed)
    def expected_totals(ref):
        totals = [0.0] * ref.n
        for x, t in ref.trees.items():
            sums = centralized_subtree_sums(ref, x, leaf_indicators(ref, x))
            for v in range(ref.n):
                if t.live(v) and t.depth[v] >= 1:
                    totals[v] += sums[v]
        return totals
    assert pruner.totals == pytest.approx(expected_totals(ref))


def test_parallel_pruner_rounds_linear_not_quadratic():
    """One pick costs O(n + h) rounds — the [2] greedy cleanup budget."""
    kind = "er-sparse"
    g = graph_of(kind)
    base = collection_of(kind, 3)
    net = CongestNetwork(g)
    coll = base.copy()
    agg = {x: centralized_subtree_sums(base, x, leaf_indicators(base, x))
           for x in base.trees}
    pruner = ParallelPruner(net, coll, agg)
    stats = pruner.remove([g.n // 2])
    assert stats.rounds <= g.n + coll.h + 4


def test_subtree_sums_respect_removals():
    g = graph_of("er-sparse")
    base = collection_of("er-sparse", 3)
    net = CongestNetwork(g)
    coll = base.copy()
    x = coll.sources[0]
    values = leaf_indicators(coll, x)
    before, _ = subtree_sums(net, coll, x, values)
    assert before == pytest.approx(centralized_subtree_sums(coll, x, values))
    kids = coll.trees[x].live_children(x)
    if kids:
        coll.trees[x].mark_removed(kids[0])
        values = leaf_indicators(coll, x)
        after, _ = subtree_sums(net, coll, x, values)
        assert after == pytest.approx(centralized_subtree_sums(coll, x, values))
        assert after[kids[0]] == 0.0


def test_every_removal_path_keeps_the_live_mask_in_step():
    """Compressed and message-level removals share one collection's mask.

    Every writer flips ``removed`` flags: the stacked removal in bulk, the
    engine's removal programs, the parallel pruner (both modes),
    ``mark_removed``, ``reset_removals`` and a plain item assignment.
    Either way the next compressed phase must read the state the flags
    hold.  One network toggles its ``compress`` flag between calls, so
    both tiers write the same collection.
    """
    g = graph_of("er-sparse")
    coll = collection_of("er-sparse", 3).copy()
    net = CongestNetwork(g, compress=True)
    compute_scores(net, coll)  # builds the stacked mask

    def check():
        stack, live = stacked_trees(coll)
        for i, x in enumerate(stack.xs):
            t = coll.trees[x]
            assert live[i].tolist() == [t.live(v) for v in range(coll.n)]
        net.compress = True
        score, _, _ = compute_scores(net, coll, per_tree=False)
        net.compress = False
        ref, _, _ = compute_scores(net, coll, per_tree=False)
        assert score == ref

    net.compress = True
    remove_subtrees_sequential(net, coll, [1])
    check()
    net.compress = False
    remove_subtrees_sequential(net, coll, [g.n // 2])
    check()
    net.compress = True
    _, per_tree, _ = compute_scores(net, coll)
    pruner = ParallelPruner(net, coll, per_tree)
    net.compress = False
    pruner.remove([g.n - 2])
    check()
    net.compress = True
    pruner.remove([3])
    check()
    x = coll.sources[0]
    kids = coll.trees[x].live_children(x)
    if kids:
        coll.trees[x].mark_removed(kids[0])
    check()
    t = coll.trees[coll.sources[-1]]
    t.removed[next(v for v in range(coll.n)
                   if t.live(v) and not t.live_children(v))] = True
    check()
    coll.reset_removals()
    check()

