"""Property tests for the convergecast schedule math.

The round formulas in :mod:`repro.congest.compressed`
(:func:`aggregate_rounds`, :func:`pipelined_sum_rounds`, the upcast
simulator) claim to predict the engine's round accounting from the tree
shape alone.  Here random trees — arbitrary shapes, heights and batch
sizes, not just BFS trees of nice graphs — are run through both paths:
the compressed formula must equal the simulated (message-level) rounds,
message counts and per-node sends on every tree.

Generators follow the hand-rolled seeded-random idiom of
``tests/test_closure.py``; a hypothesis block widens the net when
hypothesis is installed.
"""

from __future__ import annotations

import random

import pytest

from repro.blocker.scores import subtree_sums
from repro.congest.compressed import (
    aggregate_rounds,
    max_internal_depth,
    pipelined_sum_rounds,
    subtree_heights,
)
from repro.congest.network import CongestNetwork
from repro.csssp.collection import CSSSPCollection
from repro.graphs.spec import Graph
from repro.primitives.bfs import BFSTree
from repro.primitives.broadcast import gather_and_broadcast
from repro.primitives.convergecast import (
    aggregate_and_broadcast,
    pipelined_vector_sum,
)


def random_tree(seed: int, max_n: int = 24):
    """A random rooted tree as (communication graph, BFSTree-style record).

    Node ``v >= 1`` attaches to a uniformly random earlier node, so
    shapes range from paths (height n-1) to stars (height 1) — the tree
    need not be a BFS tree of anything for the engine to run it.
    """
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    parent = [-1] * n
    depth = [0] * n
    children = [[] for _ in range(n)]
    for v in range(1, n):
        p = rng.randrange(v) if rng.random() < 0.7 else v - 1
        parent[v] = p
        depth[v] = depth[p] + 1
        children[p].append(v)
    graph = Graph(
        n,
        [(v, parent[v], 1.0 + (v % 3)) for v in range(1, n)],
        seed=seed,
    )
    tree = BFSTree(root=0, parent=parent, depth=depth,
                   children=[sorted(c) for c in children],
                   height=max(depth))
    return graph, tree, rng


def stats_tuple(stats):
    return (stats.rounds, stats.messages, stats.per_node_sent)


def check_tree(seed: int) -> None:
    graph, tree, rng = random_tree(seed)
    net_m = CongestNetwork(graph, bandwidth=2)
    net_c = CongestNetwork(graph, bandwidth=2, compress=True)

    # aggregate: formula rounds == engine rounds, result bit-identical
    values = [(rng.uniform(-1, 1), v) for v in range(graph.n)]
    res_m, s_m = aggregate_and_broadcast(
        net_m, tree, values, lambda a, b: (a[0] + b[0], max(a[1], b[1])))
    res_c, s_c = aggregate_and_broadcast(
        net_c, tree, values, lambda a, b: (a[0] + b[0], max(a[1], b[1])))
    assert res_m == res_c
    assert stats_tuple(s_m) == stats_tuple(s_c)
    dint = max_internal_depth(tree.children, tree.depth)
    assert s_m.rounds == aggregate_rounds(graph.n, tree.height, dint)

    # pipelined sum: every batch size, both result modes
    for n_comp in (0, 1, rng.randint(2, 9)):
        vectors = [[rng.uniform(0, 5) for _ in range(n_comp)]
                   for _ in range(graph.n)]
        for bcast in (False, True):
            t_m, p_m = pipelined_vector_sum(net_m, tree, vectors, bcast)
            t_c, p_c = pipelined_vector_sum(net_c, tree, vectors, bcast)
            assert t_m == t_c
            assert stats_tuple(p_m) == stats_tuple(p_c)
            assert p_m.rounds == pipelined_sum_rounds(
                graph.n, tree.height, n_comp, dint, bcast)

    # gather/broadcast: the upcast simulator against the engine
    items = [[(v, i) for i in range(rng.randrange(0, 3))]
             for v in range(graph.n)]
    r_m, g_m = gather_and_broadcast(net_m, tree, items)
    r_c, g_c = gather_and_broadcast(net_c, tree, items)
    assert r_m == r_c
    assert stats_tuple(g_m) == stats_tuple(g_c)

    # subtree-sum convergecast on a TreeView with random prunes and a
    # random hop budget h >= height (the CSSSP invariant)
    h = tree.height + rng.randint(0, 3)
    coll = CSSSPCollection(graph, max(h, 1), [0], [tree.parent], [tree.depth])
    view = coll.trees[0]
    assert view.children == [sorted(c) for c in tree.children]
    for _ in range(rng.randrange(0, 3)):
        z = rng.randrange(graph.n)
        if view.depth[z] >= 1 and not view.removed[z]:
            view.mark_removed(z)
    values = [rng.uniform(0, 3) for _ in range(graph.n)]
    u_m, q_m = subtree_sums(net_m, coll, 0, values)
    u_c, q_c = subtree_sums(net_c, coll, 0, values)
    assert u_m == u_c
    assert stats_tuple(q_m) == stats_tuple(q_c)

    # the subtree-height helper agrees with the tree's own bookkeeping
    heights = subtree_heights(tree.children, tree.root)
    assert heights[tree.root] == tree.height


@pytest.mark.parametrize("seed", range(15))
def test_schedule_formulas_on_random_trees(seed):
    check_tree(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(15, 60))
def test_schedule_formulas_on_random_trees_full(seed):
    check_tree(seed)


# ---------------------------------------------------------------------------
# Step-6 round-robin pipeline: frame counts and round replay


def random_qsink_instance(seed: int, max_n: int = 20):
    """A random pruned in-CSSSP + random per-(source, sink) values.

    Random graphs (via the registry families), random blocker-style sink
    sets, random prunes and a random value pattern — the inputs whose
    frame structure the Step-6 schedule math must predict.
    """
    from repro.csssp.builder import build_csssp
    from repro.csssp.pruning import remove_subtrees_sequential
    from repro.experiments.registry import make_graph

    rng = random.Random(seed)
    family = rng.choice(["er", "grid", "path", "star", "ws"])
    n = rng.randint(6, max_n)
    graph = make_graph(family, n, seed % 5 + 1)
    n = graph.n
    net = CongestNetwork(graph, strict=False)
    sinks = sorted(rng.sample(range(n), rng.randint(1, max(1, n // 3))))
    coll, _ = build_csssp(net, graph, sinks, rng.randint(2, 4),
                          orientation="in")
    for _ in range(rng.randrange(0, 3)):
        remove_subtrees_sequential(
            net, coll, rng.sample(range(n), rng.randrange(1, 3)))
    values = []
    for x in range(n):
        row = {}
        for c, t in coll.trees.items():
            if t.live(x) and rng.random() < 0.75:
                row[c] = (float(rng.randint(0, 20)), rng.randint(1, 5),
                          rng.randint(1, 1 << 30))
        values.append(row)
    return graph, coll, values


def check_round_robin_schedule(seed: int) -> None:
    """The pipeline replay against the engine and the frame-sum formulas."""
    from repro.pipeline.short_range import round_robin_pipeline

    graph, coll, values = random_qsink_instance(seed)
    n = graph.n
    net_m = CongestNetwork(graph, track_edges=True)
    net_c = CongestNetwork(graph, track_edges=True, compress=True)
    coll_c = coll.copy()
    dm, sm, tm = round_robin_pipeline(net_m, coll, values)
    dc, sc, tc = round_robin_pipeline(net_c, coll_c, values)
    assert dm == dc
    assert stats_tuple(sm) == stats_tuple(sc)
    assert sm.per_edge_sent == sc.per_edge_sent

    # Frame-structure formulas (independent of the service order): every
    # queued record climbs its sink tree once, so total messages are the
    # sum of queue depths and node v forwards exactly the records whose
    # tree path crosses v.
    expect_msgs = 0
    expect_sent = [0] * n
    for x in range(n):
        for c in values[x]:
            t = coll.trees[c]
            if x == c or not t.live(x):
                continue
            path = t.path_from_root(x)  # c .. x
            expect_msgs += len(path) - 1
            for v in path[1:]:  # every node below the sink forwards it
                expect_sent[v] += 1
    assert sm.messages == expect_msgs
    assert sm.per_node_sent == {
        v: c for v, c in enumerate(expect_sent) if c
    }
    # The sink received every record: the trace's load conservation.
    assert sum(tm.initial_load) == sum(
        1 for x in range(n) for c in values[x]
        if x != c and coll.trees[c].live(x)
    )


@pytest.mark.parametrize("seed", range(12))
def test_round_robin_schedule_on_random_instances(seed):
    check_round_robin_schedule(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(12, 60))
def test_round_robin_schedule_on_random_instances_full(seed):
    check_round_robin_schedule(seed)


# ---------------------------------------------------------------------------
# hypothesis property test (skipped when hypothesis is not installed)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI installs numpy+pytest only
    HAVE_HYPOTHESIS = False

if HAVE_HYPOTHESIS:

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_property_schedule_formulas(seed):
        check_tree(seed)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_property_round_robin_schedule(seed):
        """Step-6 schedule math on hypothesis-drawn graphs/blocker sets."""
        check_round_robin_schedule(seed)
