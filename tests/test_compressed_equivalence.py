"""Differential harness: round-compressed vs message-level execution.

Every ported phase must be an *equivalent execution* of its message-level
oracle: identical results (distances, trees, aggregates — bit for bit,
including float summation order), identical total round counts, and
identical :class:`~repro.congest.metrics.RoundStats` aggregates (messages,
per-node congestion, and — under ``track_edges`` — per-edge loads).

A fast subset (two families, one seed, plus the tie-heavy weight models
for the batched Bellman-Ford solver) runs in tier-1; the full family x
seed matrix carries the ``slow`` marker and runs in the non-blocking CI
equivalence job (``pytest -m slow``).  Two slices of it also run in the
blocking tier-1 CI job: the Bellman-Ford solver and its consumers (CSSSP,
deterministic APSP, reversed q-sink, relay join, Step-7 extension); and
Step 2 (the blocker constructions and their compute-pi, score,
subtree-removal and batched convergecast phases).
"""

from __future__ import annotations

import importlib
import random

import numpy as np
import pytest

from repro.apsp import deterministic_apsp
from repro.blocker.derandomized import deterministic_blocker_set
from repro.blocker.helpers import collect_ancestors, compute_vi_counts
from repro.blocker.randomized import BlockerParams, randomized_blocker_set
from repro.blocker.scores import compute_scores, subtree_sums
from repro.congest.compressed import stacked_trees
from repro.congest.metrics import PhaseLog
from repro.congest.network import CongestNetwork
from repro.csssp.builder import build_csssp
from repro.csssp.pruning import ParallelPruner, remove_subtrees_sequential
from repro.experiments.registry import ALGORITHMS, make_graph
from repro.graphs.spec import ZERO_COST, Graph
from repro.pipeline.bottleneck import message_counts
from repro.pipeline.broadcast_delivery import broadcast_delivery
from repro.pipeline.extension import extend_h_hop
from repro.pipeline.relay import relay_join
from repro.pipeline.reversed_qsink import reversed_qsink
from repro.pipeline.short_range import round_robin_pipeline, short_range_delivery
from repro.primitives.bellman_ford import (
    bellman_ford,
    bellman_ford_many,
    notify_children,
)
from repro.primitives.bfs import build_bfs_tree
from repro.primitives.broadcast import broadcast_from_root, gather_and_broadcast
from repro.primitives.convergecast import (
    aggregate_and_broadcast,
    pipelined_vector_sum,
)

from conftest import beta_per_tree

FAST_FAMILIES = ["er", "grid"]
FULL_FAMILIES = ["er", "er-directed", "ws", "grid", "star", "path", "ring",
                 "complete", "ba"]
FAST_SEEDS = [1]
FULL_SEEDS = [1, 2, 3]
# Weight models under which most path comparisons tie on weight, so the
# hop count and tie-break decide (``zero`` exists only on the er families).
TIE_WEIGHTS = ["unit", "zero", "near-tie"]


def cases(sizes=(17,)):
    """family x seed x n params; non-fast combinations carry ``slow``."""
    out = []
    for family in FULL_FAMILIES:
        for seed in FULL_SEEDS:
            for n in sizes:
                fast = family in FAST_FAMILIES and seed in FAST_SEEDS
                marks = () if fast else (pytest.mark.slow,)
                out.append(pytest.param(family, seed, n, marks=marks,
                                        id=f"{family}-s{seed}-n{n}"))
    return out


def weighted_cases(sizes=(17,)):
    """:func:`cases` on uniform weights, plus the tie-heavy models in tier-1.

    The uniform cases keep their ids; the er families at seed 1 add one
    fast case per :data:`TIE_WEIGHTS` model.
    """
    out = [pytest.param(*p.values, "uniform", marks=p.marks, id=p.id)
           for p in cases(sizes)]
    for family in ("er", "er-directed"):
        for weights in TIE_WEIGHTS:
            for n in sizes:
                out.append(pytest.param(family, 1, n, weights,
                                        id=f"{family}-{weights}-s1-n{n}"))
    return out


def nets(graph, track_edges=False):
    """A (message-level oracle, compressed) network pair."""
    return (
        CongestNetwork(graph, track_edges=track_edges),
        CongestNetwork(graph, track_edges=track_edges, compress=True),
    )


def assert_stats_equal(oracle, compressed, what=""):
    assert oracle.rounds == compressed.rounds, f"{what}: rounds diverged"
    assert oracle.messages == compressed.messages, f"{what}: messages diverged"
    assert oracle.per_node_sent == compressed.per_node_sent, (
        f"{what}: per-node sends diverged"
    )
    assert oracle.per_edge_sent == compressed.per_edge_sent, (
        f"{what}: per-edge sends diverged"
    )
    assert oracle.max_node_congestion == compressed.max_node_congestion


def assert_logs_equal(log_m, log_c, what=""):
    """Ledger by ledger: every phase's label, rounds, messages and sends."""
    entries_m, entries_c = list(log_m), list(log_c)
    assert [label for label, _ in entries_m] == [
        label for label, _ in entries_c], f"{what}: phase labels diverged"
    for k, ((label, sm), (_, sc)) in enumerate(zip(entries_m, entries_c)):
        assert_stats_equal(sm, sc, f"{what}: phase {k} ({label})")


def assert_live_mask_matches(coll):
    """The compressed tier's stacked live mask equals every tree's flags."""
    stack, live = stacked_trees(coll)
    for i, x in enumerate(stack.xs):
        t = coll.trees[x]
        assert live[i].tolist() == [
            t.depth[v] >= 0 and not t.removed[v] for v in range(coll.n)
        ], f"tree {x}: live mask and removed flags diverged"


def build_collection_pair(graph, h=3, removals=0, seed=0, track_edges=False):
    """Identical CSSSP collections on both engines, optionally pruned."""
    net_m, net_c = nets(graph, track_edges=track_edges)
    coll_m, _ = build_csssp(net_m, graph, range(graph.n), h)
    coll_c = coll_m.copy()
    rng = random.Random(seed)
    for _ in range(removals):
        roots = rng.sample(range(graph.n), rng.randrange(1, 4))
        remove_subtrees_sequential(net_m, coll_m, roots)
        for x in coll_c.trees:
            for v in range(graph.n):
                coll_c.trees[x].removed[v] = coll_m.trees[x].removed[v]
    return net_m, net_c, coll_m, coll_c


# ---------------------------------------------------------------------------
# tree primitives


@pytest.mark.parametrize("family,seed,n", cases())
def test_bfs_tree_equivalent(family, seed, n):
    graph = make_graph(family, n, seed)
    net_m, net_c = nets(graph, track_edges=True)
    tree_m, stats_m = build_bfs_tree(net_m)
    tree_c, stats_c = build_bfs_tree(net_c)
    assert (tree_m.parent, tree_m.depth, tree_m.children, tree_m.height) == (
        tree_c.parent, tree_c.depth, tree_c.children, tree_c.height)
    assert_stats_equal(stats_m, stats_c, "bfs")


@pytest.mark.parametrize("family,seed,n", cases())
def test_aggregate_equivalent_incl_float_order(family, seed, n):
    graph = make_graph(family, n, seed)
    net_m, net_c = nets(graph)
    tree, _ = build_bfs_tree(net_m)
    # Non-commutative in floats: 0.1 has no exact double, so the combine
    # order is observable — the compressed fold must replay it exactly.
    values = [(0.1 * ((v * 7) % 5 + 1), v) for v in range(graph.n)]

    def combine(a, b):
        return (a[0] + b[0], min(a[1], b[1]))

    res_m, stats_m = aggregate_and_broadcast(net_m, tree, values, combine)
    res_c, stats_c = aggregate_and_broadcast(net_c, tree, values, combine)
    assert res_m == res_c  # bit-identical float sum
    assert_stats_equal(stats_m, stats_c, "aggregate")


@pytest.mark.parametrize("family,seed,n", cases())
@pytest.mark.parametrize("bcast", [False, True])
def test_pipelined_sum_equivalent(family, seed, n, bcast):
    graph = make_graph(family, n, seed)
    net_m, net_c = nets(graph, track_edges=True)
    tree, _ = build_bfs_tree(net_m)
    rng = random.Random(seed * 31 + n)
    vectors = [[rng.uniform(-2.0, 7.0) for _ in range(11)]
               for _ in range(graph.n)]
    tot_m, stats_m = pipelined_vector_sum(net_m, tree, vectors, bcast)
    tot_c, stats_c = pipelined_vector_sum(net_c, tree, vectors, bcast)
    assert tot_m == tot_c  # bit-identical float totals
    assert_stats_equal(stats_m, stats_c, "pipelined-sum")


@pytest.mark.parametrize("family,seed,n", cases())
def test_gather_broadcast_equivalent(family, seed, n):
    graph = make_graph(family, n, seed)
    net_m, net_c = nets(graph, track_edges=True)
    tree, _ = build_bfs_tree(net_m)
    rng = random.Random(seed * 17 + n)
    items = [[(v, i) for i in range(rng.randrange(0, 4))]
             for v in range(graph.n)]
    recv_m, stats_m = gather_and_broadcast(net_m, tree, items)
    recv_c, stats_c = gather_and_broadcast(net_c, tree, items)
    assert recv_m == recv_c  # same items in the same (root) order, per node
    assert_stats_equal(stats_m, stats_c, "gather")

    root_m, rstats_m = broadcast_from_root(net_m, tree, [(1, 2), (3, 4)])
    root_c, rstats_c = broadcast_from_root(net_c, tree, [(1, 2), (3, 4)])
    assert root_m == root_c
    assert_stats_equal(rstats_m, rstats_c, "broadcast-from-root")


# ---------------------------------------------------------------------------
# Bellman-Ford family (Steps 1 / 3 / 7)


@pytest.mark.parametrize("family,seed,n", cases())
@pytest.mark.parametrize("reverse", [False, True])
def test_bellman_ford_equivalent(family, seed, n, reverse):
    graph = make_graph(family, n, seed)
    net_m, net_c = nets(graph, track_edges=True)
    for h in (1, 3, None):
        res_m = bellman_ford(net_m, graph, seed % graph.n, h=h, reverse=reverse)
        res_c = bellman_ford(net_c, graph, seed % graph.n, h=h, reverse=reverse)
        assert res_m.label == res_c.label  # bit-identical lexicographic labels
        assert res_m.parent == res_c.parent
        assert res_m.dist == res_c.dist and res_m.hops == res_c.hops
        assert_stats_equal(res_m.rounds, res_c.rounds, f"bf(h={h})")
    assert_stats_equal(net_m.total, net_c.total, "bf network totals")


@pytest.mark.parametrize("family,seed,n", cases())
def test_bellman_ford_multi_init_equivalent(family, seed, n):
    graph = make_graph(family, n, seed)
    net_m, net_c = nets(graph)
    rng = random.Random(seed)
    inits = {0: ZERO_COST}
    for c in rng.sample(range(1, graph.n), min(4, graph.n - 1)):
        inits[c] = (float(rng.randint(0, 9)), rng.randint(1, 5),
                    rng.randint(1, 1 << 40))
    kw = dict(h=2, inits=inits, fill_equal_parent=True)
    res_m = bellman_ford(net_m, graph, 0, **kw)
    res_c = bellman_ford(net_c, graph, 0, **kw)
    assert res_m.label == res_c.label and res_m.parent == res_c.parent
    assert_stats_equal(res_m.rounds, res_c.rounds, "bf multi-init")


def chain_drops(graph, coll, h):
    """Nodes with a finite label within ``h`` hops that truncation dropped."""
    bf = bellman_ford_many(CongestNetwork(graph, strict=False), graph,
                           list(coll.trees), h=2 * h)
    return sum(1 for res in bf for v in range(graph.n)
               if 0 < res.hops[v] <= h and coll.trees[res.source].depth[v] < 0)


@pytest.mark.parametrize("family,seed,n,weights", weighted_cases())
def test_csssp_build_equivalent(family, seed, n, weights):
    graph = make_graph(family, n, seed, weights)
    net_m, net_c = nets(graph, track_edges=True)
    coll_m, stats_m = build_csssp(net_m, graph, range(graph.n), 2)
    coll_c, stats_c = build_csssp(net_c, graph, range(graph.n), 2)
    for x in coll_m.trees:
        tm, tc = coll_m.trees[x], coll_c.trees[x]
        assert (tm.parent, tm.depth, tm.children) == (
            tc.parent, tc.depth, tc.children)
    assert_stats_equal(stats_m, stats_c, "csssp")
    assert_stats_equal(net_m.total, net_c.total, "csssp network totals")
    if (family, seed, n, weights) == ("er", 1, 17, "zero"):
        # Zero weights make a lighter path with more hops common, so the
        # chain-drop rule fires here (the other tier-1 cases drop none).
        assert chain_drops(graph, coll_m, 2) >= 1
    children_m, nstats_m = notify_children(net_m, coll_m.trees[0].parent)
    children_c, nstats_c = notify_children(net_c, coll_c.trees[0].parent)
    assert children_m == children_c
    assert_stats_equal(nstats_m, nstats_c, "notify-children")


def test_csssp_drops_the_subtree_of_a_broken_chain():
    """A node whose own chain holds still goes when its parent goes.

    From root 0, node 1 first gets ``(10, 1 hop)`` and passes it on to
    2 and then 3; at hop 6 = 2h it finds the light path through 4..8,
    which uses up its budget, so 2 never hears of it.  2's chain breaks
    (its parent's final label has 6 hops), and 3, whose chain to 2 is
    intact, must be dropped with it.
    """
    chain = [(0, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 1)]
    graph = Graph(9, [(0, 1, 10.0), (1, 2, 1.0), (2, 3, 1.0)]
                  + [(u, v, 0.125) for u, v in chain])
    net_m, net_c = nets(graph, track_edges=True)
    coll_m, stats_m = build_csssp(net_m, graph, range(graph.n), 3)
    coll_c, stats_c = build_csssp(net_c, graph, range(graph.n), 3)
    for x in coll_m.trees:
        tm, tc = coll_m.trees[x], coll_c.trees[x]
        assert (tm.parent, tm.depth, tm.children) == (
            tc.parent, tc.depth, tc.children)
    assert_stats_equal(stats_m, stats_c, "csssp")
    res = bellman_ford(CongestNetwork(graph), graph, 0, h=6)
    assert (res.hops[2], res.hops[3], res.parent[3]) == (2, 3, 2)
    assert coll_c.trees[0].depth[2] == coll_c.trees[0].depth[3] == -1


# ---------------------------------------------------------------------------
# Step-2 tree phases over a (partially pruned) collection


@pytest.mark.parametrize("family,seed,n", cases())
@pytest.mark.parametrize("removals", [0, 2])
def test_ancestors_and_vi_counts_equivalent(family, seed, n, removals):
    graph = make_graph(family, n, seed)
    net_m, net_c, coll_m, coll_c = build_collection_pair(
        graph, removals=removals, seed=seed)
    anc_m, stats_m = collect_ancestors(net_m, coll_m)
    anc_c, stats_c = collect_ancestors(net_c, coll_c)
    assert anc_m == anc_c
    assert_stats_equal(stats_m, stats_c, "ancestors")

    vi = set(random.Random(seed).sample(range(graph.n), graph.n // 3 + 1))
    beta_m, vstats_m = compute_vi_counts(net_m, coll_m, vi)
    beta_c, vstats_c = compute_vi_counts(net_c, coll_c, vi)
    assert beta_per_tree(beta_m) == beta_per_tree(beta_c)
    assert_stats_equal(vstats_m, vstats_c, "vi-counts")


@pytest.mark.parametrize("family,seed,n", cases())
@pytest.mark.parametrize("removals", [0, 2])
def test_subtree_sums_and_scores_equivalent(family, seed, n, removals):
    graph = make_graph(family, n, seed)
    net_m, net_c, coll_m, coll_c = build_collection_pair(
        graph, removals=removals, seed=seed)
    rng = random.Random(seed + n)
    x = next(iter(coll_m.trees))
    # Integer and non-integer values: the compressed fold must replay the
    # engine's summation order bit for bit.
    for values in (
        [float(rng.randrange(4)) for _ in range(graph.n)],
        [rng.uniform(0.0, 1.0) for _ in range(graph.n)],
    ):
        sums_m, stats_m = subtree_sums(net_m, coll_m, x, values)
        sums_c, stats_c = subtree_sums(net_c, coll_c, x, values)
        assert sums_m == sums_c  # bit-identical float sums
        assert_stats_equal(stats_m, stats_c, "subtree-sums")

    score_m, per_m, sstats_m = compute_scores(net_m, coll_m)
    score_c, per_c, sstats_c = compute_scores(net_c, coll_c)
    assert score_m == score_c and per_m == per_c
    assert_stats_equal(sstats_m, sstats_c, "scores")


def crafted_starts(coll, rng, kind):
    """Removal roots that exercise one case of the engine-order rule.

    ``"under-larger"`` / ``"under-smaller"``: a live node ``u`` at depth
    >= 1 plus a live child ``c`` of it, with ``c > u`` or ``c < u``;
    ``"nested"``: ``u`` plus a live grandchild.  Picked in some tree of
    the current (partly pruned) collection; None when no tree has one.
    """
    pairs = []
    for t in coll.trees.values():
        for c in range(coll.n):
            if not t.live(c) or t.depth[c] < 2:
                continue
            u = t.parent[c]
            if kind == "nested":
                if t.depth[c] >= 3:
                    pairs.append((t.parent[u], c))
            elif (c > u) == (kind == "under-larger"):
                pairs.append((u, c))
    return list(rng.choice(pairs)) if pairs else None


@pytest.mark.parametrize("family,seed,n", cases())
def test_remove_subtrees_equivalent(family, seed, n):
    """Several removal rounds on one collection and one stacked state.

    The rounds mix random roots with a tree root (depth 0 in its own
    tree, so skipped there), nested starts and starts directly under
    another start with ``c > u`` and ``c < u``.  After every round the
    stats (per-edge loads included) and the flags equal the engine's,
    and the stacked live mask equals every tree's ``removed`` row.
    """
    graph = make_graph(family, n, seed)
    net_m, net_c, coll_m, coll_c = build_collection_pair(
        graph, track_edges=True)
    rng = random.Random(seed * 13)
    source = next(iter(coll_m.trees))
    plan = ["random+root", "under-larger", "under-smaller", "nested",
            "random", "random", "random", "under-larger", "under-smaller",
            "nested"]
    crafted = set()
    for step in plan:
        if step.startswith("random"):
            roots = rng.sample(range(graph.n), rng.randrange(1, 5))
            if step.endswith("+root"):
                roots.append(source)
        else:
            roots = crafted_starts(coll_m, rng, step)
            if roots is None:
                continue
            crafted.add(step)
        stats_m = remove_subtrees_sequential(net_m, coll_m, roots)
        stats_c = remove_subtrees_sequential(net_c, coll_c, roots)
        assert_stats_equal(stats_m, stats_c, f"{step} {roots}")
        for x in coll_m.trees:
            assert np.array_equal(coll_m.trees[x].removed, coll_c.trees[x].removed)
        assert_live_mask_matches(coll_c)
    assert coll_m.trees[source].live(source)
    if family in FAST_FAMILIES:
        assert crafted == {"under-larger", "under-smaller", "nested"}


# ---------------------------------------------------------------------------
# Step-6 delivery pipeline + batched Step-3/7 solvers (this PR's phases)


def make_values(coll, rng, full=False):
    """Fabricated Step-5 output: value triples per (source, sink) pair."""
    values = []
    for x in range(coll.n):
        row = {}
        for c, t in coll.trees.items():
            if t.live(x) and (full or rng.random() < 0.8):
                row[c] = (float(rng.randint(0, 30)), rng.randint(1, 6),
                          rng.randint(1, 1 << 40))
        values.append(row)
    return values


def in_collection_pair(graph, h=3, seed=0, prunes=2):
    """Identical pruned in-CSSSPs + sinks on a (message, compressed) pair."""
    net_m, net_c = nets(graph, track_edges=True)
    rng = random.Random(seed * 7 + graph.n)
    sinks = sorted(rng.sample(range(graph.n), min(5, graph.n // 2 + 1)))
    coll_m, _ = build_csssp(net_m, graph, sinks, h, orientation="in")
    coll_c = coll_m.copy()
    for _ in range(prunes):
        roots = rng.sample(range(graph.n), rng.randrange(1, 3))
        remove_subtrees_sequential(net_m, coll_m, roots)
        remove_subtrees_sequential(net_c, coll_c, roots)
    return net_m, net_c, coll_m, coll_c, sinks, rng


def assert_trace_equal(tm, tc):
    assert (tm.rounds, tm.messages) == (tc.rounds, tc.messages)
    assert tm.initial_load == tc.initial_load
    assert tm.active_sinks_per_node == tc.active_sinks_per_node
    assert tm.max_forwarded == tc.max_forwarded


@pytest.mark.parametrize("family,seed,n", cases())
def test_round_robin_pipeline_equivalent(family, seed, n):
    graph = make_graph(family, n, seed)
    net_m, net_c, coll_m, coll_c, sinks, rng = in_collection_pair(
        graph, seed=seed)
    values = make_values(coll_m, rng)
    dm, sm, tm = round_robin_pipeline(net_m, coll_m, values)
    dc, sc, tc = round_robin_pipeline(net_c, coll_c, values)
    assert dm == dc  # bit-identical delivered triples at every sink
    assert_stats_equal(sm, sc, "round-robin")
    assert_trace_equal(tm, tc)


@pytest.mark.parametrize("family,seed,n", cases())
def test_broadcast_delivery_equivalent(family, seed, n):
    graph = make_graph(family, n, seed)
    net_m, net_c, coll_m, _coll_c, sinks, rng = in_collection_pair(
        graph, seed=seed)
    values = make_values(coll_m, rng)
    dm, sm = broadcast_delivery(net_m, sinks, values)
    dc, sc = broadcast_delivery(net_c, sinks, values)
    assert dm == dc
    assert_stats_equal(sm, sc, "broadcast-delivery")


@pytest.mark.parametrize("family,seed,n", cases())
def test_relay_join_equivalent(family, seed, n):
    graph = make_graph(family, n, seed)
    net_m, net_c = nets(graph, track_edges=True)
    rng = random.Random(seed)
    relays = sorted(rng.sample(range(graph.n), min(3, graph.n)))
    sinks = sorted(rng.sample(range(graph.n), min(4, graph.n)))
    log_m, log_c = PhaseLog(), PhaseLog()
    cand_m = relay_join(net_m, graph, relays, sinks, log_m)
    cand_c = relay_join(net_c, graph, relays, sinks, log_c)
    assert cand_m == cand_c  # bit-identical joined triples
    assert_stats_equal(log_m.total(), log_c.total(), "relay-join")
    assert_stats_equal(net_m.total, net_c.total, "relay network totals")


@pytest.mark.parametrize("family,seed,n", cases())
def test_parallel_pruner_equivalent(family, seed, n):
    graph = make_graph(family, n, seed)
    net_m, net_c, coll_m, coll_c, _sinks, rng = in_collection_pair(
        graph, seed=seed, prunes=0)
    counts_m, sm = message_counts(net_m, coll_m)
    counts_c, sc = message_counts(net_c, coll_c)
    assert counts_m == counts_c  # Algorithm 14, batched vs oracle
    assert_stats_equal(sm, sc, "message-counts")
    pm = ParallelPruner(net_m, coll_m, counts_m)
    pc = ParallelPruner(net_c, coll_c, {x: list(v) for x, v in counts_c.items()})
    for _ in range(3):
        roots = rng.sample(range(graph.n), rng.randrange(1, 4))
        rm = pm.remove(roots)
        rc = pc.remove(roots)
        assert_stats_equal(rm, rc, f"prune {roots}")
        assert pm.totals == pc.totals  # bit-identical float aggregates
        for x in coll_m.trees:
            assert np.array_equal(coll_m.trees[x].removed, coll_c.trees[x].removed)
            assert pm.agg[x] == pc.agg[x]


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_engine_network_never_runs_a_compressed_phase(algorithm, monkeypatch):
    """A network built without ``compress`` keeps every phase on the engine."""
    graph = make_graph("er", 12, 1)
    net = CongestNetwork(graph)

    def no_replay(*_args, **_kwargs):
        raise AssertionError(f"{algorithm} ran a compressed phase")

    monkeypatch.setattr(net, "run_compressed", no_replay)
    ALGORITHMS[algorithm](net, graph).verify(graph)
    assert net.total.rounds > 0


@pytest.mark.parametrize("family,seed,n", cases())
def test_bottleneck_and_short_range_equivalent(family, seed, n):
    graph = make_graph(family, n, seed)
    net_m, net_c, coll_m, coll_c, sinks, rng = in_collection_pair(
        graph, seed=seed, prunes=0)
    values = make_values(coll_m, rng, full=True)
    # A low threshold forces actual bottleneck picks through the pruner.
    thr = max(2.0, graph.n / 2)
    cm, bm, tm, lm = short_range_delivery(
        net_m, graph, coll_m, values, threshold=thr)
    cc, bc, tc, lc = short_range_delivery(
        net_c, graph, coll_c, values, threshold=thr)
    assert cm == cc
    assert bm.bottlenecks == bc.bottlenecks
    assert bm.totals == bc.totals
    assert_stats_equal(bm.stats, bc.stats, "bottleneck")
    assert_stats_equal(lm.total(), lc.total(), "short-range")
    assert_trace_equal(tm, tc)


@pytest.mark.parametrize("family,seed,n", cases(sizes=(20,)))
def test_reversed_qsink_equivalent(family, seed, n):
    """Step 6 end to end: Algorithm 8 + Algorithm 9 on both engines."""
    graph = make_graph(family, n, seed)
    net_m, net_c = nets(graph)
    rng = random.Random(seed * 3 + n)
    q_nodes = sorted(rng.sample(range(graph.n), min(5, graph.n // 3 + 1)))
    coll_ref, _ = build_csssp(
        CongestNetwork(graph, strict=False), graph, q_nodes, 3,
        orientation="in")
    values = make_values(coll_ref, rng, full=True)
    qm = reversed_qsink(net_m, graph, q_nodes, values, h2=3)
    qc = reversed_qsink(net_c, graph, q_nodes, values, h2=3)
    assert qm.delivered == qc.delivered
    assert qm.q_prime == qc.q_prime
    assert qm.bottleneck.bottlenecks == qc.bottleneck.bottlenecks
    assert_stats_equal(qm.stats, qc.stats, "reversed-qsink")
    assert_trace_equal(qm.trace, qc.trace)
    assert_stats_equal(net_m.total, net_c.total, "qsink network totals")


@pytest.mark.parametrize("family,seed,n,weights", weighted_cases())
def test_bellman_ford_many_equivalent(family, seed, n, weights):
    """Batched lockstep solver vs the engine's per-source runs."""
    graph = make_graph(family, n, seed, weights)
    rng = random.Random(seed + n)
    srcs = sorted(rng.sample(range(graph.n), min(6, graph.n)))
    for reverse in (False, True):
        net_m = CongestNetwork(graph, track_edges=True)
        net_b = CongestNetwork(graph, track_edges=True, compress=True)
        res_m = bellman_ford_many(net_m, graph, srcs, h=3, reverse=reverse)
        res_b = bellman_ford_many(net_b, graph, srcs, h=3, reverse=reverse)
        for a, b in zip(res_m, res_b):
            assert a.label == b.label
            assert a.parent == b.parent
            assert_stats_equal(a.rounds, b.rounds, "bf-many batched")
        assert_stats_equal(net_m.total, net_b.total, "bf-many totals")


@pytest.mark.parametrize("family,seed,n,weights", weighted_cases())
def test_bellman_ford_many_multi_init_equivalent(family, seed, n, weights):
    """The Step-7 shape: per-source inits + equal-parent fill, batched."""
    graph = make_graph(family, n, seed, weights)
    rng = random.Random(seed * 5 + n)
    srcs = sorted(rng.sample(range(graph.n), min(4, graph.n)))
    inits = []
    for x in srcs:
        row = {x: ZERO_COST}
        for c in rng.sample(range(graph.n), min(3, graph.n - 1)):
            if c != x:
                row[c] = (float(rng.randint(0, 9)), rng.randint(1, 5),
                          rng.randint(1, 1 << 40))
        inits.append(row)
    net_m = CongestNetwork(graph, track_edges=True)
    net_b = CongestNetwork(graph, track_edges=True, compress=True)
    res_m = bellman_ford_many(net_m, graph, srcs, h=2,
                              inits_per_source=inits,
                              fill_equal_parent=True)
    res_b = bellman_ford_many(net_b, graph, srcs, h=2,
                              inits_per_source=inits,
                              fill_equal_parent=True)
    for a, b in zip(res_m, res_b):
        assert a.label == b.label and a.parent == b.parent
        assert_stats_equal(a.rounds, b.rounds, "bf-many multi-init")


@pytest.mark.parametrize("chunk,span", [(7, 1 << 16), (64, 40), (7, 8)],
                         ids=["tiny-chunks", "multi-source-chunks",
                              "int64-sort-keys"])
@pytest.mark.parametrize("shape", ["out", "in", "fill-equal"])
@pytest.mark.parametrize("family,weights", [("er", "uniform"),
                                            ("er-directed", "near-tie")])
def test_bellman_ford_many_chunk_boundaries(family, weights, shape, chunk,
                                            span, monkeypatch):
    """Every round split into many source-aligned chunks, engine-exact.

    A chunk of 7 candidates cuts nearly every source into a chunk of its
    own, 64 packs a few sources per chunk, and a span of 8 receiver ids
    (under n) forces one-source chunks whose winner sort cannot use
    16-bit keys.
    """
    bf_module = importlib.import_module("repro.primitives.bellman_ford")
    monkeypatch.setattr(bf_module, "_CHUNK", chunk)
    monkeypatch.setattr(bf_module, "_SPAN", span)
    graph = make_graph(family, 24, 1, weights)
    srcs = list(range(0, graph.n, 2))
    kw = dict(h=4, reverse=shape == "in")
    if shape == "fill-equal":
        rng = random.Random(7)
        inits = []
        for x in srcs:
            row = {x: ZERO_COST}
            for c in rng.sample(range(graph.n), 4):
                if c != x:
                    row[c] = (float(rng.randint(0, 9)), rng.randint(1, 5),
                              rng.randint(1, 1 << 40))
            inits.append(row)
        kw.update(h=2, inits_per_source=inits, fill_equal_parent=True)
    net_m = CongestNetwork(graph, track_edges=True)
    net_b = CongestNetwork(graph, track_edges=True, compress=True)
    res_m = bellman_ford_many(net_m, graph, srcs, **kw)
    res_b = bellman_ford_many(net_b, graph, srcs, **kw)
    for a, b in zip(res_m, res_b):
        assert a.label == b.label
        assert a.parent == b.parent
        assert_stats_equal(a.rounds, b.rounds, f"bf-many chunked ({shape})")
    assert_stats_equal(net_m.total, net_b.total, "bf-many chunked totals")


@pytest.mark.parametrize("family,seed,n", cases())
@pytest.mark.parametrize("removals", [0, 2])
def test_batched_convergecasts_match_per_phase(family, seed, n, removals):
    """Batched multi-tree phases vs the engine's per-tree phases."""
    graph = make_graph(family, n, seed)
    net_m, net_c, coll_m, coll_c = build_collection_pair(
        graph, removals=removals, seed=seed)

    score_m, per_m, stats_m = compute_scores(net_m, coll_m)
    score_b, per_b, stats_b = compute_scores(net_c, coll_c)  # batched
    assert score_m == score_b
    assert per_m == per_b
    assert_stats_equal(stats_m, stats_b, "scores batched")

    vi = set(random.Random(seed).sample(range(graph.n), graph.n // 3 + 1))
    beta_m, vm = compute_vi_counts(net_m, coll_m, vi)
    beta_b, vb = compute_vi_counts(net_c, coll_c, vi)
    assert beta_per_tree(beta_m) == beta_per_tree(beta_b)
    assert_stats_equal(vm, vb, "vi-counts batched")


# ---------------------------------------------------------------------------
# end to end


def assert_blocker_runs_equal(res_m, res_c):
    assert res_m.blockers == res_c.blockers
    assert [(p.kind, p.added) for p in res_m.picks] == [
        (p.kind, p.added) for p in res_c.picks]
    assert_logs_equal(res_m.log, res_c.log, "blocker")
    assert_stats_equal(res_m.stats, res_c.stats, "blocker")


@pytest.mark.parametrize("family,seed,n", cases(sizes=(20,)))
@pytest.mark.parametrize(
    "construct", [deterministic_blocker_set, randomized_blocker_set],
    ids=["derandomized", "randomized"])
def test_blocker_construction_equivalent(family, seed, n, construct):
    graph = make_graph(family, n, seed)
    net_m, net_c, coll_m, coll_c = build_collection_pair(graph)
    res_m = construct(net_m, coll_m)
    res_c = construct(net_c, coll_c)
    assert_blocker_runs_equal(res_m, res_c)


@pytest.mark.parametrize("family,seed,n", cases(sizes=(20,)))
@pytest.mark.parametrize("variant", ["forced", "edges"])
@pytest.mark.parametrize(
    "construct", [deterministic_blocker_set, randomized_blocker_set],
    ids=["derandomized", "randomized"])
def test_blocker_construction_variants_equivalent(family, seed, n, construct,
                                                  variant):
    """Forced good-set picks, and per-edge loads, ledger by ledger.

    ``forced`` disables the heavy-node branch, so every pick goes through
    a good-set selector, which reads the ``removed`` flags the stacked
    removal wrote back; ``edges`` tracks per-edge loads on both engines.
    """
    graph = make_graph(family, n, seed)
    net_m, net_c, coll_m, coll_c = build_collection_pair(
        graph, track_edges=variant == "edges")
    params = BlockerParams(force_selection=variant == "forced")
    res_m = construct(net_m, coll_m, params)
    res_c = construct(net_c, coll_c, params)
    assert_blocker_runs_equal(res_m, res_c)
    if variant == "forced" and res_m.picks:
        assert {p.kind for p in res_m.picks} <= {"good-set", "fallback"}


@pytest.mark.parametrize("family,seed,n", cases(sizes=(24,)))
def test_deterministic_apsp_equivalent(family, seed, n):
    """The ISSUE 3 acceptance check at test scale: records + rounds."""
    graph = make_graph(family, n, seed)
    # The oracle runs the *strict* message engine; compressed execution
    # must reproduce its records and accounting exactly.
    res_m = deterministic_apsp(CongestNetwork(graph), graph)
    res_c = deterministic_apsp(
        CongestNetwork(graph, strict=False, compress=True), graph)
    finite = np.isfinite(res_m.dist)
    assert (finite == np.isfinite(res_c.dist)).all()
    assert (res_m.dist[finite] == res_c.dist[finite]).all()
    assert (res_m.pred == res_c.pred).all()
    assert res_m.step_rounds() == res_c.step_rounds()
    assert_logs_equal(res_m.log, res_c.log, "apsp")
    assert_stats_equal(res_m.stats, res_c.stats, "apsp")


@pytest.mark.slow
def test_deterministic_apsp_equivalent_at_scale():
    """det-n43 at n=128: the fast engine and the compressed tier agree."""
    graph = make_graph("er", 128, 1)
    net_m = CongestNetwork(graph, strict=False)
    net_c = CongestNetwork(graph, strict=False, compress=True)
    res_m = deterministic_apsp(net_m, graph)
    res_c = deterministic_apsp(net_c, graph)
    assert res_m.dist.tobytes() == res_c.dist.tobytes()
    assert (res_m.pred == res_c.pred).all()
    assert res_m.meta == res_c.meta
    assert_logs_equal(res_m.log, res_c.log, "apsp")
    assert_stats_equal(res_m.stats, res_c.stats, "apsp")
    assert_stats_equal(net_m.total, net_c.total, "network total")


@pytest.mark.parametrize("family,seed,n", cases())
@pytest.mark.parametrize("subset", [False, True], ids=["all", "subset"])
def test_extension_equivalent(family, seed, n, subset):
    """Step 7 on both engines: the same D, P and stats.

    Blockers start from their true labels, so equal-label confirmations
    (the predecessor fill) happen; unreachable pairs arrive as infinite
    labels, which the extension skips.
    """
    graph = make_graph(family, n, seed)
    rng = random.Random(seed * 11 + n)
    blockers = sorted(rng.sample(range(graph.n), min(4, graph.n)))
    full = bellman_ford_many(CongestNetwork(graph, strict=False), graph,
                             range(graph.n))
    delivered = {c: {res.source: res.label[c] for res in full}
                 for c in blockers}
    sources = (sorted(rng.sample(range(graph.n), graph.n // 3))
               if subset else None)
    net_m, net_c = nets(graph, track_edges=True)
    d_m, p_m, s_m = extend_h_hop(net_m, graph, 2, delivered, sources=sources)
    d_c, p_c, s_c = extend_h_hop(net_c, graph, 2, delivered, sources=sources)
    assert d_m.tobytes() == d_c.tobytes()
    assert (p_m == p_c).all()
    assert_stats_equal(s_m, s_c, "extension")
    assert_stats_equal(net_m.total, net_c.total, "extension network totals")
    if subset:
        # A source's row is the all-sources row; other rows stay empty.
        d_all, p_all, _ = extend_h_hop(net_c, graph, 2, delivered)
        rest = sorted(set(range(graph.n)) - set(sources))
        assert d_c[sources].tobytes() == d_all[sources].tobytes()
        assert (p_c[sources] == p_all[sources]).all()
        assert np.isinf(d_c[rest]).all() and (p_c[rest] == -1).all()
