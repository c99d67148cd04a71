"""Silent nodes cost nothing on the message engine.

Phases give the nodes with no part in them the shared never-active
``_Silent`` program, and real programs wake only when a delivery or
their own tick-0 work gives them something to do.  These tests pin both
properties on the phases that run once per tree or per source, and the
named error a message to a silent slot raises.
"""

from __future__ import annotations

import pytest

from repro.blocker import helpers, scores
from repro.congest import CongestNetwork, NodeProgram
from repro.congest.node import _SILENT, SilentNodeMessaged
from repro.csssp import build_csssp, remove_subtrees_sequential
from repro.csssp.builder import _TruncateProgram
from repro.csssp.pruning import _SequentialRemoveProgram
from repro.experiments.registry import make_graph
from repro.graphs import path_graph
from repro.primitives import build_bfs_tree, gather_and_broadcast
from repro.primitives.bellman_ford import _BFProgram, bellman_ford
from repro.primitives.broadcast import (
    _GatherBroadcastProgram,
    _GatherBroadcastRoot,
)

WATCHED = [
    _BFProgram,
    _TruncateProgram,
    _SequentialRemoveProgram,
    helpers._ViCountProgram,
    _GatherBroadcastProgram,
    _GatherBroadcastRoot,
]


def watch_wakes(monkeypatch, classes):
    """Record ``(class, round, node, inbox size, sends)`` per ``on_round``."""
    calls = []

    def wrap(cls):
        inner = cls.on_round

        def on_round(self, ctx):
            send, sent = ctx.send, []

            def spy(*args):
                sent.append(args)
                send(*args)

            ctx.send = spy
            try:
                inner(self, ctx)
            finally:
                ctx.send = send
            calls.append((cls.__name__, ctx.round, ctx.node, len(ctx.inbox),
                          len(sent), getattr(self, "_start", False)))

        monkeypatch.setattr(cls, "on_round", on_round)

    for cls in classes:
        wrap(cls)
    return calls


@pytest.mark.parametrize("family", ["er", "grid"])
def test_no_idle_wakes(monkeypatch, family):
    graph = make_graph(family, 17, 1)
    net = CongestNetwork(graph, track_edges=True)
    calls = watch_wakes(monkeypatch, WATCHED)

    bellman_ford(net, graph, 0, h=4)
    coll, _ = build_csssp(net, graph, [0, 5, 9, 13], 3)
    helpers.compute_vi_counts(net, coll, {1, 2, 6, 10})
    remove_subtrees_sequential(net, coll, [2, 6, 11])
    tree, _ = build_bfs_tree(net)
    items = [[(v, v * v)] if v % 3 else [] for v in range(graph.n)]
    gather_and_broadcast(net, tree, items)

    ran = {c[0] for c in calls}
    assert ran == {cls.__name__ for cls in WATCHED}
    # A wake must have a delivery or send; the one exception is a removal
    # root's tick-0 self-detach, which sends nothing at a leaf.
    idle = [c for c in calls
            if not c[3] and not c[4] and not (c[1] == 0 and c[5])]
    assert not idle, f"{len(idle)} idle wakes, e.g. {idle[:5]}"


def count_constructions(monkeypatch, cls):
    built = []
    inner = cls.__init__

    def init(self, node, *args, **kwargs):
        built.append(node)
        inner(self, node, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", init)
    return built


@pytest.mark.parametrize("family", ["er", "grid"])
def test_per_tree_phases_build_programs_for_live_nodes_only(monkeypatch,
                                                            family):
    graph = make_graph(family, 17, 1)
    net = CongestNetwork(graph)
    coll, _ = build_csssp(net, graph, [0, 5, 9, 13], 3)
    for t in coll.trees.values():  # detach a subtree where there is one
        inner = [v for v in range(graph.n) if t.depth[v] == 1]
        if inner:
            t.mark_removed(inner[0])
    live = {x: [v for v, ok in enumerate(t.live_list()) if ok]
            for x, t in coll.trees.items()}
    assert sum(map(len, live.values())) < len(coll.trees) * graph.n

    sums = count_constructions(monkeypatch, scores._SubtreeSumProgram)
    vi = count_constructions(monkeypatch, helpers._ViCountProgram)
    for x in coll.trees:
        del sums[:]
        scores.subtree_sums(net, coll, x, [1.0] * graph.n)
        assert sums == live[x]
    helpers.compute_vi_counts(net, coll, {1, 2, 6, 10})
    assert vi == [v for x in coll.trees for v in live[x]]


class Pinger(NodeProgram):
    def on_round(self, ctx):
        ctx.send(1, "ping", (7,))
        self.active = False


@pytest.mark.parametrize("strict", [True, False])
def test_message_to_a_silent_slot_raises_a_named_error(strict):
    net = CongestNetwork(path_graph(3), strict=strict)
    with pytest.raises(SilentNodeMessaged, match="node 1 .* by node 0"):
        net.run([Pinger(0), _SILENT, _SILENT])
    assert not _SILENT.active
