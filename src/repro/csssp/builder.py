"""CSSSP construction (the [1] recipe, Lemma A.4).

To build an ``h``-CSSSP for source set ``S``: run a ``2h``-hop Bellman-Ford
from (or, for in-collections, *to*) each source, then keep the first ``h``
hops of each tree.  Because path labels are lexicographically unique
(:mod:`repro.graphs.spec`):

* every node whose *true* shortest path from/to the root needs ``k <= h``
  hops ends with its true label (the ``2h``-hop optimum cannot beat the
  unconstrained optimum) at depth ``k``, with the true path as its tree
  path — the property the blocker-coverage and Step-6 routing arguments
  rely on;
* any two trees agree on shared segments of such paths.

Truncation is *chain-consistent*: a node survives only if its parent
survives and the parent's final label extends exactly to its own.  This
matters because a hop-limited label can be achieved through a prefix that a
neighbor's *final* label no longer equals (the neighbor later found a
lighter path with more hops, whose extension would blow the hop budget);
such nodes carry correct hop-limited distances but dangle off the tree, so
they are dropped.  Nodes with true ``<= h``-hop shortest paths always have
intact chains, so Definition A.3's containment guarantee is unaffected.
The kept flag is established by one more ``O(h)``-round flood per source
(nodes at hop ``k`` announce their label in round ``k``; a receiver keeps
itself if its recorded parent's announcement extends to its own label).

Round cost per source: ``2h + 1`` (Bellman-Ford) + ``h + 1`` (kept flood)
+ 1 (children notification) — ``O(|S| \\cdot h)`` total, as charged by
Lemma A.4.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.congest.compressed import (
    CompressedPhase,
    CompressedSequence,
    PhaseSchedule,
)
from repro.congest.metrics import RoundStats
from repro.congest.network import CongestNetwork
from repro.congest.node import Ctx, NodeProgram
from repro.csssp.collection import CSSSPCollection, TreeView
from repro.graphs.spec import Graph, add_cost
from repro.primitives.bellman_ford import (
    SSSPResult,
    _CompressedNotifyChildren,
    bellman_ford_many,
    notify_children,
)


def _edge_in_table(net: CongestNetwork, graph: Graph, reverse: bool):
    """``(announcer, receiver) -> (weight, tb)`` lookup, cached on the net.

    The receiver-side edge table every `_TruncateProgram` builds locally,
    materialized once per (graph, direction) so the compressed truncation
    floods of Steps 1/6 resolve parent edges in O(1) instead of scanning
    the receiver's edge list per source.
    """
    cache = getattr(net, "_edge_in_tables", None)
    if cache is None:
        cache = net._edge_in_tables = {}
    key = (id(graph), reverse)
    entry = cache.get(key)
    if entry is not None and entry[0] is graph:
        return entry[1]
    edges = graph.in_edges if not reverse else graph.out_edges
    table = {}
    for v in range(graph.n):
        for u, w, tb in edges(v):
            table[(u, v)] = (w, tb)
    cache[key] = (graph, table)
    return table


class _TruncateProgram(NodeProgram):
    """Flood kept flags down the Bellman-Ford parentage, checking chains.

    A kept node at hop ``k < h`` announces its final label to all neighbors
    in round ``k``; a hop-``k+1`` node keeps itself iff the announcement
    came from its recorded parent and extends exactly to its own label.
    """

    __slots__ = ("h", "hops", "parent", "label", "_edge_in", "kept", "_sent")

    def __init__(
        self, node: int, graph: Graph, res: SSSPResult, h: int
    ) -> None:
        super().__init__(node)
        self.h = h
        self.hops = res.hops[node]
        self.parent = res.parent[node]
        self.label = res.label[node]
        if not res.reverse:
            self._edge_in: Dict[int, Tuple[float, int]] = {
                u: (w, tb) for (u, w, tb) in graph.in_edges(node)
            }
        else:
            self._edge_in = {u: (w, tb) for (u, w, tb) in graph.out_edges(node)}
        self.kept = node == res.source
        self._sent = False

    def on_round(self, ctx: Ctx) -> None:
        for msg in ctx.inbox:
            if msg.kind == "kp" and msg.src == self.parent and not self.kept:
                if 0 < self.hops <= self.h:
                    w, tb = self._edge_in[msg.src]
                    if add_cost(msg.payload, w, tb) == self.label:
                        self.kept = True
        if self.kept and not self._sent and ctx.round == self.hops:
            self._sent = True
            if self.hops < self.h:
                for u in ctx.neighbors:
                    ctx.send(u, "kp", self.label)
        self.active = self.kept and not self._sent


class _CompressedTruncate(CompressedPhase):
    """Round-compressed `_TruncateProgram`: chain-consistent kept flags.

    The flood follows the Bellman-Ford parentage in hop order (the
    chain-extension equality forces ``hops(parent) = hops(v) - 1``, so
    the parent's announcement always lands exactly in ``v``'s firing
    round), and every kept node with ``hops < h`` announces once to all
    its neighbors.
    """

    def __init__(self, graph: Graph, res: SSSPResult, h: int,
                 label: str, edge_in: dict) -> None:
        self.graph = graph
        self.res = res
        self.h = h
        self.label = label
        self.edge_in = edge_in
        self._kept: Optional[List[bool]] = None

    def _solve(self) -> List[bool]:
        if self._kept is not None:
            return self._kept
        graph, res, h = self.graph, self.res, self.h
        n = graph.n
        table = self.edge_in
        kept = [False] * n
        kept[res.source] = True
        order = sorted(
            (v for v in range(n) if 0 < res.hops[v] <= h),
            key=lambda v: res.hops[v],
        )
        for v in order:
            p = res.parent[v]
            if p < 0 or not kept[p] or res.hops[p] >= h:
                continue
            wt = table.get((p, v))
            if wt is not None and add_cost(res.label[p], *wt) == res.label[v]:
                kept[v] = True
        self._kept = kept
        return kept

    def schedule(self, net: CongestNetwork) -> PhaseSchedule:
        kept = self._solve()
        res, h = self.res, self.h
        hops = res.hops
        per_node: Dict[int, int] = {}
        last_tick = -1
        per_edge = {} if net.track_edges else None
        for v, k in enumerate(kept):
            if not k or hops[v] >= h:
                continue
            deg = len(net.neighbors(v))
            if not deg:
                continue
            per_node[v] = deg
            if hops[v] > last_tick:
                last_tick = hops[v]
            if per_edge is not None:
                for u in net.neighbors(v):
                    per_edge[(v, u)] = 1
        return PhaseSchedule(
            rounds=last_tick + 1,
            messages=sum(per_node.values()),
            per_node_sent=per_node,
            per_edge_sent=per_edge,
        )

    def evaluate(self, net: CongestNetwork) -> List[bool]:
        return self._solve()


def build_csssp(
    net: CongestNetwork,
    graph: Graph,
    sources: Iterable[int],
    h: int,
    orientation: str = "out",
    label: str = "csssp",
    compress: Optional[bool] = None,
) -> Tuple[CSSSPCollection, RoundStats]:
    """Build the ``h``-CSSSP (out) or ``h``-in-CSSSP for ``sources``.

    Returns the collection plus the composed round stats of every
    construction phase.  ``compress`` selects the round-compressed
    execution mode (default: the network's setting).
    """
    if h < 1:
        raise ValueError("h must be >= 1")
    reverse = orientation == "in"
    total = RoundStats(label=label)
    trees: Dict[int, TreeView] = {}
    source_list = list(sources)
    results = bellman_ford_many(
        net, graph, source_list, h=2 * h, reverse=reverse,
        labels=[f"{label}-bf({x})" for x in source_list],
        compress=compress,
    )
    for res in results:
        total.merge(res.rounds)

    if net.use_compressed(compress) and source_list:
        # The per-source truncation floods and children notifications are
        # independent fixed-schedule phases: run each family as one batch.
        edge_in = _edge_in_table(net, graph, reverse)
        trunc = [
            _CompressedTruncate(graph, res, h, f"{label}-trunc({x})", edge_in)
            for x, res in zip(source_list, results)
        ]
        kept_list, stats = net.run_compressed(
            CompressedSequence(trunc, f"{label}-trunc")
        )
        total.merge(stats)
        parents: List[List[int]] = []
        for x, res, kept in zip(source_list, results, kept_list):
            parent = [-1] * graph.n
            depth = [-1] * graph.n
            dist = [float("inf")] * graph.n
            for v in range(graph.n):
                if kept[v]:
                    depth[v] = res.hops[v]
                    dist[v] = res.dist[v]
                    parent[v] = res.parent[v]
            parents.append(parent)
            trees[x] = TreeView(
                root=x, parent=parent, depth=depth, dist=dist,
                children=[], removed=[False] * graph.n,
            )
        kids = [
            _CompressedNotifyChildren(parent, f"{label}-kids({x})")
            for x, parent in zip(source_list, parents)
        ]
        children_list, nstats = net.run_compressed(
            CompressedSequence(kids, f"{label}-kids")
        )
        total.merge(nstats)
        for x, children in zip(source_list, children_list):
            trees[x].children = children
        return CSSSPCollection(graph, h, trees, orientation), total

    for x, res in zip(source_list, results):
        programs = [_TruncateProgram(v, graph, res, h) for v in range(graph.n)]
        total.merge(net.run(programs, label=f"{label}-trunc({x})"))
        kept = [p.kept for p in programs]
        parent = [-1] * graph.n
        depth = [-1] * graph.n
        dist = [float("inf")] * graph.n
        for v in range(graph.n):
            if kept[v]:
                depth[v] = res.hops[v]
                dist[v] = res.dist[v]
                parent[v] = res.parent[v]
        children, nstats = notify_children(net, parent, label=f"{label}-kids({x})",
                                           compress=False)
        total.merge(nstats)
        trees[x] = TreeView(
            root=x,
            parent=parent,
            depth=depth,
            dist=dist,
            children=children,
            removed=[False] * graph.n,
        )
    return CSSSPCollection(graph, h, trees, orientation), total


__all__ = ["build_csssp"]
