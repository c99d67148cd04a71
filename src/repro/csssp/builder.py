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

from typing import Dict, Iterable, Tuple

import numpy as np

from repro.congest.compressed import CompressedPhase, flood_stats
from repro.congest.metrics import RoundStats
from repro.congest.network import CongestNetwork
from repro.congest.node import Ctx, NodeProgram
from repro.csssp.collection import CSSSPCollection
from repro.graphs.spec import Graph, add_cost
from repro.primitives.bellman_ford import (
    SSSPBatch,
    SSSPResult,
    _CompressedNotifyChildren,
    _bf_tables,
    bellman_ford_many,
    notify_children,
)


class _TruncateProgram(NodeProgram):
    """Flood kept flags down the Bellman-Ford parentage, checking chains.

    A kept node at hop ``k < h`` announces its final label to all neighbors
    in round ``k``; a hop-``k+1`` node keeps itself iff the announcement
    came from its recorded parent and extends exactly to its own label.
    """

    __slots__ = ("h", "hops", "parent", "label", "_edge_in", "kept", "_sent")

    def __init__(
        self,
        node: int,
        edge_in: Dict[int, Tuple[float, int]],
        res: SSSPResult,
        h: int,
    ) -> None:
        super().__init__(node)
        self.h = h
        self.hops = res.hops[node]
        self.parent = res.parent[node]
        self.label = res.label[node]
        self._edge_in = edge_in
        self.kept = node == res.source
        self._sent = False
        self.active = self.kept  # the rest wait for their parent's flag

    def on_round(self, ctx: Ctx) -> None:
        for src, kind, payload in ctx.inbox:
            if kind == "kp" and src == self.parent and not self.kept:
                if 0 < self.hops <= self.h:
                    w, tb = self._edge_in[src]
                    if add_cost(payload, w, tb) == self.label:
                        self.kept = True
        if self.kept and not self._sent and ctx.round == self.hops:
            self._sent = True
            if self.hops < self.h:
                for u in ctx.neighbors:
                    ctx.send(u, "kp", self.label)
        self.active = self.kept and not self._sent


class _KeptWave(CompressedPhase):
    """Round-compressed `_TruncateProgram` for every tree of a batch.

    The chain-extension equality forces ``hops(parent) = hops(v) - 1``,
    so the parent's announcement always lands exactly in ``v``'s firing
    round, and the flood is one top-down wave over hop levels ``1..h``
    on the batch's planes.  Every kept node with ``hops < h`` announces
    once to all its neighbors.
    """

    def __init__(self, batch: SSSPBatch, h: int, label: str) -> None:
        self.batch = batch
        self.h = h
        self.label = label

    def run(self, net: CongestNetwork) -> Tuple[np.ndarray, RoundStats]:
        """The ``(B, n)`` kept flags and the flood's stats."""
        batch, h = self.batch, self.h
        b, n = batch.dist.shape
        dist, hops = batch.dist.ravel(), batch.hops.ravel()
        tb, parent = batch.tb.ravel(), batch.parent.ravel()
        w, tbw = (plane.ravel() for plane in batch.parent_edge())
        v = np.flatnonzero((parent >= 0) & (hops > 0) & (hops <= h))
        p = v - v % n + parent[v]
        # add_cost(label[p], w, tb) == label[v], in the engine's operand
        # order; hops[v] <= h leaves hops[p] < h, so the parent announces.
        chain = ((hops[p] + 1 == hops[v]) & (dist[p] + w[v] == dist[v])
                 & (tb[p] + tbw[v] == tb[v]))
        v, p = v[chain], p[chain]
        kept = np.zeros(b * n, dtype=bool)
        kept[np.arange(b) * n + np.asarray(batch.sources, dtype=np.int64)] = True
        by_hop = np.argsort(hops[v], kind="stable")
        cuts = np.searchsorted(hops[v][by_hop], np.arange(1, h + 2)).tolist()
        for a, z in zip(cuts, cuts[1:]):
            level = by_hop[a:z]
            kept[v[level]] = kept[p[level]]
        kept = kept.reshape(b, n)
        deg = np.fromiter((len(net.neighbors(v)) for v in range(n)),
                          dtype=np.int64, count=n)
        senders = kept & (batch.hops < h) & (deg > 0)
        last = np.where(senders, batch.hops, -1).max(axis=1, initial=-1)
        # a node announces once per tree it sends in
        return kept, flood_stats(net, (last + 1).sum(), senders.sum(axis=0))


def build_csssp(
    net: CongestNetwork,
    graph: Graph,
    sources: Iterable[int],
    h: int,
    orientation: str = "out",
    label: str = "csssp",
) -> Tuple[CSSSPCollection, RoundStats]:
    """Build the ``h``-CSSSP (out) or ``h``-in-CSSSP for ``sources``.

    Returns the collection plus the composed round stats of every
    construction phase.  On a compressing network the construction
    reads the :class:`SSSPBatch` planes directly: the truncation is one
    top-down wave over all trees (:class:`_KeptWave`) and each phase
    family — the Bellman-Ford runs, the kept floods, the children
    notifications — is charged once, as the sum of its per-source
    schedules.  The kept parent and depth planes become the
    collection's store as they are; the engine path stacks its per-source
    rows once.
    """
    if h < 1:
        raise ValueError("h must be >= 1")
    if orientation not in ("out", "in"):
        raise ValueError(f"bad orientation {orientation!r}")
    reverse = orientation == "in"
    source_list = list(sources)
    batch = bellman_ford_many(
        net, graph, source_list, h=2 * h, reverse=reverse,
        labels=[f"{label}-bf({x})" for x in source_list],
    )
    total = batch.total(label)

    if net.compress:
        kept, stats = net.run_compressed(_KeptWave(batch, h, f"{label}-trunc"))
        total.merge(stats)
        parent = np.where(kept, batch.parent, -1)
        _, stats = net.run_compressed(
            _CompressedNotifyChildren(parent, f"{label}-kids"))
        total.merge(stats)
        depth = np.where(kept, batch.hops, -1)
        return CSSSPCollection(graph, h, source_list, parent, depth,
                               orientation), total

    edge_in = _bf_tables(net, graph, reverse)[0]
    parents, depths = [], []
    for x, res in zip(source_list, batch):
        programs = [_TruncateProgram(v, edge_in[v], res, h)
                    for v in range(graph.n)]
        total.merge(net.run(programs, label=f"{label}-trunc({x})"))
        parent = [res.parent[v] if p.kept else -1 for v, p in enumerate(programs)]
        _, nstats = notify_children(net, parent, label=f"{label}-kids({x})")
        total.merge(nstats)
        parents.append(parent)
        depths.append([res.hops[v] if p.kept else -1
                       for v, p in enumerate(programs)])
    return CSSSPCollection(graph, h, source_list, parents, depths,
                           orientation), total


__all__ = ["build_csssp"]
