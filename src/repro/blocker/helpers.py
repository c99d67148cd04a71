"""Helper protocols for the blocker-set algorithms (Algorithms 3, 4, 5 + [2]'s
Ancestors algorithm).

* :func:`compute_vi_counts` — the ``beta`` flood of Compute-Pij
  (Algorithm 4): within each tree the root floods a running count of
  ``V_i``-members at depth >= 1 down the live tree; each depth-``h`` leaf
  then knows how many ``V_i`` nodes its path contains.  Compute-Pi
  (Algorithm 3) is the special case "count >= 1", so one flood serves both.
* :func:`broadcast_selection_stats` — Algorithm 5 fused with Step 8's
  score broadcast: one all-to-all broadcast of per-node
  ``(score_ij(v), |P_ij^v|)`` pairs, after which every node knows
  ``|P_ij|`` (the sum of the second coordinates) and every score.
* :func:`collect_ancestors` — [2]'s Ancestors algorithm (Algorithm 7
  Step 1): a pipelined downward stream of ``(depth, id)`` records so every
  node learns the ids on its root path; a leaf can then evaluate path
  coverage locally.  ``O(h)`` rounds per tree.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.congest.compressed import CompressedPhase, stacked_trees
from repro.congest.metrics import RoundStats
from repro.congest.network import CongestNetwork
from repro.congest.node import _SILENT, Ctx, NodeProgram
from repro.csssp.collection import CSSSPCollection, TreeView
from repro.primitives.bfs import BFSTree
from repro.primitives.broadcast import gather_and_broadcast


class _ViCountProgram(NodeProgram):
    """Algorithm 4 for one tree: flood the V_i-member count down.

    Only live nodes get this program; the root starts the flood and the
    rest wake when their parent's count arrives.
    """

    __slots__ = ("tree", "live", "in_vi", "beta")

    def __init__(self, node: int, tree: TreeView, live: List[bool],
                 in_vi: bool) -> None:
        super().__init__(node)
        self.tree = tree
        self.live = live
        self.in_vi = in_vi
        self.beta = -1
        if tree.depth[node] == 0:
            self.beta = 0  # the root slot never counts (hyperedges exclude it)
        self.active = self.beta == 0

    def on_round(self, ctx: Ctx) -> None:
        v = ctx.node
        t = self.tree
        for src, kind, payload in ctx.inbox:
            if kind == "beta" and src == t.parent[v] and self.beta < 0:
                self.beta = payload[0] + (1 if self.in_vi else 0)
        if self.beta >= 0 and ctx.round == t.depth[v]:
            live = self.live
            for c in t.children[v]:
                if live[c]:
                    ctx.send(c, "beta", (self.beta,))
        self.active = False


@dataclass
class PathCounts:
    """``V_i``-member counts of every live length-``h`` path, as arrays.

    Paths are listed tree by tree in collection order, leaves ascending
    within a tree: path ``k`` belongs to the source ``xs[row[k]]``, ends
    at the depth-``h`` leaf ``leaf[k]`` and holds ``beta[k]`` nodes of
    ``V_i`` at depth >= 1.
    """

    xs: List[int]
    row: "np.ndarray"
    leaf: "np.ndarray"
    beta: "np.ndarray"

    def leaves(self, keep: "np.ndarray") -> Dict[int, List[int]]:
        """``{source: ascending leaves}`` of the paths ``keep`` selects.

        Every source gets an entry; ``leaves(beta >= t)`` is the leaf view
        of ``P_i`` (``t = 1``) or ``P_ij``.
        """
        leaves = self.leaf[keep].tolist()
        cuts = np.searchsorted(self.row[keep],
                               np.arange(len(self.xs) + 1)).tolist()
        return {x: leaves[a:b] for x, a, b in zip(self.xs, cuts, cuts[1:])}


class _CompressedViCountBatch(CompressedPhase):
    """Round-compressed `_ViCountProgram`: every tree's beta flood as one phase.

    The flood is a synchronized wave: a live node at depth ``d`` forwards
    the running count to each live child in round ``d``.  So each live
    non-root node receives exactly one message, and a tree's flood ends
    in the round of its deepest live node.  The per-tree schedules sum,
    and the batch reads them off the live mask of
    :func:`~repro.congest.compressed.stacked_trees` in a few whole-stack
    passes.  The counts themselves need no wave: a live leaf's ``beta``
    is the number of ``V_i`` members on its row of the leaf path table,
    one gather for all trees, returned as a :class:`PathCounts`.
    """

    def __init__(self, coll: CSSSPCollection, vi: Set[int],
                 label: str) -> None:
        self.stack, self.live = stacked_trees(coll)
        self.vi = vi
        self.label = label

    def run(self, net: CongestNetwork) -> Tuple[PathCounts, RoundStats]:
        stack = self.stack
        n = stack.n
        kids = self.live & stack.nonroot
        rounds = np.where(kids, stack.depth, 0).max(axis=1).sum()
        stats = RoundStats.from_sends(
            rounds, np.bincount(stack.parent[kids], minlength=n))
        in_vi = np.zeros(n, dtype=np.int64)
        in_vi[[v for v in self.vi if 0 <= v < n]] = 1
        live_leaf = self.live.ravel()[stack.leaves]
        leaves = stack.leaves[live_leaf]
        beta = in_vi[stack.leaf_paths[live_leaf]].sum(axis=1)
        return PathCounts(stack.xs, leaves // n, leaves % n, beta), stats


def compute_vi_counts(
    net: CongestNetwork,
    coll: CSSSPCollection,
    vi: Set[int],
    label: str = "compute-pij",
) -> Tuple[PathCounts, RoundStats]:
    """Per-path ``V_i``-member counts for every live length-``h`` path.

    Returns ``(counts, stats)``: ``counts.beta[k]`` is the number of
    depth>=1 nodes in ``vi`` on the root-to-``counts.leaf[k]`` path of
    ``T_{xs[row[k]]}``.  One ``O(h)``-round flood per tree
    (Algorithms 3/4; Lemmas 3.3/3.4), ``O(|S| \\cdot h)`` in total.
    """
    if net.compress and coll.trees:
        counts, stats = net.run_compressed(
            _CompressedViCountBatch(coll, vi, label))
        return counts, stats
    total = RoundStats(label=label)
    rows: List[int] = []
    leaves: List[int] = []
    betas: List[int] = []
    for i, (x, t) in enumerate(coll.trees.items()):
        live = t.live_list()
        programs = [_ViCountProgram(v, t, live, v in vi) if alive else _SILENT
                    for v, alive in enumerate(live)]
        total.merge(net.run(programs, label=f"{label}({x})"))
        for v in range(coll.n):
            if t.depth[v] == coll.h and live[v]:
                rows.append(i)
                leaves.append(v)
                betas.append(programs[v].beta)
    counts = PathCounts(list(coll.trees), np.asarray(rows, dtype=np.int64),
                        np.asarray(leaves, dtype=np.int64),
                        np.asarray(betas, dtype=np.int64))
    return counts, total


def broadcast_selection_stats(
    net: CongestNetwork,
    tree: BFSTree,
    score_ij: Sequence[float],
    pij_leaf_counts: Sequence[int],
    label: str = "selection-stats",
) -> Tuple[Dict[int, float], int, RoundStats]:
    """Algorithm 5 + Step 8: everyone learns all score_ij values and |P_ij|.

    Every node contributes one ``(id, score_ij, |P_ij^v|)`` word triple to
    an all-to-all broadcast (Lemma A.2, ``O(n)`` rounds); ``|P_ij|`` is the
    sum of the third coordinates (each path counted once, at its leaf).
    Nodes with nothing to report stay silent to keep the message count at
    the paper's "at most n messages".
    """
    items = [
        [(v, float(score_ij[v]), int(pij_leaf_counts[v]))]
        if score_ij[v] or pij_leaf_counts[v]
        else []
        for v in range(net.n)
    ]
    received, stats = gather_and_broadcast(net, tree, items, label=label)
    view = received[tree.root]
    scores = {v: s for (v, s, _c) in view}
    pij_total = int(sum(c for (_v, _s, c) in view))
    return scores, pij_total, stats


class _AncestorsProgram(NodeProgram):
    """[2]'s Ancestors algorithm for one tree: stream (depth, id) downward."""

    __slots__ = ("tree", "queue", "ancestors")

    def __init__(self, node: int, tree: TreeView) -> None:
        super().__init__(node)
        self.tree = tree
        self.queue: deque = deque()
        self.ancestors: List[Tuple[int, int]] = []
        if tree.live(node) and tree.live_children(node):
            self.queue.append((tree.depth[node], node))
        self.active = bool(self.queue)

    def on_round(self, ctx: Ctx) -> None:
        v = ctx.node
        t = self.tree
        for src, kind, payload in ctx.inbox:
            if kind == "anc" and src == t.parent[v]:
                self.ancestors.append(payload)
                if t.live_children(v):
                    self.queue.append(payload)
        if self.queue:
            record = self.queue.popleft()
            for c in t.live_children(v):
                ctx.send(c, "anc", record)
        self.active = bool(self.queue)


class _CompressedAncestors(CompressedPhase):
    """Round-compressed `_AncestorsProgram`: the pipelined ancestor stream.

    The stream never stalls — a live internal node at depth ``d``
    forwards its own record in round 0 and the record of its depth-``a``
    ancestor in round ``d - a`` — so node ``v`` sends exactly
    ``depth(v) + 1`` records to each live child and the phase ends one
    round after the deepest internal node forwards the root's record.
    """

    def __init__(self, coll: CSSSPCollection, x: int, label: str) -> None:
        self.coll = coll
        self.tree = coll.trees[x]
        self.x = x
        self.label = label

    def run(self, net: CongestNetwork) -> Tuple[Dict[int, List[int]],
                                                RoundStats]:
        stack, live_mask = stacked_trees(self.coll)
        i = stack.row_of[self.x]
        parent, depth, live = stack.parent[i], stack.depth[i], live_mask[i]
        kids = np.flatnonzero(live & stack.nonroot[i])
        lc = np.bincount(parent[kids], minlength=stack.n)
        internal = live & (lc > 0)
        records = depth + 1  # own record plus one per strict ancestor
        stats = RoundStats.from_sends(
            depth[internal].max(initial=-1) + 1,
            np.where(internal, records * lc, 0))
        t = self.tree
        per_node: Dict[int, List[int]] = {}
        if t.live(t.root):
            per_node[t.root] = []
            todo = [t.root]
            while todo:
                v = todo.pop()
                path = per_node[v]
                for c in t.live_children(v):
                    per_node[c] = path + [v]
                    todo.append(c)
        return per_node, stats


def collect_ancestors(
    net: CongestNetwork,
    coll: CSSSPCollection,
    label: str = "ancestors",
) -> Tuple[Dict[int, Dict[int, List[int]]], RoundStats]:
    """Every live node learns the ids on its root path, in every tree.

    Returns ``(anc, stats)`` where ``anc[x][v]`` lists the strict ancestors
    of ``v`` in ``T_x`` ordered root-first (so the hyperedge ending at leaf
    ``v`` is ``anc[x][v][1:] + [v]``).  ``O(h)`` rounds per tree — each
    edge forwards one record per round and carries at most ``h`` of them.
    """
    total = RoundStats(label=label)
    anc: Dict[int, Dict[int, List[int]]] = {}
    for x, t in coll.trees.items():
        if net.compress:
            per_node, stats = net.run_compressed(
                _CompressedAncestors(coll, x, f"{label}({x})")
            )
            total.merge(stats)
            anc[x] = per_node
            continue
        programs = [_AncestorsProgram(v, t) for v in range(coll.n)]
        total.merge(net.run(programs, label=f"{label}({x})"))
        per_node: Dict[int, List[int]] = {}
        for v in range(coll.n):
            if t.live(v):
                records = sorted(programs[v].ancestors)
                if len(records) != t.depth[v]:
                    raise AssertionError(
                        f"tree {x}: node {v} collected {len(records)} ancestors, "
                        f"expected {t.depth[v]}"
                    )
                per_node[v] = [node for (_d, node) in records]
        anc[x] = per_node
    return anc, total


__all__ = [
    "PathCounts",
    "broadcast_selection_stats",
    "collect_ancestors",
    "compute_vi_counts",
]
