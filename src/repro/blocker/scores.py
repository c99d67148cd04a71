"""Distributed score computation over CSSSP trees.

``score(v)`` is the number of live length-``h`` root-to-leaf paths that
contain ``v`` at depth >= 1 (Table 2; the root slot is excluded — see
:mod:`repro.csssp.collection`).  The paper computes scores with the
convergecast of [2]'s Algorithm 3: within each tree, every node learns the
number of live depth-``h`` leaves in its subtree via a fixed-schedule
bottom-up sum (node at depth ``d`` fires in round ``h - d``), then sums its
per-tree values locally.  ``O(h)`` rounds per tree, ``O(|S| \\cdot h)``
total.

:func:`subtree_sums` is the generic convergecast (any per-node values);
``score_ij`` reuses it with "leaf whose path is in P_ij" indicators, and
Algorithm 13's message counts reuse it with all-ones values.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.congest.compressed import (
    CompressedPhase,
    StackedTrees,
    stacked_trees,
)
from repro.congest.metrics import RoundStats
from repro.congest.network import CongestNetwork
from repro.congest.node import _SILENT, Ctx, NodeProgram
from repro.csssp.collection import CSSSPCollection, TreeView


class _SubtreeSumProgram(NodeProgram):
    """Fixed-schedule bottom-up sum within one tree.

    A node at depth ``d`` accumulates its children's sums (delivered in
    round ``h - d``, since children fire in round ``h - d - 1``) and sends
    its own subtree sum to its parent during round ``h - d``.  Only live
    nodes get this program (detached ones stay silent), so sums cover
    live nodes only.  The root never sends, so only its children's sums
    wake it.
    """

    __slots__ = ("tree", "h", "acc")

    def __init__(self, node: int, tree: TreeView, h: int,
                 value: float) -> None:
        super().__init__(node)
        self.tree = tree
        self.h = h
        self.acc = value
        self.active = tree.parent[node] >= 0

    def on_round(self, ctx: Ctx) -> None:
        v = ctx.node
        t = self.tree
        for src, kind, payload in ctx.inbox:
            if kind == "ss" and t.parent[src] == v:
                self.acc += payload[0]
        fire = self.h - t.depth[v]
        if ctx.round == fire and t.parent[v] >= 0:
            ctx.send(t.parent[v], "ss", (self.acc,))
        self.active = ctx.round < fire


def _convergecast_stats(stack: StackedTrees, live: "np.ndarray",
                        track_edges: bool) -> RoundStats:
    """Stats of `_SubtreeSumProgram` on every tree with a ``live`` row.

    Every live non-root node sends exactly one message, to its parent in
    round ``h - depth(v)``, so each tree's run charges ``h`` minus its
    shallowest sender's depth, plus one; the batch charges their sum.
    """
    h = stack.h
    senders = live & stack.nonroot
    min_depth = np.where(senders, stack.depth, h + 1).min(axis=1)
    rounds = (h + 1 - min_depth[min_depth <= h]).sum()
    edges = None
    if track_edges:
        rows, cols = np.nonzero(senders)
        edges = (cols, stack.parent[rows, cols], 1)
    return RoundStats.from_sends(rounds, senders.sum(axis=0), edges)


def _live_subtree_sums(stack: StackedTrees, live: "np.ndarray",
                       values: "np.ndarray") -> "np.ndarray":
    """Every tree's live-subtree sums of ``values``, as `_SubtreeSumProgram`.

    Folds ``values`` bottom-up along the static level order, one
    ``np.add.at`` per depth.  Each level lists its nodes by tree and then
    by ascending id, and ``add.at`` applies repeated indices one by one
    in array order, so every parent adds its live children in the
    engine's inbox order: the sums match the engine's bit for bit, for
    any float values.  The fold charges no rounds.
    """
    live = live.ravel()
    acc = np.where(live, np.asarray(values, dtype=np.float64).ravel(), 0.0)
    for kids, ups in zip(reversed(stack.levels), reversed(stack.level_parent)):
        keep = live[kids]
        np.add.at(acc, ups[keep], acc[kids[keep]])
    return acc.reshape(stack.shape)


class _CompressedSubtreeSumBatch(CompressedPhase):
    """Round-compressed `_SubtreeSumProgram` over the collection's stacked trees.

    ``rows`` picks the trees that run out of the one stack (all of them
    by default); the result is :func:`_live_subtree_sums` and the stats
    :func:`_convergecast_stats`, both a few whole-stack passes over the
    live mask of :func:`~repro.congest.compressed.stacked_trees`.
    """

    def __init__(self, coll: CSSSPCollection, values: "np.ndarray",
                 label: str, rows: Optional["np.ndarray"] = None) -> None:
        self.stack, live = stacked_trees(coll)
        self.live = live if rows is None else live & rows[:, None]
        self.values = values
        self.label = label

    def run(self, net: CongestNetwork) -> Tuple["np.ndarray", RoundStats]:
        return (_live_subtree_sums(self.stack, self.live, self.values),
                _convergecast_stats(self.stack, self.live, net.track_edges))


class _CompressedPathCountBatch(_CompressedSubtreeSumBatch):
    """The subtree-sum convergecast fed 0/1 indicators of chosen leaves.

    Scores (the live depth-``h`` leaves) and ``score_ij`` (the leaves of
    ``P_ij`` paths) run this shape.  Node ``v`` then sums, over its trees
    where it sits live at depth >= 1, the number of chosen leaves below
    it: the number of chosen paths through it.  The stats are the
    convergecast's; the totals come off the chosen rows of the leaf path
    table in one ``bincount``.  The counts are integers, so no summation
    order can change them.  ``chosen`` is a boolean mask over
    :attr:`StackedTrees.leaves` and must pick live leaves only.
    """

    def __init__(self, coll: CSSSPCollection, chosen: "np.ndarray",
                 label: str, rows: Optional["np.ndarray"] = None) -> None:
        super().__init__(coll, None, label, rows)
        self.chosen = chosen

    def run(self, net: CongestNetwork) -> Tuple["np.ndarray", RoundStats]:
        stack = self.stack
        paths = stack.leaf_paths[self.chosen]
        score = np.bincount(paths.ravel(), minlength=stack.n).astype(np.float64)
        return score, _convergecast_stats(stack, self.live, net.track_edges)


def batched_subtree_sums(
    net: CongestNetwork,
    coll: CSSSPCollection,
    values: "np.ndarray",
    label: str,
    rows: Optional["np.ndarray"] = None,
) -> Tuple["np.ndarray", RoundStats]:
    """One compressed phase covering ``subtree_sums`` on many trees.

    ``values`` is the raw ``(T, n)`` input over the collection's stacked
    trees (masked to live nodes internally, as the per-tree calls do);
    ``rows`` selects the trees that run (default: all).  Returns ``(acc,
    stats)`` with ``acc[i]`` the live-subtree sums of tree ``i`` (zero
    outside ``rows``), bit-identical to the per-tree runs, whose merged
    stats equal ``stats``.
    """
    return net.run_compressed(
        _CompressedSubtreeSumBatch(coll, values, label, rows))


def subtree_sums(
    net: CongestNetwork,
    coll: CSSSPCollection,
    x: int,
    values: Sequence[float],
    label: str = "",
) -> Tuple[List[float], RoundStats]:
    """Per-node live-subtree sums of ``values`` in tree ``T_x``.

    Returns ``sums`` with ``sums[v] = sum(values[u] for u in live
    subtree(v))`` for live ``v`` (0 elsewhere), in at most ``h + 1``
    rounds.
    """
    label = label or f"subtree-sums({x})"
    if net.compress:
        stack, _live = stacked_trees(coll)
        i = stack.row_of[x]
        full = np.zeros(stack.shape)
        full[i] = values
        rows = np.zeros(stack.shape[0], dtype=bool)
        rows[i] = True
        acc, stats = batched_subtree_sums(net, coll, full, label, rows)
        return acc[i].tolist(), stats
    t = coll.trees[x]
    return _engine_subtree_sums(net, coll.h, t, t.live_list(), values, label)


def _engine_subtree_sums(
    net: CongestNetwork,
    h: int,
    t: TreeView,
    live: List[bool],
    values: Sequence[float],
    label: str,
) -> Tuple[List[float], RoundStats]:
    """:func:`subtree_sums` on the message engine, given ``t``'s live list.

    Only live nodes take part, so every other slot holds the shared
    silent program.
    """
    programs = [
        _SubtreeSumProgram(v, t, h, values[v]) if alive else _SILENT
        for v, alive in enumerate(live)
    ]
    stats = net.run(programs, label=label)
    sums = [p.acc if alive else 0.0 for p, alive in zip(programs, live)]
    return sums, stats


def _leaf_values(h: int, t: TreeView, live: List[bool]) -> List[float]:
    """1.0 at the live depth-``h`` leaves of ``t``, given its live list."""
    depth = t.depth
    return [1.0 if alive and depth[v] == h else 0.0
            for v, alive in enumerate(live)]


def _add_below_root(score: List[float], sums: List[float], t: TreeView,
                    live: List[bool]) -> None:
    """Add each live depth >= 1 node's tree sum into its ``score``."""
    depth = t.depth
    for v, alive in enumerate(live):
        if alive and depth[v] >= 1:
            score[v] += sums[v]


def leaf_indicators(coll: CSSSPCollection, x: int) -> List[float]:
    """1.0 at live depth-``h`` leaves of ``T_x`` (hyperedge endpoints)."""
    t = coll.trees[x]
    return _leaf_values(coll.h, t, t.live_list())


def compute_scores(
    net: CongestNetwork,
    coll: CSSSPCollection,
    label: str = "scores",
    per_tree: bool = True,
) -> Tuple[List[float], Dict[int, List[float]], RoundStats]:
    """``score(v)`` for every node plus the per-tree leaf-count aggregates.

    Returns ``(score, per_tree, stats)`` where ``per_tree[x][v]`` is the
    number of live depth-``h`` leaves under ``v`` in ``T_x`` — exactly the
    subtree-additive aggregate :class:`repro.csssp.pruning.ParallelPruner`
    maintains for the greedy baseline.  ``O(|S| \\cdot h)`` rounds.
    ``per_tree=False`` skips materializing the per-tree lists (the
    rescore loop of Algorithm 2 only reads the totals) and returns an
    empty dict in their place.
    """
    if net.compress and coll.trees:
        stack, live = stacked_trees(coll)
        score, stats = net.run_compressed(_CompressedPathCountBatch(
            coll, live.ravel()[stack.leaves], label))
        tree_sums = {}
        if per_tree:
            acc = _live_subtree_sums(stack, live, stack.depth == stack.h)
            tree_sums = {x: acc[i].tolist() for i, x in enumerate(stack.xs)}
        return score.tolist(), tree_sums, stats
    total = RoundStats(label=label)
    score = [0.0] * coll.n
    tree_sums: Dict[int, List[float]] = {}
    for x, t in coll.trees.items():
        live = t.live_list()
        sums, stats = _engine_subtree_sums(
            net, coll.h, t, live, _leaf_values(coll.h, t, live),
            f"{label}({x})",
        )
        total.merge(stats)
        if per_tree:
            tree_sums[x] = sums
        _add_below_root(score, sums, t, live)
    return score, tree_sums, total


def compute_score_ij(
    net: CongestNetwork,
    coll: CSSSPCollection,
    pij_leaf: Dict[int, List[int]],
    label: str = "score-ij",
) -> Tuple[List[float], RoundStats]:
    """``score_ij(v)`` — live paths in ``P_ij`` through ``v`` (Step 8, Alg. 2).

    ``pij_leaf[x]`` lists the leaves of ``T_x`` whose path is in ``P_ij``
    (each leaf knows this locally after Compute-Pij).  Same convergecast as
    :func:`compute_scores`, ``O(|S| \\cdot h)`` rounds.
    """
    if net.compress and any(pij_leaf.values()):
        stack, live = stacked_trees(coll)
        n = stack.n
        rows = np.zeros(stack.shape[0], dtype=bool)
        flat = []
        for x, leaves in pij_leaf.items():
            if leaves:
                i = stack.row_of[x]
                rows[i] = True
                flat.append(i * n + np.asarray(leaves, dtype=np.int64))
        flat = np.concatenate(flat)
        at = np.searchsorted(stack.leaves, flat)
        if (at >= len(stack.leaves)).any() or (stack.leaves[at] != flat).any():
            raise ValueError("pij_leaf lists a node that is not at depth h")
        chosen = np.zeros(len(stack.leaves), dtype=bool)
        chosen[at] = live.ravel()[flat]
        score, stats = net.run_compressed(
            _CompressedPathCountBatch(coll, chosen, label, rows))
        return score.tolist(), stats
    total = RoundStats(label=label)
    score = [0.0] * coll.n
    for x, t in coll.trees.items():
        leaves = pij_leaf.get(x)
        if not leaves:
            continue
        values = [0.0] * coll.n
        for leaf in leaves:
            values[leaf] = 1.0
        live = t.live_list()
        sums, stats = _engine_subtree_sums(net, coll.h, t, live, values,
                                           f"{label}({x})")
        total.merge(stats)
        _add_below_root(score, sums, t, live)
    return score, total


__all__ = [
    "batched_subtree_sums",
    "compute_score_ij",
    "compute_scores",
    "leaf_indicators",
    "subtree_sums",
]
