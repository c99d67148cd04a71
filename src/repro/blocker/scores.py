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
    PhaseSchedule,
    collection_arrays,
)
from repro.congest.metrics import RoundStats
from repro.congest.network import CongestNetwork
from repro.congest.node import Ctx, NodeProgram
from repro.csssp.collection import CSSSPCollection, TreeView


class _SubtreeSumProgram(NodeProgram):
    """Fixed-schedule bottom-up sum within one tree.

    A node at depth ``d`` accumulates its children's sums (delivered in
    round ``h - d``, since children fire in round ``h - d - 1``) and sends
    its own subtree sum to its parent during round ``h - d``.  Detached
    (removed) nodes stay silent, so sums cover live nodes only.
    """

    __slots__ = ("tree", "h", "acc")

    def __init__(self, node: int, tree: TreeView, h: int, value: float) -> None:
        super().__init__(node)
        self.tree = tree
        self.h = h
        self.acc = value
        self.active = tree.live(node)

    def on_round(self, ctx: Ctx) -> None:
        v = ctx.node
        t = self.tree
        for msg in ctx.inbox:
            if msg.kind == "ss" and t.parent[msg.src] == v:
                self.acc += msg.payload[0]
        fire = self.h - t.depth[v]
        if ctx.round == fire and t.parent[v] >= 0:
            ctx.send(t.parent[v], "ss", (self.acc,))
        self.active = t.live(v) and ctx.round < fire


class _CompressedSubtreeSumBatch(CompressedPhase):
    """Round-compressed `_SubtreeSumProgram` over a stack of trees.

    Every live non-root node sends exactly one message — in round
    ``h - depth(v)`` — so each tree's schedule is immediate, and the
    batch's schedule is the sum of the per-tree schedules, computed in
    one vectorized pass over the stacked ``(T, n)`` arrays.  The sums
    replay the engine's fold exactly, for any float values: deepest level
    first, each node adding its live children in ascending id.
    """

    def __init__(
        self,
        parent: "np.ndarray",
        depth: "np.ndarray",
        live: "np.ndarray",
        h: int,
        values: "np.ndarray",
        label: str,
    ) -> None:
        self.h = h
        self.label = label
        self._parent, self._depth, self._live = parent, depth, live
        self._values = values
        self._senders = live & (parent >= 0)
        self._acc: Optional[np.ndarray] = None

    def schedule(self, net: CongestNetwork) -> PhaseSchedule:
        senders, depth, parent = self._senders, self._depth, self._parent
        n = senders.shape[1] if senders.ndim == 2 else 0
        counts = senders.sum(axis=1)
        total = int(counts.sum())
        if not total:
            return PhaseSchedule()
        # Per-tree rounds: h - (min sender depth) + 1, summed.
        masked_depth = np.where(senders, depth, self.h + 1)
        min_depth = masked_depth.min(axis=1)
        has = counts > 0
        rounds = int((self.h - min_depth[has] + 1).sum())
        rows, cols = np.nonzero(senders)
        per_node_counts = np.bincount(cols, minlength=n)
        idx = np.flatnonzero(per_node_counts)
        per_node = dict(zip(idx.tolist(), per_node_counts[idx].tolist()))
        per_edge = None
        if net.track_edges:
            keys = cols * n + parent[rows, cols]
            uniq, kcounts = np.unique(keys, return_counts=True)
            per_edge = {
                (int(k) // n, int(k) % n): int(c)
                for k, c in zip(uniq, kcounts)
            }
        return PhaseSchedule(
            rounds=rounds,
            messages=total,
            per_node_sent=per_node,
            per_edge_sent=per_edge,
        )

    def evaluate(self, net: CongestNetwork) -> "np.ndarray":
        if self._acc is not None:
            return self._acc
        senders, depth, parent = self._senders, self._depth, self._parent
        acc = np.where(self._live, self._values, 0.0)
        # One bottom-up np.add.at per depth level, over depth-sorted
        # sender coordinates (a single nonzero + argsort instead of a
        # full-matrix mask per level).  ``nonzero`` yields each tree's
        # senders in ascending id and the sort is stable, and ``add.at``
        # applies repeated indices one by one in array order, so every
        # parent folds its children in the engine's inbox order.
        rows, cols = np.nonzero(senders)
        if len(rows):
            d = depth[rows, cols]
            order = np.argsort(-d, kind="stable")
            rs, cs = rows[order], cols[order]
            ds = d[order]
            starts = np.concatenate(
                ([0], np.flatnonzero(np.diff(ds)) + 1, [len(ds)])
            )
            for a, b in zip(starts[:-1], starts[1:]):
                r, c = rs[a:b], cs[a:b]
                np.add.at(acc, (r, parent[r, c]), acc[r, c])
        self._acc = acc
        return acc


def batched_subtree_sums(
    net: CongestNetwork,
    coll: CSSSPCollection,
    xs: Sequence[int],
    values: "np.ndarray",
    label: str,
    arrays: Optional[Tuple["np.ndarray", "np.ndarray", "np.ndarray"]] = None,
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray", RoundStats]:
    """One compressed phase covering ``subtree_sums`` on every tree in ``xs``.

    ``values`` is the raw ``(len(xs), n)`` input (masked to live nodes
    internally, as the per-tree calls do).  Returns ``(acc, depth, live,
    stats)`` with ``acc[i]`` the live-subtree sums of tree ``xs[i]`` —
    bit-identical to the per-tree runs, whose merged stats equal
    ``stats``.
    """
    if arrays is None:
        arrays = collection_arrays(coll, xs)
    parent, depth, live = arrays
    phase = _CompressedSubtreeSumBatch(parent, depth, live, coll.h, values,
                                       label)
    acc, stats = net.run_compressed(phase)
    return acc, depth, live, stats


def subtree_sums(
    net: CongestNetwork,
    coll: CSSSPCollection,
    x: int,
    values: Sequence[float],
    label: str = "",
    compress: Optional[bool] = None,
) -> Tuple[List[float], RoundStats]:
    """Per-node live-subtree sums of ``values`` in tree ``T_x``.

    Returns ``sums`` with ``sums[v] = sum(values[u] for u in live
    subtree(v))`` for live ``v`` (0 elsewhere), in at most ``h + 1``
    rounds.  ``compress`` selects the round-compressed execution mode
    (default: the network's setting).
    """
    label = label or f"subtree-sums({x})"
    if net.use_compressed(compress):
        acc, _depth, _live, stats = batched_subtree_sums(
            net, coll, [x], np.asarray([values], dtype=np.float64), label
        )
        return acc[0].tolist(), stats
    t = coll.trees[x]
    programs = [
        _SubtreeSumProgram(v, t, coll.h, values[v] if t.live(v) else 0.0)
        for v in range(coll.n)
    ]
    stats = net.run(programs, label=label)
    sums = [programs[v].acc if t.live(v) else 0.0 for v in range(coll.n)]
    return sums, stats


def leaf_indicators(coll: CSSSPCollection, x: int) -> List[float]:
    """1.0 at live depth-``h`` leaves of ``T_x`` (hyperedge endpoints)."""
    t = coll.trees[x]
    return [
        1.0 if t.depth[v] == coll.h and not t.removed[v] else 0.0
        for v in range(coll.n)
    ]


def compute_scores(
    net: CongestNetwork,
    coll: CSSSPCollection,
    label: str = "scores",
    compress: Optional[bool] = None,
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
    if net.use_compressed(compress) and coll.trees:
        xs = list(coll.trees)
        arrays = collection_arrays(coll, xs)
        _, depth0, live0 = arrays
        leaf_vals = ((depth0 == coll.h) & live0).astype(np.float64)
        acc, depth, live, stats = batched_subtree_sums(
            net, coll, xs, leaf_vals, label, arrays=arrays
        )
        tree_sums = (
            {x: acc[i].tolist() for i, x in enumerate(xs)} if per_tree else {}
        )
        counted = live & (depth >= 1)
        score = np.where(counted, acc, 0.0).sum(axis=0).tolist()
        stats.label = label
        return score, tree_sums, stats
    total = RoundStats(label=label)
    score = [0.0] * coll.n
    tree_sums: Dict[int, List[float]] = {}
    for x in coll.trees:
        sums, stats = subtree_sums(
            net, coll, x, leaf_indicators(coll, x), label=f"{label}({x})",
            compress=compress,
        )
        total.merge(stats)
        if per_tree:
            tree_sums[x] = sums
        t = coll.trees[x]
        for v in range(coll.n):
            if t.depth[v] >= 1 and not t.removed[v]:
                score[v] += sums[v]
    return score, tree_sums, total


def compute_score_ij(
    net: CongestNetwork,
    coll: CSSSPCollection,
    pij_leaf: Dict[int, List[int]],
    label: str = "score-ij",
    compress: Optional[bool] = None,
) -> Tuple[List[float], RoundStats]:
    """``score_ij(v)`` — live paths in ``P_ij`` through ``v`` (Step 8, Alg. 2).

    ``pij_leaf[x]`` lists the leaves of ``T_x`` whose path is in ``P_ij``
    (each leaf knows this locally after Compute-Pij).  Same convergecast as
    :func:`compute_scores`, ``O(|S| \\cdot h)`` rounds.
    """
    xs = [x for x in coll.trees if pij_leaf.get(x)]
    if net.use_compressed(compress) and xs:
        vals = np.zeros((len(xs), coll.n))
        for i, x in enumerate(xs):
            vals[i, pij_leaf[x]] = 1.0
        acc, depth, live, stats = batched_subtree_sums(
            net, coll, xs, vals, label
        )
        counted = live & (depth >= 1)
        score = np.where(counted, acc, 0.0).sum(axis=0).tolist()
        stats.label = label
        return score, stats
    total = RoundStats(label=label)
    score = [0.0] * coll.n
    for x in coll.trees:
        values = [0.0] * coll.n
        for leaf in pij_leaf.get(x, ()):
            values[leaf] = 1.0
        if not pij_leaf.get(x):
            continue
        sums, stats = subtree_sums(net, coll, x, values, label=f"{label}({x})",
                                   compress=compress)
        total.merge(stats)
        t = coll.trees[x]
        for v in range(coll.n):
            if t.depth[v] >= 1 and not t.removed[v]:
                score[v] += sums[v]
    return score, total


__all__ = [
    "batched_subtree_sums",
    "compute_score_ij",
    "compute_scores",
    "leaf_indicators",
    "subtree_sums",
]
