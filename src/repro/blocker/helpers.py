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
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.congest.compressed import (
    CompressedPhase,
    PhaseSchedule,
    collection_arrays,
    live_child_counts,
    tree_arrays,
)
from repro.congest.metrics import RoundStats
from repro.congest.network import CongestNetwork
from repro.congest.node import Ctx, NodeProgram
from repro.csssp.collection import CSSSPCollection, TreeView
from repro.primitives.bfs import BFSTree
from repro.primitives.broadcast import gather_and_broadcast


class _ViCountProgram(NodeProgram):
    """Algorithm 4 for one tree: flood the V_i-member count down."""

    __slots__ = ("tree", "in_vi", "beta")

    def __init__(self, node: int, tree: TreeView, in_vi: bool) -> None:
        super().__init__(node)
        self.tree = tree
        self.in_vi = in_vi
        self.beta = -1
        if tree.live(node) and tree.depth[node] == 0:
            self.beta = 0  # the root slot never counts (hyperedges exclude it)
        self.active = self.beta == 0

    def on_round(self, ctx: Ctx) -> None:
        v = ctx.node
        t = self.tree
        for msg in ctx.inbox:
            if msg.kind == "beta" and msg.src == t.parent[v] and self.beta < 0:
                self.beta = msg.payload[0] + (1 if self.in_vi else 0)
        if self.beta >= 0 and ctx.round == t.depth[v]:
            for c in t.live_children(v):
                ctx.send(c, "beta", (self.beta,))
        self.active = False


class _CompressedViCountBatch(CompressedPhase):
    """Round-compressed `_ViCountProgram`: every tree's beta flood as one phase.

    The flood is a synchronized wave — a live node at depth ``d``
    forwards the running count to each live child in round ``d`` — so a
    tree's schedule is one message per live non-root node, ending one
    round after the deepest live internal node fires.  The per-tree
    schedules sum (rounds add per tree with a live root and at least one
    live internal node), and the top-down wave runs level by level over
    the ``(T, n)`` arrays for all trees at once.
    """

    def __init__(self, coll: CSSSPCollection, xs: Sequence[int],
                 vi: Set[int], label: str) -> None:
        self.coll = coll
        self.xs = xs
        self.vi = vi
        self.label = label
        self._parent, self._depth, self._live = collection_arrays(coll, xs)
        n = coll.n
        kid_rows, kid_cols = np.nonzero(self._live & (self._parent >= 0))
        self._kid_rows, self._kid_cols = kid_rows, kid_cols
        flat = kid_rows * n + self._parent[kid_rows, kid_cols]
        lc = np.bincount(flat, minlength=len(xs) * n).reshape(len(xs), n)
        self._lc = lc
        roots = np.asarray([coll.trees[x].root for x in xs], dtype=np.int64)
        root_live = self._live[np.arange(len(xs)), roots]
        self._internal = self._live & (lc > 0)
        self._included = self._internal.any(axis=1) & root_live

    def schedule(self, net: CongestNetwork) -> PhaseSchedule:
        internal = self._internal & self._included[:, None]
        rows, cols = np.nonzero(internal)
        if not len(rows):
            return PhaseSchedule()
        n = self.coll.n
        lc = self._lc
        depth = self._depth
        masked = np.where(internal, depth, -1)
        rounds = int((masked.max(axis=1)[self._included] + 1).sum())
        sends = lc[rows, cols]
        per_node_counts = np.bincount(cols, weights=sends, minlength=n)
        idx = np.flatnonzero(per_node_counts)
        per_node = dict(zip(
            idx.tolist(), per_node_counts[idx].astype(np.int64).tolist()
        ))
        per_edge = None
        if net.track_edges:
            inc = self._included[self._kid_rows]
            krows = self._kid_rows[inc]
            kcols = self._kid_cols[inc]
            keys = self._parent[krows, kcols] * n + kcols
            uniq, kcounts = np.unique(keys, return_counts=True)
            per_edge = {
                (int(k) // n, int(k) % n): int(c)
                for k, c in zip(uniq, kcounts)
            }
        return PhaseSchedule(
            rounds=rounds,
            messages=int(sends.sum()),
            per_node_sent=per_node,
            per_edge_sent=per_edge,
        )

    def evaluate(self, net: CongestNetwork) -> Dict[int, Dict[int, int]]:
        coll = self.coll
        n = coll.n
        h = coll.h
        parent, depth, live = self._parent, self._depth, self._live
        in_vi = np.zeros(n, dtype=np.int64)
        for v in self.vi:
            if 0 <= v < n:
                in_vi[v] = 1
        beta = np.zeros(parent.shape, dtype=np.int64)
        rows, cols = np.nonzero(live & (depth >= 1))
        if len(rows):
            # Top-down wave: one assignment per depth level over
            # depth-sorted coordinates (levels never exceed h).
            d = depth[rows, cols]
            order = np.argsort(d, kind="stable")
            rs, cs = rows[order], cols[order]
            ds = d[order]
            starts = np.concatenate(
                ([0], np.flatnonzero(np.diff(ds)) + 1, [len(ds)])
            )
            for a, b in zip(starts[:-1], starts[1:]):
                r, c = rs[a:b], cs[a:b]
                beta[r, c] = beta[r, parent[r, c]] + in_vi[c]
        out: Dict[int, Dict[int, int]] = {}
        lrows, lcols = np.nonzero(live & (depth == h))
        bounds = np.searchsorted(lrows, np.arange(len(self.xs) + 1))
        col_l = lcols.tolist()
        beta_l = beta[lrows, lcols].tolist()
        for i, x in enumerate(self.xs):
            if not coll.trees[x].live(coll.trees[x].root):
                out[x] = {}
                continue
            a, b = bounds[i], bounds[i + 1]
            out[x] = dict(zip(col_l[a:b], beta_l[a:b]))
        return out


def compute_vi_counts(
    net: CongestNetwork,
    coll: CSSSPCollection,
    vi: Set[int],
    label: str = "compute-pij",
    compress: Optional[bool] = None,
) -> Tuple[Dict[int, Dict[int, int]], RoundStats]:
    """Per-leaf ``V_i``-member counts for every live length-``h`` path.

    Returns ``(beta, stats)`` with ``beta[x][leaf]`` = number of depth>=1
    nodes of the root-to-``leaf`` path of ``T_x`` that are in ``vi``, for
    every live leaf at depth ``h``.  One ``O(h)``-round flood per tree
    (Algorithms 3/4; Lemmas 3.3/3.4), ``O(|S| \\cdot h)`` in total.
    ``compress`` selects the round-compressed execution mode (default:
    the network's setting).
    """
    if net.use_compressed(compress) and coll.trees:
        xs = list(coll.trees)
        phase = _CompressedViCountBatch(coll, xs, vi, label)
        beta, stats = net.run_compressed(phase)
        stats.label = label
        return beta, stats
    total = RoundStats(label=label)
    beta: Dict[int, Dict[int, int]] = {}
    for x, t in coll.trees.items():
        programs = [_ViCountProgram(v, t, v in vi) for v in range(coll.n)]
        total.merge(net.run(programs, label=f"{label}({x})"))
        beta[x] = {
            v: programs[v].beta
            for v in range(coll.n)
            if t.depth[v] == coll.h and not t.removed[v]
        }
    return beta, total


def paths_with_min_count(
    beta: Dict[int, Dict[int, int]], threshold: float
) -> Dict[int, List[int]]:
    """Leaves whose path has at least ``threshold`` V_i nodes (P_i / P_ij)."""
    return {
        x: sorted(v for v, b in leaves.items() if b >= threshold)
        for x, leaves in beta.items()
    }


def count_paths(members: Dict[int, List[int]]) -> int:
    """Total paths across all trees in a per-tree leaf map."""
    return sum(len(v) for v in members.values())


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
        for msg in ctx.inbox:
            if msg.kind == "anc" and msg.src == t.parent[v]:
                self.ancestors.append(msg.payload)
                if t.live_children(v):
                    self.queue.append(msg.payload)
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

    def __init__(self, tree: TreeView, label: str) -> None:
        self.tree = tree
        self.label = label

    def schedule(self, net: CongestNetwork) -> PhaseSchedule:
        t = self.tree
        parent, depth, live = tree_arrays(t)
        lc = live_child_counts(parent, live, t.n)
        internal = live & (lc > 0)
        if not internal.any():
            return PhaseSchedule()
        idx = np.flatnonzero(internal)
        records = depth[idx] + 1  # own record plus one per strict ancestor
        per_node = dict(zip(idx.tolist(), (records * lc[idx]).tolist()))
        per_edge = None
        if net.track_edges:
            kids = np.flatnonzero(live & (parent >= 0))
            per_edge = {
                (p, c): int(depth[p] + 1)
                for c, p in zip(kids.tolist(), parent[kids].tolist())
            }
        return PhaseSchedule(
            rounds=int(depth[idx].max()) + 1,
            messages=int((records * lc[idx]).sum()),
            per_node_sent=per_node,
            per_edge_sent=per_edge,
        )

    def evaluate(self, net: CongestNetwork) -> Dict[int, List[int]]:
        t = self.tree
        per_node: Dict[int, List[int]] = {}
        if t.live(t.root):
            per_node[t.root] = []
            stack = [t.root]
            while stack:
                v = stack.pop()
                path = per_node[v]
                for c in t.live_children(v):
                    per_node[c] = path + [v]
                    stack.append(c)
        return per_node


def collect_ancestors(
    net: CongestNetwork,
    coll: CSSSPCollection,
    label: str = "ancestors",
    compress: Optional[bool] = None,
) -> Tuple[Dict[int, Dict[int, List[int]]], RoundStats]:
    """Every live node learns the ids on its root path, in every tree.

    Returns ``(anc, stats)`` where ``anc[x][v]`` lists the strict ancestors
    of ``v`` in ``T_x`` ordered root-first (so the hyperedge ending at leaf
    ``v`` is ``anc[x][v][1:] + [v]``).  ``O(h)`` rounds per tree — each
    edge forwards one record per round and carries at most ``h`` of them.
    ``compress`` selects the round-compressed execution mode (default:
    the network's setting).
    """
    compressed = net.use_compressed(compress)
    total = RoundStats(label=label)
    anc: Dict[int, Dict[int, List[int]]] = {}
    for x, t in coll.trees.items():
        if compressed:
            per_node, stats = net.run_compressed(
                _CompressedAncestors(t, f"{label}({x})")
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
    "broadcast_selection_stats",
    "collect_ancestors",
    "compute_vi_counts",
    "count_paths",
    "paths_with_min_count",
]
