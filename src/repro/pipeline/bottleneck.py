"""Bottleneck-node computation (Algorithms 13 and 14, Section A.6).

A node is a *bottleneck* if it would have to relay more than
``n \\sqrt{|Q|}`` distance values when every source pushes its value up the
in-trees of the collection ``C_Q``.  Algorithm 14 computes
``count_{v,c}`` — the number of live nodes in ``v``'s subtree of ``T_c``,
i.e. the messages ``v`` must forward to its parent — with one fixed-schedule
subtree-sum convergecast per tree (``h + 1`` rounds each).  Algorithm 13
then repeatedly broadcasts the per-node totals, moves the maximum-total node
into ``B``, and detaches its subtrees everywhere while patching the counts
(the pipelined :class:`~repro.csssp.pruning.ParallelPruner`, ``O(n)``
rounds per pick, standing in for the "[2, 1] techniques" of Step 6).

Guarantees measured by experiment F5: ``|B| <= sqrt(|Q|)`` (Lemma A.16),
residual ``total\\_count <= n \\sqrt{|Q|}`` everywhere (Lemma A.15), round
cost ``O(n \\sqrt{|Q|} + h |Q|)`` (Lemma A.17).

The collection is pruned *in place*: after this phase ``C_Q`` is exactly
the pruned collection Algorithm 9 Step 5 would otherwise have to produce
again, so the orchestrator charges nothing extra for that step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.congest.metrics import PhaseLog, RoundStats
from repro.congest.network import CongestNetwork
from repro.csssp.collection import CSSSPCollection
from repro.csssp.pruning import ParallelPruner
from repro.blocker.scores import batched_subtree_sums, subtree_sums
from repro.congest.compressed import collection_arrays
from repro.primitives.bfs import build_bfs_tree
from repro.primitives.broadcast import gather_and_broadcast


@dataclass
class BottleneckResult:
    """Outcome of Algorithm 13.

    ``totals`` are the per-node residual message loads after pruning —
    every entry is at most the threshold (Lemma A.15).
    """

    bottlenecks: List[int]
    threshold: float
    totals: List[float]
    stats: RoundStats
    log: PhaseLog = field(default_factory=PhaseLog)

    @property
    def max_residual(self) -> float:
        return max(self.totals, default=0.0)


def message_counts(
    net: CongestNetwork,
    coll: CSSSPCollection,
    label: str = "compute-count",
    compress: Optional[bool] = None,
) -> Tuple[Dict[int, List[float]], RoundStats]:
    """Algorithm 14 for every tree: ``count_{v,c}`` = live subtree size.

    One fixed-schedule subtree-sum convergecast per tree; compressed, all
    of them evaluate as a single stacked phase.
    """
    if net.use_compressed(compress) and coll.trees:
        xs = list(coll.trees)
        arrays = collection_arrays(coll, xs)
        ones = arrays[2].astype(float)  # live indicators
        acc, _depth, _live, stats = batched_subtree_sums(
            net, coll, xs, ones, label, arrays=arrays
        )
        stats.label = label
        return {x: acc[i].tolist() for i, x in enumerate(xs)}, stats
    total = RoundStats(label=label)
    counts: Dict[int, List[float]] = {}
    for c, t in coll.trees.items():
        ones = [1.0 if t.live(v) else 0.0 for v in range(coll.n)]
        sums, stats = subtree_sums(net, coll, c, ones, label=f"{label}({c})",
                                   compress=False)
        total.merge(stats)
        counts[c] = sums
    return counts, total


def compute_bottleneck(
    net: CongestNetwork,
    coll: CSSSPCollection,
    threshold: Optional[float] = None,
    label: str = "bottleneck",
    compress: Optional[bool] = None,
) -> BottleneckResult:
    """Algorithm 13: find and remove the bottleneck set ``B``.

    ``threshold`` defaults to the paper's ``n \\sqrt{|Q|}``; benches lower
    it to exercise multi-pick runs on small graphs.  Mutates ``coll``
    (subtrees of chosen nodes are detached).  ``compress`` selects the
    round-compressed execution of every sub-phase (default: the
    network's setting).
    """
    n = coll.n
    q = len(coll.trees)
    if threshold is None:
        threshold = n * math.sqrt(q)
    log = PhaseLog()

    counts, stats = message_counts(net, coll, compress=compress)  # Step 1
    log.add("compute-counts", stats)
    pruner = ParallelPruner(net, coll, counts)  # Step 2 totals

    bfs, stats = build_bfs_tree(net, compress=compress)
    log.add("bfs-tree", stats)

    bottlenecks: List[int] = []
    while True:
        # Step 4: broadcast ID(v) and total_count_v (nodes with zero load
        # stay silent; the paper's bound charges O(n) per iteration).
        items = [
            [(v, float(pruner.totals[v]))] if pruner.totals[v] > 0 else []
            for v in range(n)
        ]
        received, stats = gather_and_broadcast(
            net, bfs, items, label="broadcast-counts", compress=compress
        )
        log.add("broadcast-counts", stats)
        view = received[bfs.root]
        over = [(total, v) for (v, total) in view if total > threshold]
        if not over:
            break
        # Step 5: maximum total, ties to smaller id.
        _best_total, b = max(over, key=lambda tv: (tv[0], -tv[1]))
        bottlenecks.append(b)
        # Step 6: detach b's subtrees everywhere and patch counts.
        stats = pruner.remove([b], label="bottleneck-prune",
                              compress=compress)
        log.add("bottleneck-prune", stats)

    return BottleneckResult(
        bottlenecks=bottlenecks,
        threshold=threshold,
        totals=list(pruner.totals),
        stats=log.total(label),
        log=log,
    )


__all__ = ["BottleneckResult", "compute_bottleneck", "message_counts"]
