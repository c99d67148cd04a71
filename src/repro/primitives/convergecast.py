"""Tree aggregation primitives.

Two flavors are used throughout the paper's algorithms:

* :func:`aggregate_and_broadcast` — combine one small value per node with an
  associative operator at the BFS root and downcast the result
  (``O(height)`` rounds).  Used for the ``max score`` / ``|P_ij|`` /
  termination tests that the paper implements with ``O(n)`` all-to-all
  broadcasts (Algorithm 5); tree aggregation computes the same quantity in
  fewer rounds, which only strengthens the measured bounds.
* :func:`pipelined_vector_sum` — the fixed-schedule pipelined sum of
  Algorithms 11 and 12: every node holds a vector indexed by sample point
  ``μ``; the tree sums component-wise, one component per round per edge,
  finishing all ``N`` components in ``height + N`` rounds (Lemmas A.13,
  A.14).  Optionally downcasts the totals so every node learns them.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.congest.compressed import (
    CompressedPhase,
    PhaseSchedule,
    bottom_up_order,
    max_internal_depth,
    pipelined_sum_rounds,
    subtree_heights,
    tree_wave_schedule,
)
from repro.congest.metrics import RoundStats
from repro.congest.network import CongestNetwork
from repro.congest.node import Ctx, NodeProgram
from repro.primitives.bfs import BFSTree

Value = tuple


class _AggregateProgram(NodeProgram):
    __slots__ = ("tree", "combine", "acc", "pending", "result", "_sent")

    def __init__(
        self,
        node: int,
        tree: BFSTree,
        value: Value,
        combine: Callable[[Value, Value], Value],
    ) -> None:
        super().__init__(node)
        self.tree = tree
        self.combine = combine
        self.acc = value
        self.pending = set(tree.children[node])
        self.result: Optional[Value] = None
        self._sent = False

    def on_round(self, ctx: Ctx) -> None:
        v = ctx.node
        tree = self.tree
        for src, kind, payload in ctx.inbox:
            if kind == "agg":
                self.pending.discard(src)
                self.acc = self.combine(self.acc, payload)
            elif kind == "res":
                self.result = payload
                for c in tree.children[v]:
                    ctx.send(c, "res", self.result)
        if not self._sent and not self.pending:
            self._sent = True
            if v == tree.root:
                self.result = self.acc
                for c in tree.children[v]:
                    ctx.send(c, "res", self.result)
            else:
                ctx.send(tree.parent[v], "agg", self.acc)
        self.active = False


class _CompressedAggregate(CompressedPhase):
    """Round-compressed `_AggregateProgram`: fold bottom-up, engine order.

    The fold replays the oracle's combine order exactly: a node combines
    its children's accumulators in arrival order — ascending ``(fire
    tick, id)``, where a child's fire tick is its subtree height — so
    non-commutative-in-floats combines still produce the identical
    result.
    """

    def __init__(
        self,
        tree: BFSTree,
        values: Sequence[Value],
        combine: Callable[[Value, Value], Value],
        label: str,
    ) -> None:
        self.tree = tree
        self.values = values
        self.combine = combine
        self.label = label

    def schedule(self, net: CongestNetwork) -> PhaseSchedule:
        # Identical traffic shape to the height wave: one message up per
        # non-root node, the answer forwarded down every child edge.
        return tree_wave_schedule(self.tree, net.track_edges)

    def evaluate(self, net: CongestNetwork) -> Value:
        tree = self.tree
        fire = subtree_heights(tree.children, tree.root)
        acc: List[Optional[Value]] = [None] * tree.n
        for v in bottom_up_order(tree.children, tree.root):
            value = self.values[v]
            for c in sorted(tree.children[v], key=lambda c: (fire[c], c)):
                value = self.combine(value, acc[c])
            acc[v] = value
        return acc[tree.root]


def aggregate_and_broadcast(
    net: CongestNetwork,
    tree: BFSTree,
    values: Sequence[Value],
    combine: Callable[[Value, Value], Value],
    label: str = "aggregate",
) -> Tuple[Value, RoundStats]:
    """Combine one constant-size tuple per node; everyone learns the result.

    ``combine`` must be associative and commutative (sum, max, lexicographic
    max-with-id, ...).  Cost: at most ``2·height + 2`` rounds.
    """
    if net.compress:
        return net.run_compressed(
            _CompressedAggregate(tree, values, combine, label)
        )
    programs = [_AggregateProgram(v, tree, values[v], combine) for v in range(net.n)]
    stats = net.run(programs, label=label)
    result = programs[tree.root].result
    assert all(p.result == result for p in programs), "aggregate downcast diverged"
    return result, stats


# ---------------------------------------------------------------------------
# convenience combiners


def max_with_argmax(a: Value, b: Value) -> Value:
    """Combine ``(value, id)`` pairs: larger value wins, ties to smaller id."""
    if (b[0], -b[1]) > (a[0], -a[1]):
        return b
    return a


def tuple_sum(a: Value, b: Value) -> Value:
    """Component-wise sum of equal-length numeric tuples."""
    return tuple(x + y for x, y in zip(a, b))


class _PipelinedSumProgram(NodeProgram):
    """Fixed-schedule pipelined component-wise sum (Algorithms 11/12).

    Node ``v`` at depth ``d`` sends the subtree sum for component ``μ`` at
    tick ``(H - d) + μ`` where ``H`` is the tree height; its children (depth
    ``d + 1``) sent theirs at tick ``(H - d - 1) + μ``, delivered exactly
    when needed.  With ``broadcast_result`` the root streams the totals back
    down, one component per round.
    """

    __slots__ = ("tree", "acc", "n_comp", "bcast", "totals")

    def __init__(
        self,
        node: int,
        tree: BFSTree,
        vector: Sequence[float],
        broadcast_result: bool,
    ) -> None:
        super().__init__(node)
        self.tree = tree
        self.acc = list(vector)
        self.n_comp = len(vector)
        self.bcast = broadcast_result
        self.totals: Optional[List[float]] = [0.0] * self.n_comp if (
            node == tree.root or broadcast_result
        ) else None

    def on_round(self, ctx: Ctx) -> None:
        v = ctx.node
        tree = self.tree
        H = tree.height
        d = tree.depth[v]
        root = v == tree.root
        for _src, kind, payload in ctx.inbox:
            if kind == "pv":
                mu, val = payload
                assert mu == ctx.round - (H - d), "pipelined schedule violated"
                self.acc[mu] += val
            elif kind == "pt":
                mu, val = payload
                self.totals[mu] = val
                for c in tree.children[v]:
                    ctx.send(c, "pt", (mu, val))
        if not root:
            mu = ctx.round - (H - d)
            if 0 <= mu < self.n_comp:
                ctx.send(tree.parent[v], "pv", (mu, self.acc[mu]))
        else:
            mu_done = ctx.round - H  # component mu completed at tick H + mu
            if 0 <= mu_done < self.n_comp:
                self.totals[mu_done] = self.acc[mu_done]
                if self.bcast:
                    for c in tree.children[v]:
                        ctx.send(c, "pt", (mu_done, self.totals[mu_done]))
        # Keep the fixed schedule alive until this node's last slot.
        last_tick = (H - d) + self.n_comp - 1 if not root else H + self.n_comp - 1
        self.active = ctx.round < last_tick


class _CompressedPipelinedSum(CompressedPhase):
    """Round-compressed `_PipelinedSumProgram`: one numpy add per tree edge.

    The oracle accumulates each component with Python-float adds, children
    in ascending id; numpy float64 row adds in the same bottom-up order
    perform the identical IEEE-754 operations, so the totals are
    bit-identical while all ``N`` components ride one vectorized add per
    edge instead of ``N`` messages.
    """

    def __init__(
        self,
        tree: BFSTree,
        vectors: Sequence[Sequence[float]],
        broadcast_result: bool,
        label: str,
    ) -> None:
        self.tree = tree
        self.vectors = vectors
        self.bcast = broadcast_result
        self.label = label
        self.n_comp = len(vectors[0]) if len(vectors) else 0

    def schedule(self, net: CongestNetwork) -> PhaseSchedule:
        tree = self.tree
        n = tree.n
        n_comp = self.n_comp
        if n <= 1 or n_comp == 0:
            return PhaseSchedule()
        per_node = {}
        for v in range(n):
            sent = n_comp if v != tree.root else 0
            if self.bcast:
                sent += n_comp * len(tree.children[v])
            if sent:
                per_node[v] = sent
        per_edge = None
        if net.track_edges:
            per_edge = {}
            for v in range(n):
                if v != tree.root:
                    per_edge[(v, tree.parent[v])] = n_comp
                if self.bcast:
                    for c in tree.children[v]:
                        per_edge[(v, c)] = n_comp
        messages = (n - 1) * n_comp * (2 if self.bcast else 1)
        return PhaseSchedule(
            rounds=pipelined_sum_rounds(
                n,
                tree.height,
                n_comp,
                max_internal_depth(tree.children, tree.depth),
                self.bcast,
            ),
            messages=messages,
            per_node_sent=per_node,
            per_edge_sent=per_edge,
        )

    def evaluate(self, net: CongestNetwork) -> List[float]:
        tree = self.tree
        acc = np.array(self.vectors, dtype=np.float64)
        for v in bottom_up_order(tree.children, tree.root):
            for c in sorted(tree.children[v]):
                acc[v] += acc[c]
        return acc[tree.root].tolist()


def pipelined_vector_sum(
    net: CongestNetwork,
    tree: BFSTree,
    vectors: Sequence[Sequence[float]],
    broadcast_result: bool = False,
    label: str = "pipelined-sum",
) -> Tuple[List[float], RoundStats]:
    """Sum per-node vectors component-wise at the root (Algorithms 11/12).

    Cost: ``height + N`` rounds for ``N`` components, plus another
    ``height + N`` when ``broadcast_result`` — the ``O(n)`` bound of
    Lemmas A.13/A.14 since ``N = O(n)`` sample points there.
    """
    widths = {len(vec) for vec in vectors}
    if len(widths) != 1:
        raise ValueError("all nodes must hold vectors of the same length")
    if net.compress:
        return net.run_compressed(
            _CompressedPipelinedSum(tree, vectors, broadcast_result, label)
        )
    programs = [
        _PipelinedSumProgram(v, tree, vectors[v], broadcast_result)
        for v in range(net.n)
    ]
    stats = net.run(programs, label=label)
    totals = list(programs[tree.root].totals)
    if broadcast_result:
        for p in programs:
            assert list(p.totals) == totals, "total downcast diverged"
    return totals, stats


__all__ = [
    "aggregate_and_broadcast",
    "max_with_argmax",
    "pipelined_vector_sum",
    "tuple_sum",
]
