"""Distributed subtree removal.

Two protocols, matching the two cost regimes in the papers:

* :func:`remove_subtrees_sequential` — the paper's Algorithm 6, run "for
  each source in sequence": in tree ``T_x`` every removal root sends its id
  to its children and the notice floods down, detaching the subtree.
  ``O(h)`` rounds per tree, ``O(|S| \\cdot h)`` total — the cost Algorithm 2
  Step 15 budgets per selection step.

* :class:`ParallelPruner` — the pipelined variant used where a *single*
  removal must be cheap: the greedy blocker baseline of [2] (``O(n)``
  cleanup per chosen vertex) and the bottleneck-node loop of Algorithm 13
  (Step 6 "update total_count values ... in O(n) rounds").  All trees are
  pruned concurrently with one FIFO per incident edge (CONGEST allows a
  different message per edge per round), and each removal root also sends a
  *subtraction* notice up its tree so that ancestors keep their subtree
  aggregate (score / message count) exact.  A subtraction is absorbed at the
  first removed ancestor it meets, which prevents double-counting when the
  removal root sits inside an earlier removal's subtree.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.congest.compressed import (
    CompressedPhase,
    CompressedSequence,
    PhaseSchedule,
)
from repro.congest.metrics import RoundStats
from repro.congest.network import CongestNetwork
from repro.congest.node import Ctx, NodeProgram
from repro.csssp.collection import CSSSPCollection


class _SequentialRemoveProgram(NodeProgram):
    """Algorithm 6 for one tree: flood the removal notice down."""

    __slots__ = ("tree", "_start")

    def __init__(self, node: int, tree, start: bool) -> None:
        super().__init__(node)
        self.tree = tree
        self._start = start

    def on_round(self, ctx: Ctx) -> None:
        v = ctx.node
        fire = False
        if ctx.round == 0 and self._start:
            fire = not self.tree.removed[v]
        for msg in ctx.inbox:
            if msg.kind == "rm" and not self.tree.removed[v]:
                fire = True
        if fire:
            self.tree.removed[v] = True
            for c in self.tree.live_children(v):
                ctx.send(c, "rm")
        self.active = False


class _CompressedSubtreeRemove(CompressedPhase):
    """Round-compressed `_SequentialRemoveProgram` for one tree.

    The removal notice reaches a node ``fire`` rounds after its nearest
    start ancestor fires (starts fire in round 0).  One engine-order
    subtlety is replayed exactly: when a start sits directly under
    another firing node, the notice to it is sent only if the sender is
    processed first that round — i.e. never when the start fired in an
    earlier round, and only for starts with a larger node id when both
    fire in round 0.
    """

    def __init__(self, tree, starts: List[int], startset: Set[int],
                 label: str) -> None:
        self.tree = tree
        self.starts = starts
        self.startset = startset
        self.label = label
        self._fire: Optional[Dict[int, int]] = None

    def _solve(self) -> Dict[int, int]:
        if self._fire is None:
            t = self.tree
            fire: Dict[int, int] = {}
            queue = deque(self.starts)
            while queue:
                v = queue.popleft()
                if v in fire:
                    continue
                fire[v] = 0 if v in self.startset else fire[t.parent[v]] + 1
                queue.extend(t.live_children(v))
            self._fire = fire
        return self._fire

    def schedule(self, net: CongestNetwork) -> PhaseSchedule:
        t = self.tree
        startset = self.startset
        fire = self._solve()
        removed = t.removed
        per_node: Dict[int, int] = {}
        per_edge = {} if net.track_edges else None
        last_tick = -1
        for u, f in fire.items():
            sent = 0
            for c in t.children[u]:
                if removed[c]:
                    continue
                if c in startset and (f > 0 or c < u):
                    continue  # the start detached itself before this send
                sent += 1
                if per_edge is not None:
                    per_edge[(u, c)] = 1
            if sent:
                per_node[u] = sent
                if f > last_tick:
                    last_tick = f
        return PhaseSchedule(
            rounds=last_tick + 1,
            messages=sum(per_node.values()),
            per_node_sent=per_node,
            per_edge_sent=per_edge,
        )

    def evaluate(self, net: CongestNetwork) -> None:
        t = self.tree
        for v in self._solve():
            t.removed[v] = True
        return None


def remove_subtrees_sequential(
    net: CongestNetwork,
    coll: CSSSPCollection,
    roots: Iterable[int],
    label: str = "remove-subtrees",
    compress: Optional[bool] = None,
) -> RoundStats:
    """Algorithm 6: detach subtrees rooted at ``roots`` in every tree.

    A root is removed from tree ``T_x`` only where it sits at depth >= 1
    (a node never "covers" the paths of its own tree from the root slot).
    One flood phase per source, ``O(h)`` rounds each.  ``compress``
    selects the round-compressed execution mode (default: the network's
    setting).
    """
    rootset = sorted(set(roots))
    compressed = net.use_compressed(compress)
    total = RoundStats(label=label)
    batch: List[_CompressedSubtreeRemove] = []
    for x, t in coll.trees.items():
        start_nodes = [
            v for v in rootset if t.depth[v] >= 1 and not t.removed[v]
        ]
        if not start_nodes:
            continue
        if compressed:
            # One run_compressed for the whole collection: the per-tree
            # floods are independent, so their schedules compose
            # additively (CompressedSequence).
            batch.append(_CompressedSubtreeRemove(
                t, start_nodes, set(start_nodes), f"{label}({x})"
            ))
            continue
        startset = set(start_nodes)
        programs = [
            _SequentialRemoveProgram(v, t, v in startset) for v in range(t.n)
        ]
        total.merge(net.run(programs, label=f"{label}({x})"))
    if batch:
        _, stats = net.run_compressed(CompressedSequence(batch, label))
        total.merge(stats)
    return total


class _ParallelPruneProgram(NodeProgram):
    """Per-edge-FIFO flood-down + aggregate subtraction-up, all trees at once."""

    __slots__ = ("coll", "agg", "totals", "_init_roots", "_queues")

    def __init__(
        self,
        node: int,
        coll: CSSSPCollection,
        agg: Dict[int, List[float]],
        totals: List[float],
        init_roots: Sequence[int],
    ) -> None:
        super().__init__(node)
        self.coll = coll
        self.agg = agg
        self.totals = totals
        self._init_roots = init_roots
        self._queues: Dict[int, Deque[Tuple[str, tuple]]] = {}

    def _enqueue(self, dst: int, kind: str, payload: tuple) -> None:
        self._queues.setdefault(dst, deque()).append((kind, payload))

    def _detach(self, x: int, ctxless: bool = False) -> None:
        """Mark self removed in tree ``x`` and queue the down-flood."""
        t = self.coll.trees[x]
        v = self.node
        t.removed[v] = True
        self.totals[v] -= self.agg[x][v]
        for c in t.live_children(v):
            self._enqueue(c, "rm", (x,))

    def on_round(self, ctx: Ctx) -> None:
        v = ctx.node
        coll = self.coll
        if ctx.round == 0 and v in self._init_roots:
            for x, t in coll.trees.items():
                if t.depth[v] >= 1 and not t.removed[v]:
                    # Ancestors lose this whole subtree's aggregate.
                    self._enqueue(t.parent[v], "sub", (x, self.agg[x][v]))
                    self._detach(x)
        for msg in ctx.inbox:
            kind = msg.kind
            if kind == "rm":
                (x,) = msg.payload
                if not coll.trees[x].removed[v]:
                    self._detach(x)
            elif kind == "sub":
                x, delta = msg.payload
                t = coll.trees[x]
                self.agg[x][v] -= delta
                if t.removed[v]:
                    continue  # absorbed: detached subtrees report nothing up
                if t.depth[v] >= 1:
                    # Root totals never count their own tree (hyperedges
                    # exclude the depth-0 slot), so only depth >= 1 adjusts.
                    self.totals[v] -= delta
                if t.parent[v] >= 0:
                    self._enqueue(t.parent[v], "sub", (x, delta))
        for dst, q in self._queues.items():
            if q:
                kind, payload = q.popleft()
                ctx.send(dst, kind, payload)
        self.active = any(q for q in self._queues.values())


class _CompressedParallelPrune(CompressedPhase):
    """Round-compressed `_ParallelPruneProgram`: exact per-edge-FIFO replay.

    The prune's dynamics — rm floods down, aggregate subtractions up, one
    notice per incident edge per round — are deterministic functions of
    the tree state, so the phase replays them with plain deques keyed
    exactly as the programs key theirs (per-destination, in creation
    order, empties retained) and in the engine's node order (ascending id
    within a round).  Float subtractions land in the engine's order, so
    ``agg`` / ``totals`` come out bit-identical; the schedule records the
    sends the replay performed.

    The replay mutates the pruner's collection and aggregates when first
    solved (from :meth:`schedule`); :meth:`evaluate` just returns.
    """

    def __init__(self, pruner: "ParallelPruner", rootset: Tuple[int, ...],
                 label: str) -> None:
        self.pruner = pruner
        self.rootset = rootset
        self.label = label
        self._sched: Optional[PhaseSchedule] = None

    def _solve(self, net: CongestNetwork) -> None:
        if self._sched is not None:
            return
        coll = self.pruner.coll
        agg = self.pruner.agg
        totals = self.pruner.totals
        n = net.n
        track_edges = net.track_edges

        # queues[v]: dst -> FIFO of (kind, payload); like the programs,
        # drained deques stay in the dict so the service order (dict
        # insertion order) matches the engine run exactly.
        queues: List[Dict[int, Deque[Tuple[str, tuple]]]] = [
            {} for _ in range(n)
        ]

        def enqueue(v: int, dst: int, kind: str, payload: tuple) -> None:
            q = queues[v].get(dst)
            if q is None:
                queues[v][dst] = q = deque()
            q.append((kind, payload))

        def detach(v: int, x: int) -> None:
            t = coll.trees[x]
            t.removed[v] = True
            totals[v] -= agg[x][v]
            for c in t.live_children(v):
                enqueue(v, c, "rm", (x,))

        per_node: Dict[int, int] = {}
        per_edge: Optional[Dict[Tuple[int, int], int]] = (
            {} if track_edges else None
        )
        messages = 0
        last_send = -1
        has_work: set = set()  # nodes with a nonempty queue
        inboxes: Dict[int, List[Tuple[str, tuple]]] = {}
        rootset = self.rootset
        # Round 0: every program wakes; only roots create work.
        woken: List[int] = sorted(set(rootset))
        tick = 0
        while True:
            next_inboxes: Dict[int, List[Tuple[str, tuple]]] = {}
            for v in woken:
                if tick == 0 and v in rootset:
                    for x, t in coll.trees.items():
                        if t.depth[v] >= 1 and not t.removed[v]:
                            enqueue(v, t.parent[v], "sub", (x, agg[x][v]))
                            detach(v, x)
                for kind, payload in inboxes.get(v, ()):
                    if kind == "rm":
                        (x,) = payload
                        if not coll.trees[x].removed[v]:
                            detach(v, x)
                    else:  # "sub"
                        x, delta = payload
                        t = coll.trees[x]
                        agg[x][v] -= delta
                        if t.removed[v]:
                            continue  # absorbed
                        if t.depth[v] >= 1:
                            totals[v] -= delta
                        if t.parent[v] >= 0:
                            enqueue(v, t.parent[v], "sub", (x, delta))
                busy = False
                for dst, q in queues[v].items():
                    if q:
                        kind, payload = q.popleft()
                        next_inboxes.setdefault(dst, []).append((kind, payload))
                        per_node[v] = per_node.get(v, 0) + 1
                        messages += 1
                        last_send = tick
                        if per_edge is not None:
                            ekey = (v, dst)
                            per_edge[ekey] = per_edge.get(ekey, 0) + 1
                        if q:
                            busy = True
                if busy:
                    has_work.add(v)
                else:
                    has_work.discard(v)
            inboxes = next_inboxes
            wake = has_work.union(next_inboxes)
            tick += 1
            if not wake:
                break
            woken = sorted(wake)
        self._sched = PhaseSchedule(
            rounds=last_send + 1,
            messages=messages,
            per_node_sent=per_node,
            per_edge_sent=per_edge,
        )

    def schedule(self, net: CongestNetwork) -> PhaseSchedule:
        self._solve(net)
        return self._sched

    def evaluate(self, net: CongestNetwork) -> None:
        self._solve(net)
        return None


class ParallelPruner:
    """Maintains per-tree subtree aggregates under repeated removals.

    Parameters
    ----------
    net, coll:
        Engine and the (mutable) collection to prune.
    agg:
        ``{source: per-node aggregate}`` — any subtree-additive quantity
        (depth-``h`` leaf counts for scores, subtree sizes for Algorithm 13
        message counts).  Must equal the subtree sums over *live* nodes at
        construction time; the pruner keeps that invariant.

    ``totals[v]`` is node ``v``'s current total over trees where it is
    live — exactly ``total_count_v`` of Algorithm 13 Step 2 / the node
    score of the greedy baseline.
    """

    def __init__(
        self,
        net: CongestNetwork,
        coll: CSSSPCollection,
        agg: Dict[int, List[float]],
    ) -> None:
        self.net = net
        self.coll = coll
        self.agg = agg
        self.totals: List[float] = [0.0] * coll.n
        for x, values in agg.items():
            t = coll.trees[x]
            for v in range(coll.n):
                if t.live(v) and t.depth[v] >= 1:
                    self.totals[v] += values[v]

    def remove(self, roots: Sequence[int], label: str = "prune",
               compress: Optional[bool] = None) -> RoundStats:
        """Detach the subtrees of ``roots`` in every tree, updating aggregates.

        ``O(|S| + h)`` rounds per call (one subtraction per tree climbs at
        most ``h`` edges; per-edge FIFOs drain one notice per round).
        ``compress`` selects the round-compressed exact replay (default:
        the network's setting).
        """
        rootset = tuple(sorted(set(roots)))
        if self.net.use_compressed(compress):
            _, stats = self.net.run_compressed(
                _CompressedParallelPrune(self, rootset, label)
            )
            return stats
        programs = [
            _ParallelPruneProgram(v, self.coll, self.agg, self.totals, rootset)
            for v in range(self.net.n)
        ]
        return self.net.run(programs, label=label)


__all__ = ["ParallelPruner", "remove_subtrees_sequential"]
