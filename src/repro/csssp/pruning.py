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
from typing import Deque, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.congest.compressed import CompressedPhase, stacked_trees
from repro.congest.metrics import RoundStats
from repro.congest.network import CongestNetwork
from repro.congest.node import _SILENT, Ctx, NodeProgram
from repro.csssp.collection import CSSSPCollection


class _SequentialRemoveProgram(NodeProgram):
    """Algorithm 6 for one tree: flood the removal notice down."""

    __slots__ = ("tree", "_start")

    def __init__(self, node: int, tree, start: bool) -> None:
        super().__init__(node)
        self.tree = tree
        self._start = start
        self.active = start  # the rest wait for a notice

    def on_round(self, ctx: Ctx) -> None:
        v = ctx.node
        fire = False
        if ctx.round == 0 and self._start:
            fire = not self.tree.removed[v]
        for _src, kind, _payload in ctx.inbox:
            if kind == "rm" and not self.tree.removed[v]:
                fire = True
        if fire:
            self.tree.removed[v] = True
            for c in self.tree.live_children(v):
                ctx.send(c, "rm")
        self.active = False


class _CompressedSubtreeRemove(CompressedPhase):
    """Round-compressed `_SequentialRemoveProgram`: every tree's flood at once.

    The starts are the removal roots' live copies at depth >= 1 in every
    tree.  They fire in round 0, and the notice reaches a node ``f``
    rounds after its nearest start ancestor-or-self.  The phase runs one
    top-down wave over all trees together, tick by tick through the
    static child lists of :class:`~repro.congest.compressed.StackedTrees`,
    so it costs the number of nodes it detaches.  Each tick yields the
    fire ticks and the sends of the nodes firing in it, and replays one
    engine-order rule: a start directly under a firing node ``u`` gets the
    notice only when ``f == 0 and c > u`` (``u`` is itself a start and is
    processed first); otherwise the start has detached itself already.

    Per tree, the flood's rounds are its last sending tick plus one, and
    the phase charges their sum, as the per-tree runs would.  The wave
    then flips the detached nodes' flags with one flat write into the
    collection's ``(T, n)`` ``removed`` array, the one store the
    trees' ``removed`` rows view and the next phase's live mask reads.
    So the selectors, the centralized checks and the message-level oracle
    see the same state.
    """

    def __init__(self, coll: CSSSPCollection, rootset: Sequence[int],
                 label: str) -> None:
        self.coll = coll
        self.label = label
        self.stack, self.live = stacked_trees(coll)
        n = self.stack.n
        rows = np.arange(self.stack.shape[0], dtype=np.int64)
        cand = (rows[:, None] * n
                + np.asarray(rootset, dtype=np.int64)[None, :]).ravel()
        keep = self.live.ravel()[cand] & self.stack.nonroot.ravel()[cand]
        self.starts = np.sort(cand[keep])

    def run(self, net: CongestNetwork) -> Tuple[None, RoundStats]:
        stack, starts = self.stack, self.starts
        n = stack.n
        live = self.live.ravel()
        ptr, child_idx = stack.child_ptr, stack.child_idx
        is_start = np.zeros(live.size, dtype=bool)
        is_start[starts] = True
        last_tick = np.full(stack.shape[0], -1, dtype=np.int64)
        per_node = np.zeros(n, dtype=np.int64)
        fired = [starts]
        frontier = starts
        tick = 0
        while frontier.size:
            lo = ptr[frontier]
            count = ptr[frontier + 1] - lo
            offset = np.repeat(lo - (np.cumsum(count) - count), count)
            kids = child_idx[offset + np.arange(int(count.sum()))]
            owner = np.repeat(frontier, count)
            alive = live[kids]
            kids, owner = kids[alive], owner[alive]
            inner = ~is_start[kids]
            send = inner | (kids > owner) if tick == 0 else inner
            senders = owner[send]
            per_node += np.bincount(senders % n, minlength=n)
            last_tick[senders // n] = tick
            frontier = kids[inner]
            fired.append(frontier)
            tick += 1
        self.coll.removed.flat[np.concatenate(fired)] = True
        return None, RoundStats.from_sends((last_tick + 1).sum(), per_node)


def remove_subtrees_sequential(
    net: CongestNetwork,
    coll: CSSSPCollection,
    roots: Iterable[int],
    label: str = "remove-subtrees",
) -> RoundStats:
    """Algorithm 6: detach subtrees rooted at ``roots`` in every tree.

    A root is removed from tree ``T_x`` only where it sits at depth >= 1
    (a node never "covers" the paths of its own tree from the root slot).
    One flood phase per source, ``O(h)`` rounds each; round-compressed,
    every tree's flood runs as one phase.
    """
    rootset = sorted(set(roots))
    total = RoundStats(label=label)
    if net.compress:
        phase = _CompressedSubtreeRemove(coll, rootset, label)
        if phase.starts.size:
            _, stats = net.run_compressed(phase)
            total.merge(stats)
        return total
    for x, t in coll.trees.items():
        startset = {
            v for v in rootset if t.depth[v] >= 1 and not t.removed[v]
        }
        if not startset:
            continue
        live = t.live_list()
        programs = [
            _SequentialRemoveProgram(v, t, v in startset) if live[v]
            else _SILENT
            for v in range(t.n)
        ]
        total.merge(net.run(programs, label=f"{label}({x})"))
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
        for _src, kind, payload in ctx.inbox:
            if kind == "rm":
                (x,) = payload
                if not coll.trees[x].removed[v]:
                    self._detach(x)
            elif kind == "sub":
                x, delta = payload
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
    ``agg`` / ``totals`` come out bit-identical; the stats count the
    sends the replay performed.  The replay mutates the pruner's
    collection and aggregates.
    """

    def __init__(self, pruner: "ParallelPruner", rootset: Tuple[int, ...],
                 label: str) -> None:
        self.pruner = pruner
        self.rootset = rootset
        self.label = label

    def run(self, net: CongestNetwork) -> Tuple[None, RoundStats]:
        coll = self.pruner.coll
        agg = self.pruner.agg
        totals = self.pruner.totals
        n = net.n

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

        sent = [0] * n
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
                        sent[v] += 1
                        last_send = tick
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
        return None, RoundStats.from_sends(last_send + 1, sent)


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

    def remove(self, roots: Sequence[int], label: str = "prune") -> RoundStats:
        """Detach the subtrees of ``roots`` in every tree, updating aggregates.

        ``O(|S| + h)`` rounds per call (one subtraction per tree climbs at
        most ``h`` edges; per-edge FIFOs drain one notice per round).
        On a compressing network the removal is an exact replay.
        """
        rootset = tuple(sorted(set(roots)))
        if self.net.compress:
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
