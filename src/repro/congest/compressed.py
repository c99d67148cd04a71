"""Round-compressed execution of fixed-schedule phases.

Many of the paper's protocols are *fixed-schedule*: every node's send
pattern — which rounds it sends in, along which tree edges, how many
messages — is a function of the static tree shape alone, never of the
data the messages carry.  Simulating such a phase through the message
engine is pure overhead: the engine materializes every message, wakes
every node every round, and validates traffic that is correct by
construction.  At n = 256 the deterministic APSP spends ~90% of all
rounds inside Step 2's fixed-schedule floods and convergecasts.

:class:`CompressedPhase` is the alternative execution mode.  A phase
declares its communication schedule — a :class:`PhaseSchedule` holding
the rounds charged plus the per-node and per-edge send totals, all
derived analytically from the tree shape — and evaluates its aggregate
result directly, with vectorized numpy or plain bottom-up folds that
replay the engine's delivery order exactly.
:meth:`~repro.congest.network.CongestNetwork.run_compressed` then
advances the engine's cumulative accounting by the declared schedule, so
the resulting :class:`~repro.congest.metrics.RoundStats` are
**bit-identical** to a message-level run: same round count, same message
totals, same per-node congestion, and (under ``track_edges``) the same
per-edge loads.  Floating-point aggregates replay the engine's exact
combine order — children in ascending node id within a round, rounds in
tick order — so even non-associative float sums match bit-for-bit.

The message-level implementations stay in place as the strict oracle
behind each primitive's ``compress`` flag;
``tests/test_compressed_equivalence.py`` is the differential harness
that proves the equivalence phase by phase, and
``tests/test_compressed_schedule.py`` property-tests the schedule
formulas below against engine runs on random trees.

Soundness caveat: compressed evaluation assumes the tree state it reads
is *subtree-consistent* (removals always detach whole subtrees — the
invariant every pruning protocol in this repository maintains).  Phases
whose schedule depends on message contents (adaptive protocols) are
compressed only where their dynamics are deterministic and replayed
exactly — Bellman-Ford, see
:class:`repro.primitives.bellman_ford._BatchedBellmanFordSolver`; every
other adaptive phase runs through the engine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.congest.metrics import RoundStats


@dataclass
class PhaseSchedule:
    """The analytically-derived accounting of one fixed-schedule phase.

    Exactly the quantities the engine would have measured: rounds charged
    (last tick with a send, plus one), total messages, per-node send
    totals (nodes with zero sends omitted, as the engine omits them) and
    — when the network tracks edges — per-directed-edge send totals.
    """

    rounds: int = 0
    messages: int = 0
    per_node_sent: Dict[int, int] = field(default_factory=dict)
    per_edge_sent: Optional[Dict[Tuple[int, int], int]] = None

    def to_stats(self, label: str = "", track_edges: bool = False) -> RoundStats:
        """Materialize the schedule as the phase's :class:`RoundStats`."""
        per_edge: Dict[Tuple[int, int], int] = {}
        if track_edges and self.per_edge_sent:
            per_edge = {e: c for e, c in self.per_edge_sent.items() if c}
        return RoundStats(
            rounds=self.rounds,
            messages=self.messages,
            per_node_sent={v: c for v, c in self.per_node_sent.items() if c},
            per_edge_sent=per_edge,
            label=label,
        )


class CompressedPhase:
    """Protocol for a phase executable without materializing messages.

    Implementations declare the phase's communication schedule
    (:meth:`schedule`) and compute its aggregate result directly
    (:meth:`evaluate`); both receive the network so they can read the
    adjacency and the ``track_edges`` flag.  The contract — enforced by
    the differential harness — is that ``run_compressed(phase)`` returns
    the same result and the same stats as running the phase's
    message-level oracle through :meth:`CongestNetwork.run`.
    """

    label: str = ""

    def schedule(self, net) -> PhaseSchedule:  # pragma: no cover - interface
        """The phase's analytic :class:`PhaseSchedule` on ``net``."""
        raise NotImplementedError

    def evaluate(self, net):  # pragma: no cover - interface
        """The phase's aggregate result (whatever the oracle computes)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# schedule math shared by the ported phases (property-tested against the
# engine in tests/test_compressed_schedule.py)


def subtree_heights(children: Sequence[Sequence[int]], root: int) -> List[int]:
    """``h[v]`` = height of ``v``'s subtree (0 at leaves), iteratively.

    This is also the tick at which ``v``'s "my subtree is done" message
    fires in the bottom-up half of the aggregation protocols (a leaf
    reports in round 0; an internal node one round after its slowest
    child).
    """
    heights = [0] * len(children)
    for v in bottom_up_order(children, root):
        if children[v]:
            heights[v] = 1 + max(heights[c] for c in children[v])
    return heights


def max_internal_depth(
    children: Sequence[Sequence[int]], depth: Sequence[int]
) -> int:
    """Deepest node that has children (-1 when every node is a leaf).

    The downcast half of every tree protocol ends with this node's last
    forward, so it closes all the round formulas below.
    """
    best = -1
    for v, cs in enumerate(children):
        if cs and depth[v] > best:
            best = depth[v]
    return best


def aggregate_rounds(n: int, height: int, internal_depth: int) -> int:
    """Rounds of one up-then-down tree aggregation (``2·height``-style).

    The convergecast reaches the root in round ``height`` (leaves fire in
    round 0, each internal node one round after its slowest child); the
    root's answer is then forwarded without stalls, with the last send by
    the deepest internal node at tick ``height + internal_depth``.
    """
    if n <= 1:
        return 0
    return height + internal_depth + 1


def pipelined_sum_rounds(
    n: int,
    height: int,
    n_comp: int,
    internal_depth: int,
    broadcast_result: bool,
) -> int:
    """Rounds of the Algorithm 11/12 pipelined sum of ``n_comp`` components.

    A node at depth ``d`` sends component ``mu`` at tick
    ``(height - d) + mu``; the last upward send is component
    ``n_comp - 1`` from a depth-1 node.  With the result broadcast, the
    root streams totals from tick ``height`` and the deepest internal
    node forwards the last one at tick ``height + n_comp - 1 +
    internal_depth``.
    """
    if n <= 1 or n_comp == 0:
        return 0
    if broadcast_result:
        return height + n_comp + internal_depth
    return height + n_comp - 1


def bottom_up_order(
    children: Sequence[Sequence[int]], root: int
) -> List[int]:
    """Nodes ordered children-before-parents (reverse preorder)."""
    order: List[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(children[v])
    order.reverse()
    return order


def tree_wave_schedule(tree, track_edges: bool) -> PhaseSchedule:
    """Schedule of one up-then-down wave over a spanning tree.

    The accounting shared by the height convergecast and the generic
    aggregation (`_AggregateProgram`): every non-root node sends one
    message up, every node forwards the root's answer to each child, and
    the last send is the deepest internal node's forward at tick
    ``height + internal_depth``.
    """
    n = tree.n
    if n <= 1:
        return PhaseSchedule()
    per_node = {}
    for v in range(n):
        sent = len(tree.children[v]) + (1 if v != tree.root else 0)
        if sent:
            per_node[v] = sent
    per_edge = None
    if track_edges:
        per_edge = {}
        for v in range(n):
            if v != tree.root:
                per_edge[(v, tree.parent[v])] = 1
            for c in tree.children[v]:
                per_edge[(v, c)] = 1
    return PhaseSchedule(
        rounds=aggregate_rounds(
            n, tree.height, max_internal_depth(tree.children, tree.depth)
        ),
        messages=2 * (n - 1),
        per_node_sent=per_node,
        per_edge_sent=per_edge,
    )


class StackedTrees:
    """A collection's trees stacked once: the compressed tier's static state.

    Row ``i`` describes tree ``xs[i]``, and node ``v`` of that tree has the
    flat index ``i * n + v``.  Everything here follows from the parent and
    depth planes alone, which never change after construction (pruning
    flips ``removed`` flags, never pointers — see
    :class:`~repro.csssp.collection.TreeView`), so it is built once, with
    the collection, and a collection's copies share it.  It holds:

    * ``parent`` / ``depth`` — the collection's ``(T, n)`` int64 planes
      themselves (not copies), with the ``member`` (in the tree) and
      ``nonroot`` (depth >= 1) masks and each tree's ``roots`` entry;
    * ``levels[d - 1]`` / ``level_parent[d - 1]`` — the flat indices of
      every tree's depth-``d`` members, ascending, and of their parents:
      top-down waves walk the levels forward, convergecasts backward;
    * ``child_ptr`` / ``child_idx`` — every flat node's children in
      ascending order (CSR), for waves that start below the roots, and
      the per-tree lists :meth:`children` cuts from them;
    * ``leaves`` / ``leaf_paths`` — the flat indices of the depth-``h``
      members, ascending, and the ``(L, h)`` node ids on their root paths
      at depths ``1..h``: the collection's hyperedges, where the leaf is
      live.

    The part that changes, the live mask, belongs to each collection; see
    :func:`stacked_trees`.
    """

    def __init__(self, xs: Sequence[int], parent: np.ndarray,
                 depth: np.ndarray, h: int) -> None:
        self.xs = list(xs)
        self.row_of = {x: i for i, x in enumerate(self.xs)}
        n = parent.shape[1]
        self.n, self.h = n, h
        self.parent, self.depth = parent, depth
        self.roots = np.asarray(self.xs, dtype=np.int64)
        self.member = self.depth >= 0
        self.nonroot = self.depth >= 1
        flat_parent = self.parent.ravel()
        flat_depth = self.depth.ravel()
        kids = np.flatnonzero(flat_depth >= 1)
        ups = kids - kids % n + flat_parent[kids]
        by_depth = np.argsort(flat_depth[kids], kind="stable")
        cuts = np.searchsorted(
            flat_depth[kids][by_depth],
            np.arange(1, int(flat_depth.max(initial=0)) + 2),
        ).tolist()
        self.levels = [kids[by_depth[a:b]] for a, b in zip(cuts, cuts[1:])]
        self.level_parent = [ups[by_depth[a:b]] for a, b in zip(cuts, cuts[1:])]
        by_parent = np.argsort(ups, kind="stable")
        self.child_idx = kids[by_parent]
        self.child_ptr = np.zeros(len(flat_depth) + 1, dtype=np.int64)
        np.cumsum(np.bincount(ups, minlength=len(flat_depth)),
                  out=self.child_ptr[1:])
        self.leaves = np.flatnonzero(flat_depth == h)
        self.leaf_paths = np.empty((len(self.leaves), h), dtype=np.int64)
        at = self.leaves
        for k in range(h - 1, -1, -1):
            self.leaf_paths[:, k] = at % n
            at = at - at % n + flat_parent[at]
        self._children: Dict[int, List[List[int]]] = {}

    @property
    def shape(self) -> Tuple[int, int]:
        return self.parent.shape

    def children(self, row: int) -> List[List[int]]:
        """Tree ``row``'s children lists, ascending, cut from the CSR once."""
        lists = self._children.get(row)
        if lists is None:
            n = self.n
            ptr = self.child_ptr[row * n:(row + 1) * n + 1]
            kids = (self.child_idx[ptr[0]:ptr[-1]] - row * n).tolist()
            cuts = (ptr - ptr[0]).tolist()
            lists = self._children[row] = [
                kids[a:b] for a, b in zip(cuts, cuts[1:])]
        return lists


def stacked_trees(coll) -> Tuple[StackedTrees, "np.ndarray"]:
    """A collection's :class:`StackedTrees` and its current ``(T, n)`` live mask.

    The live mask (member and not removed) is derived on every call from
    the collection's one ``(T, n)`` ``removed`` array, which every writer
    writes: the engine programs, the compressed phases, the pruner replay
    and :meth:`~repro.csssp.collection.TreeView.mark_removed` alike.
    """
    return coll.stack, coll.stack.member & ~coll.removed


#: Sentinel for the end-of-stream marker in :func:`simulate_upcast`.
_UD = object()


def simulate_upcast(tree, items_per_node: Sequence[Sequence[tuple]]):
    """Exact counter-level replay of the pipelined gather upcast.

    The gather/broadcast protocol (Lemma A.2) is *almost* fixed-schedule:
    send counts per round are 0 or 1, but a node's exact send ticks
    depend on how its children's item streams interleave.  This replays
    those dynamics with integer counters and FIFO queues — no message
    objects, no engine — preserving the engine's delivery order (within
    a round, arrivals land in ascending sender id).

    Returns ``(collected, switch_tick, sends)``: the root's received
    items in engine order, the tick at which the root switches to the
    downcast, and each node's upcast send count (items forwarded plus
    the end-of-stream marker).
    """
    n = tree.n
    root = tree.root
    parent = tree.parent
    pend = [len(cs) for cs in tree.children]
    collected: List[tuple] = list(items_per_node[root])
    queues: List[Optional[deque]] = [None] * n
    for v in range(n):
        if v != root:
            queues[v] = deque(items_per_node[v])
    sends = [0] * n
    todo = [v for v in range(n) if v != root]  # kept in ascending id order
    inflight: List[Tuple[int, int, object]] = []  # (dst, src, payload)
    switch_tick = 0
    tick = 0
    while todo or inflight:
        for dst, _src, payload in inflight:
            if payload is _UD:
                pend[dst] -= 1
                if dst == root and pend[dst] == 0:
                    switch_tick = tick
            elif dst == root:
                collected.append(payload)
            else:
                queues[dst].append(payload)
        inflight = []
        still: List[int] = []
        for v in todo:
            q = queues[v]
            if q:
                inflight.append((parent[v], v, q.popleft()))
                sends[v] += 1
                still.append(v)
            elif pend[v] == 0:
                inflight.append((parent[v], v, _UD))
                sends[v] += 1
            else:
                still.append(v)
        todo = still
        tick += 1
    return collected, switch_tick, sends


def simulate_round_robin(
    n: int,
    parents: Dict[int, Sequence[int]],
    order: Sequence[int],
    initial: Sequence[Dict[int, int]],
    track_edges: bool = False,
) -> Tuple[int, int, Dict[int, int], Optional[Dict[Tuple[int, int], int]], List[int]]:
    """Count-level replay of the Step-6 round-robin pipeline (Section 4.3).

    The pipeline's *contents* are fixed — every record queued at ``x``
    for sink ``c`` travels the unique tree path ``x -> c`` in ``T_c``, so
    the messages, per-node and per-edge send totals are plain path sums
    over the frame structure.  Only the *round* at which each send fires
    depends on the dynamics (how queues interleave under the cyclic
    service order), and those dynamics are a function of queue **counts**
    alone: a node serves the next sink in its cyclic order with pending
    traffic, regardless of which record sits at the head.  This replays
    exactly that — integer counters per ``(node, sink)``, a cursor per
    node, deliveries landing one tick after the send — with no message
    objects and no engine.

    Parameters
    ----------
    parents:
        ``parents[c][v]`` — the parent of ``v`` in sink ``c``'s pruned
        in-tree (the hop a record for ``c`` takes from ``v``).
    order:
        The cyclic service order over sinks every node follows (the
        sorted sink order of the deterministic algorithm).
    initial:
        ``initial[v][c]`` — records queued at ``v`` for sink ``c`` at the
        start.

    Returns ``(rounds, messages, per_node_sent, per_edge_sent, sent)``
    matching the engine's :class:`~repro.congest.metrics.RoundStats`
    exactly (``per_edge_sent`` is None unless ``track_edges``); ``sent``
    is each node's total forward count (the pipeline trace's
    ``max_forwarded`` source).
    """
    from bisect import bisect_left, insort

    pos = {c: i for i, c in enumerate(order)}  # sink -> position in order
    width = len(order)

    cnt: List[Dict[int, int]] = [{} for _ in range(n)]
    act: List[List[int]] = [[] for _ in range(n)]
    cur = [0] * n
    for v in range(n):
        for c, k in initial[v].items():
            if k:
                cnt[v][pos[c]] = k
        act[v] = sorted(cnt[v])
    active = {v for v in range(n) if act[v]}

    sent = [0] * n
    per_edge: Optional[Dict[Tuple[int, int], int]] = {} if track_edges else None
    messages = 0
    last_send = -1
    inflight: List[Tuple[int, int]] = []  # (dst, sink)
    tick = 0
    while active or inflight:
        for dst, c in inflight:
            if dst == c:
                continue  # arrived at its sink
            i = pos[c]
            d = cnt[dst]
            k = d.get(i, 0)
            if not k:
                insort(act[dst], i)
                active.add(dst)
            d[i] = k + 1
        inflight = []
        for v in sorted(active):
            a = act[v]
            j = bisect_left(a, cur[v])
            j = j if j < len(a) else 0
            idx = a[j]
            c = order[idx]
            k = cnt[v][idx] - 1
            if k:
                cnt[v][idx] = k
            else:
                del cnt[v][idx]
                a.pop(j)
                if not a:
                    active.discard(v)
            cur[v] = idx + 1 if idx + 1 < width else 0
            p = parents[c][v]
            inflight.append((p, c))
            sent[v] += 1
            messages += 1
            if per_edge is not None:
                ekey = (v, p)
                per_edge[ekey] = per_edge.get(ekey, 0) + 1
        if inflight:
            last_send = tick
        tick += 1
    per_node = {v: s for v, s in enumerate(sent) if s}
    return last_send + 1, messages, per_node, per_edge, sent


__all__ = [
    "CompressedPhase",
    "PhaseSchedule",
    "StackedTrees",
    "aggregate_rounds",
    "bottom_up_order",
    "max_internal_depth",
    "pipelined_sum_rounds",
    "simulate_round_robin",
    "simulate_upcast",
    "stacked_trees",
    "subtree_heights",
    "tree_wave_schedule",
]
