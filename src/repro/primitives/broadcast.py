"""Broadcast primitives (Lemmas A.1 and A.2).

Lemma A.1: a node can broadcast ``k`` local values to all other nodes in
``O(n + k)`` rounds.  Lemma A.2: all nodes can broadcast one (more
generally, a total of ``K``) local values to every other node in ``O(n + K)``
rounds.  Both are realized the standard way: pipelined *upcast* of all items
to the BFS-tree root (one item per tree edge per round, in parallel across
edges), then pipelined *downcast* from the root.  End-of-stream markers make
termination local knowledge, so the engine's quiescence detection charges
only the rounds actually used — at most ``2·height + 2·K + 2``.

Items must be constant-size tuples of ids / weights (CONGEST words).
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Tuple

from repro.congest.compressed import (
    CompressedPhase,
    PhaseSchedule,
    max_internal_depth,
    simulate_upcast,
)
from repro.congest.metrics import RoundStats
from repro.congest.network import CongestNetwork
from repro.congest.node import Ctx, NodeProgram
from repro.primitives.bfs import BFSTree


class _GatherBroadcastProgram(NodeProgram):
    """A non-root node's side of the gather-then-broadcast.

    Upcast: one item per round to the parent (the node's own items, then
    whatever its children pass up), then the end marker ``ud`` once every
    child has sent its own.  Downcast: each record from the parent (an
    item ``dit`` or the end marker ``dd``) goes on to every child in the
    round it arrives.  The node is active only while it has something to
    send, so waiting on its children costs no wakes.

    On a fault-free run one record arrives per round at most.  Under
    duplicate or delay faults a few can arrive at once; the extras wait in
    ``_backlog`` so each child edge still carries one record per round.
    """

    __slots__ = ("parent", "children", "upq", "pending_up", "received",
                 "_sent_ud", "_backlog")

    def __init__(self, node: int, tree: BFSTree, items: Sequence[tuple]) -> None:
        super().__init__(node)
        self.parent = tree.parent[node]
        self.children = tree.children[node]
        self.upq = deque(items)
        self.pending_up = set(self.children)
        self.received: List[tuple] = []
        self._sent_ud = False
        self._backlog: deque = deque()
        self.active = bool(items) or not self.pending_up

    def on_round(self, ctx: Ctx) -> None:
        send = ctx.send
        if self._sent_ud:
            # Downcast: only records from the parent arrive now.
            inbox = ctx.inbox
            if len(inbox) == 1 and not self._backlog:
                _src, kind, payload = inbox[0]
            else:
                backlog = self._backlog
                backlog.extend(inbox)
                _src, kind, payload = backlog.popleft()
                self.active = bool(backlog)
            if kind == "dit":
                self.received.append(payload)
            for c in self.children:
                send(c, kind, payload)
            return

        for src, kind, payload in ctx.inbox:
            if kind == "it":
                self.upq.append(payload)
            else:  # "ud": that child's subtree has sent everything
                self.pending_up.discard(src)
        upq = self.upq
        if upq:
            send(self.parent, "it", upq.popleft())
        elif not self.pending_up:
            self._sent_ud = True
            send(self.parent, "ud")
        self.active = bool(upq) or not (self._sent_ud or self.pending_up)


class _GatherBroadcastRoot(NodeProgram):
    """The root's side: collect every item, then stream them all down.

    Items arrive as ``it`` records until every child's ``ud`` is in.  Then
    the root sends the collected items and the end marker ``dd`` to every
    child, one record per round; it sleeps while it waits for its
    children.
    """

    __slots__ = ("children", "pending_up", "received", "_streamed")

    def __init__(self, node: int, tree: BFSTree, items: Sequence[tuple]) -> None:
        super().__init__(node)
        self.children = tree.children[node]
        self.pending_up = set(self.children)
        self.received: List[tuple] = list(items)
        self._streamed = 0
        self.active = bool(self.children) and not self.pending_up

    def on_round(self, ctx: Ctx) -> None:
        for src, kind, payload in ctx.inbox:
            if kind == "it":
                self.received.append(payload)
            elif kind == "ud":
                self.pending_up.discard(src)
        if self.pending_up:
            return
        received = self.received
        k = self._streamed
        kind, payload = ("dit", received[k]) if k < len(received) else ("dd", ())
        send = ctx.send
        for c in self.children:
            send(c, kind, payload)
        self._streamed = k + 1
        self.active = k < len(received)  # the end marker is still to go


class _CompressedGatherBroadcast(CompressedPhase):
    """Round-compressed `_GatherBroadcastProgram` (Lemmas A.1 / A.2).

    The upcast half is replayed at counter cost by
    :func:`~repro.congest.compressed.simulate_upcast` (its send ticks
    depend on how child streams interleave, so it is simulated rather
    than solved in closed form — still with zero engine overhead); the
    downcast half is fully fixed-schedule: the root streams the ``K``
    collected items plus the end marker from the switch tick onward, and
    every internal node forwards each record one round after receipt.
    """

    def __init__(
        self,
        tree: BFSTree,
        items_per_node: Sequence[Sequence[tuple]],
        label: str,
    ) -> None:
        self.tree = tree
        self.items = items_per_node
        self.label = label
        self._collected: Optional[List[tuple]] = None
        self._switch_tick = 0
        self._up_sends: Optional[List[int]] = None

    def _solve(self) -> None:
        if self._collected is None:
            self._collected, self._switch_tick, self._up_sends = simulate_upcast(
                self.tree, self.items
            )

    def schedule(self, net: CongestNetwork) -> PhaseSchedule:
        self._solve()
        tree = self.tree
        n = tree.n
        if n <= 1:
            return PhaseSchedule()
        down = len(self._collected) + 1  # every item plus the end marker
        per_node = {}
        for v in range(n):
            sent = self._up_sends[v] + down * len(tree.children[v])
            if sent:
                per_node[v] = sent
        per_edge = None
        if net.track_edges:
            per_edge = {}
            for v in range(n):
                if v != tree.root and self._up_sends[v]:
                    per_edge[(v, tree.parent[v])] = self._up_sends[v]
                for c in tree.children[v]:
                    per_edge[(v, c)] = down
        return PhaseSchedule(
            rounds=self._switch_tick
            + down
            + max_internal_depth(tree.children, tree.depth),
            messages=sum(self._up_sends) + down * (n - 1),
            per_node_sent=per_node,
            per_edge_sent=per_edge,
        )

    def evaluate(self, net: CongestNetwork) -> List[List[tuple]]:
        self._solve()
        return [list(self._collected) for _ in range(self.tree.n)]


def gather_and_broadcast(
    net: CongestNetwork,
    tree: BFSTree,
    items_per_node: Sequence[Sequence[tuple]],
    label: str = "broadcast-all",
) -> Tuple[List[List[tuple]], RoundStats]:
    """Every node contributes items; afterwards every node knows all items.

    The engine-level realization of Lemma A.2 (and of Lemma A.1 when only
    one node contributes).  Returns per-node received lists (identical
    content, root-determined order) and the phase stats.
    """
    if net.compress:
        return net.run_compressed(
            _CompressedGatherBroadcast(tree, items_per_node, label)
        )
    programs = [
        (_GatherBroadcastRoot if v == tree.root else _GatherBroadcastProgram)(
            v, tree, items_per_node[v])
        for v in range(net.n)
    ]
    stats = net.run(programs, label=label)
    root = programs[tree.root]
    if root.pending_up:
        # An end marker was lost (a fault): the phase went quiet before
        # the root could start the downcast.
        raise AssertionError(
            f"broadcast incomplete at node {tree.root}: the root never heard "
            f"the end of children {sorted(root.pending_up)}"
        )
    received = [p.received for p in programs]
    # Every node must have ended with the same multiset of items.
    expected = sorted(received[tree.root])
    for v in range(net.n):
        assert sorted(received[v]) == expected, f"broadcast incomplete at node {v}"
    return received, stats


def broadcast_from_root(
    net: CongestNetwork,
    tree: BFSTree,
    items: Sequence[tuple],
    label: str = "broadcast-root",
) -> Tuple[List[List[tuple]], RoundStats]:
    """Lemma A.1 specialized to the tree root: downcast ``k`` items."""
    per_node: List[Sequence[tuple]] = [[] for _ in range(net.n)]
    per_node[tree.root] = list(items)
    return gather_and_broadcast(net, tree, per_node, label=label)


__all__ = ["broadcast_from_root", "gather_and_broadcast"]
