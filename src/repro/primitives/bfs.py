"""Distributed BFS spanning tree.

Algorithm 7 (Step 2) and the broadcast primitives all route over a BFS tree
rooted at a leader.  With ids ``0..n-1`` known to everyone, node 0 is the
canonical leader (the standard CONGEST convention; electing a leader would
cost ``O(D)`` extra rounds and change nothing else).

The flooding protocol is textbook: the root announces depth 0 in round 0;
an unvisited node adopts the minimum-id announcer among the first
announcements it hears, replies "child" to its parent and floods onward.
After ``eccentricity(root) + 1`` rounds every node knows its parent, depth
and children.  The builder then convergecasts the tree height and downcasts
it so every node also knows ``height`` — needed by the fixed-schedule
pipelined convergecast (Algorithms 11/12).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.congest.compressed import (
    CompressedPhase,
    flood_stats,
    tree_wave_stats,
)
from repro.congest.metrics import RoundStats
from repro.congest.network import CongestNetwork
from repro.congest.node import Ctx, NodeProgram


@dataclass
class BFSTree:
    """A rooted BFS spanning tree of the communication graph.

    The orchestrator-side record of what each node knows locally: its
    parent, depth and children in the tree, plus the tree height (which the
    builder explicitly aggregated and broadcast so it *is* local knowledge).
    """

    root: int
    parent: List[int]
    depth: List[int]
    children: List[List[int]]
    height: int

    @property
    def n(self) -> int:
        return len(self.parent)

    def is_leaf(self, v: int) -> bool:
        """Whether ``v`` has no children in the tree."""
        return not self.children[v]

    def path_to_root(self, v: int) -> List[int]:
        """Tree path ``[v, parent(v), ..., root]``."""
        out = [v]
        while out[-1] != self.root:
            out.append(self.parent[out[-1]])
        return out


class _BFSProgram(NodeProgram):
    __slots__ = ("root", "parent", "depth", "children", "_announced")

    def __init__(self, node: int, root: int) -> None:
        super().__init__(node)
        self.root = root
        self.parent = -1
        self.depth = -1
        self.children: List[int] = []
        self._announced = False
        if node == root:
            self.depth = 0

    def on_round(self, ctx: Ctx) -> None:
        for _src, kind, payload in ctx.inbox:
            if kind == "bfs" and self.depth < 0:
                # Adopt the min-id announcer (inbox order is engine order,
                # so scan all announcements before choosing).
                best = min(s for s, k, _p in ctx.inbox if k == "bfs")
                self.parent = best
                self.depth = payload[0] + 1
                break
        for src, kind, _payload in ctx.inbox:
            if kind == "child":
                self.children.append(src)
        if self.depth >= 0 and not self._announced:
            self._announced = True
            for u in ctx.neighbors:
                if u == self.parent:
                    ctx.send(u, "child")
                else:
                    ctx.send(u, "bfs", (self.depth,))
        self.active = False  # wake again only on delivery


class _HeightProgram(NodeProgram):
    """Convergecast subtree height to the root, then downcast the result.

    A node sleeps while waiting (the engine wakes it on message delivery),
    so quiescence detection is automatic.
    """

    __slots__ = ("tree", "pending", "best", "height", "_sent_up")

    def __init__(self, node: int, tree: BFSTree) -> None:
        super().__init__(node)
        self.tree = tree
        self.pending = set(tree.children[node])
        self.best = tree.depth[node]
        self.height: Optional[int] = None
        self._sent_up = False

    def on_round(self, ctx: Ctx) -> None:
        v = ctx.node
        for src, kind, payload in ctx.inbox:
            if kind == "h-up":
                self.pending.discard(src)
                self.best = max(self.best, payload[0])
            elif kind == "h-dn":
                self.height = payload[0]
                for c in self.tree.children[v]:
                    ctx.send(c, "h-dn", (self.height,))
        if not self._sent_up and not self.pending:
            self._sent_up = True
            if v == self.tree.root:
                self.height = self.best
                for c in self.tree.children[v]:
                    ctx.send(c, "h-dn", (self.height,))
            else:
                ctx.send(self.tree.parent[v], "h-up", (self.best,))
        self.active = False  # wake again only on delivery


class _CompressedBFSFlood(CompressedPhase):
    """Round-compressed BFS flood: distances and min-id parents, directly.

    Every reachable node announces once — in round ``depth(v)``, to every
    neighbor — so the phase sends one message per incident directed edge
    and ends one round after the most eccentric announcement.
    """

    label = "bfs-tree"

    def __init__(self, root: int) -> None:
        self.root = root

    def run(self, net: CongestNetwork):
        n = net.n
        depth = [-1] * n
        depth[self.root] = 0
        frontier = deque([self.root])
        while frontier:
            v = frontier.popleft()
            for u in net.neighbors(v):
                if depth[u] < 0:
                    depth[u] = depth[v] + 1
                    frontier.append(u)
        parent = [-1] * n
        children: List[List[int]] = [[] for _ in range(n)]
        for v in range(n):
            if v == self.root or depth[v] < 0:
                continue
            # The engine adopts the min-id announcer among the first
            # announcements heard — i.e. the smallest neighbor one BFS
            # level closer to the root.
            parent[v] = min(
                u for u in net.neighbors(v) if depth[u] == depth[v] - 1
            )
            children[parent[v]].append(v)
        announced = [d >= 0 and bool(net.neighbors(v))
                     for v, d in enumerate(depth)]
        rounds = max(depth) + 1 if any(announced) else 0
        stats = flood_stats(net, rounds, announced)
        return (parent, depth, [sorted(cs) for cs in children]), stats


class _CompressedTreeWave(CompressedPhase):
    """Round-compressed `_HeightProgram`: one up-then-down tree wave.

    The stats are the shared
    :func:`~repro.congest.compressed.tree_wave_stats`; the result is the
    tree height the builder already knows.
    """

    def __init__(self, tree: BFSTree, label: str) -> None:
        self.tree = tree
        self.label = label

    def run(self, net: CongestNetwork):
        return self.tree.height, tree_wave_stats(self.tree)


def build_bfs_tree(
    net: CongestNetwork, root: int = 0
) -> Tuple[BFSTree, RoundStats]:
    """Build a BFS tree rooted at ``root`` and make ``height`` local knowledge.

    Round cost: ``O(D)`` (flooding) plus ``O(D)`` for the height
    convergecast/downcast — well inside the ``O(n)`` the paper charges for
    its BFS-tree step (Lemma 3.12 proof).
    """
    if net.compress:
        return _build_bfs_tree_compressed(net, root)
    programs = [_BFSProgram(v, root) for v in range(net.n)]
    stats = net.run(programs, label="bfs-tree")
    parent = [p.parent for p in programs]
    depth = [p.depth for p in programs]
    children = [sorted(p.children) for p in programs]
    if any(d < 0 for d in depth):
        raise ValueError("communication graph is disconnected")
    tree = BFSTree(
        root=root,
        parent=parent,
        depth=depth,
        children=children,
        height=max(depth),
    )
    hprogs = [_HeightProgram(v, tree) for v in range(net.n)]
    stats = stats + net.run(hprogs, label="bfs-height")
    # Sanity: the convergecast agrees with the engine-side bookkeeping.
    assert all(
        p.height == tree.height for p in hprogs
    ), "height convergecast diverged from tree bookkeeping"
    return tree, stats


def _build_bfs_tree_compressed(
    net: CongestNetwork, root: int
) -> Tuple[BFSTree, RoundStats]:
    """Round-compressed :func:`build_bfs_tree` (flood + height wave)."""
    flood = _CompressedBFSFlood(root)
    (parent, depth, children), stats = net.run_compressed(flood)
    if any(d < 0 for d in depth):
        raise ValueError("communication graph is disconnected")
    tree = BFSTree(
        root=root,
        parent=parent,
        depth=depth,
        children=children,
        height=max(depth),
    )
    _, hstats = net.run_compressed(_CompressedTreeWave(tree, "bfs-height"))
    return tree, stats + hstats


__all__ = ["BFSTree", "build_bfs_tree"]
