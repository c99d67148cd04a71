"""The CSSSP collection record.

:class:`CSSSPCollection` is the orchestrator-side view of what each node
knows locally after the construction phase: for every tree, its parent,
depth, distance and children, plus the ``removed`` flag the pruning
protocols flip.  Node ``v``'s local state is exactly row ``v`` of these
tables; the distributed programs in this repository only ever read/write
their own row, preserving CONGEST locality.

Hyperedges
----------
The blocker machinery views the collection as a hypergraph (Section 3): one
hyperedge per *live root-to-leaf path of length exactly* ``h``, containing
the ``h`` path vertices at depth ``1..h`` — the root is excluded ("each edge
in F has exactly h vertices"), which is also what the APSP decomposition
argument needs: the blocker hit in a window starting at ``y`` is a node
strictly after ``y``, so the decomposition always makes progress.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple


class RemovedFlags(list):
    """A tree's ``removed`` flags, mirrored into the compressed tier's stack.

    A plain list of bools until the compressed tier stacks the collection
    (:func:`repro.congest.compressed.stacked_trees`), which links it to
    its row of the collection's ``(T, n)`` removed array.  From then on
    every item or slice assignment writes that row too, so the array
    cannot drift from the flags, whoever writes them.  :meth:`detach` is
    the bulk form.
    """

    __slots__ = ("_mirror",)

    def __init__(self, flags: Iterable[bool] = ()) -> None:
        super().__init__(flags)
        self._mirror = None

    def link(self, array, row: int) -> None:
        """Mirror every later write into ``array[row]``."""
        self._mirror = (array, row)

    def __setitem__(self, key, value) -> None:
        list.__setitem__(self, key, value)
        if self._mirror is not None:
            array, row = self._mirror
            array[row, key] = value

    def detach(self, nodes: Sequence[int]) -> None:
        """Flag every node of ``nodes`` removed, with one mirror write."""
        for v in nodes:
            list.__setitem__(self, v, True)
        if self._mirror is not None:
            array, row = self._mirror
            array[row, nodes] = True


@dataclass
class TreeView:
    """One rooted tree of the collection (all per-node rows for one source).

    ``parent[v]`` points one hop toward the root (-1 at the root and at
    nodes outside the tree); ``depth[v]`` is the hop distance from the root
    (-1 outside); ``dist[v]`` the weighted distance between ``v`` and the
    root (direction per the collection's orientation); ``removed[v]`` marks
    nodes detached by a pruning protocol (Algorithm 6 sets the parent
    pointer to NIL — we keep the pointer and flip the flag so the original
    shape remains queryable by diagnostics).  ``removed`` is always a
    :class:`RemovedFlags` list, which keeps the compressed tier's stacked
    copy of the flags in step.
    """

    root: int
    parent: List[int]
    depth: List[int]
    dist: List[float]
    children: List[List[int]]
    removed: List[bool]

    def __post_init__(self) -> None:
        if not isinstance(self.removed, RemovedFlags):
            self.removed = RemovedFlags(self.removed)

    @property
    def n(self) -> int:
        return len(self.parent)

    def contains(self, v: int) -> bool:
        """Whether ``v`` was placed in this tree by the construction."""
        return self.depth[v] >= 0

    def live(self, v: int) -> bool:
        """In the tree and not detached by a removal."""
        return self.depth[v] >= 0 and not self.removed[v]

    def live_children(self, v: int) -> List[int]:
        """Children of ``v`` not detached by removals."""
        return [c for c in self.children[v] if not self.removed[c]]

    def path_from_root(self, v: int) -> List[int]:
        """Tree path ``root .. v`` (requires ``contains(v)``)."""
        out = [v]
        while self.parent[out[-1]] >= 0:
            out.append(self.parent[out[-1]])
        if out[-1] != self.root:
            raise ValueError(f"node {v} is not connected to root {self.root}")
        out.reverse()
        return out

    def subtree(self, v: int, live_only: bool = True) -> List[int]:
        """All nodes of the subtree rooted at ``v`` (including ``v``)."""
        out: List[int] = []
        stack = [v]
        while stack:
            u = stack.pop()
            if live_only and self.removed[u]:
                continue
            out.append(u)
            stack.extend(self.children[u])
        return out

    def mark_removed(self, z: int) -> List[int]:
        """Centralized subtree removal (tests / reference checks only).

        The distributed counterpart is :mod:`repro.csssp.pruning`; this
        helper applies the same end state in one call and returns the nodes
        it detached.
        """
        detached = [u for u in self.subtree(z, live_only=True)]
        self.removed.detach(detached)
        return detached


class CSSSPCollection:
    """An ``h``-hop CSSSP collection for a source set (Definition A.3).

    Parameters
    ----------
    graph:
        The weighted instance the collection was built from.
    h:
        The hop budget (tree height).
    trees:
        ``{source: TreeView}`` in construction order.
    orientation:
        ``"out"`` — tree paths are graph paths *from* the root (Step 1);
        ``"in"`` — tree paths are graph paths *to* the root, i.e. the tree
        parent is the next hop toward the sink (Steps 3/6, Algorithm 8/9).
    """

    def __init__(
        self,
        graph,
        h: int,
        trees: Dict[int, TreeView],
        orientation: str = "out",
    ) -> None:
        if orientation not in ("out", "in"):
            raise ValueError(f"bad orientation {orientation!r}")
        self.graph = graph
        self.h = h
        self.trees = trees
        self.orientation = orientation
        # The compressed tier's stacked static state and stacked removed
        # flags, built on first use (repro.congest.compressed.stacked_trees).
        self._stack = None
        self._removed = None

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def sources(self) -> List[int]:
        return list(self.trees.keys())

    def tree(self, x: int) -> TreeView:
        """The rooted tree of source ``x``."""
        return self.trees[x]

    # ------------------------------------------------------------------
    # hyperedge / path enumeration (centralized views used by the
    # orchestrators' local steps and by verification)
    def live_leaves_at_h(self, x: int) -> List[int]:
        """Live nodes at depth exactly ``h`` — the hyperedge endpoints."""
        t = self.trees[x]
        return [v for v in range(t.n) if t.depth[v] == self.h and not t.removed[v]]

    def hyperedge(self, x: int, leaf: int) -> Tuple[int, ...]:
        """Vertices at depth ``1..h`` of the root-to-``leaf`` path in T_x."""
        return tuple(self.trees[x].path_from_root(leaf)[1:])

    def hyperedges(self) -> Iterator[Tuple[int, int, Tuple[int, ...]]]:
        """Yield ``(source, leaf, vertices)`` for every live length-h path."""
        for x in self.trees:
            for leaf in self.live_leaves_at_h(x):
                yield x, leaf, self.hyperedge(x, leaf)

    def path_count(self) -> int:
        """Number of live hyperedges across the whole collection."""
        return sum(len(self.live_leaves_at_h(x)) for x in self.trees)

    # ------------------------------------------------------------------
    def copy(self) -> "CSSSPCollection":
        """A copy with its own pruning state, for algorithms that mutate.

        Only the ``removed`` flags are copied.  ``parent``, ``depth``,
        ``dist`` and ``children`` are shared with this collection, as is
        the compressed tier's stacked static state: none of them is ever
        mutated after construction, and pruning flips flags only.
        """
        trees = {
            x: TreeView(
                root=t.root,
                parent=t.parent,
                depth=t.depth,
                dist=t.dist,
                children=t.children,
                removed=RemovedFlags(t.removed),
            )
            for x, t in self.trees.items()
        }
        dup = CSSSPCollection(self.graph, self.h, trees, self.orientation)
        dup._stack = self._stack
        return dup

    def reset_removals(self) -> None:
        """Re-attach every pruned subtree (fresh-collection state)."""
        for t in self.trees.values():
            t.removed[:] = [False] * t.n

    # ------------------------------------------------------------------
    # verification helpers (test-only, centralized)
    def check_tree_shape(self) -> None:
        """Structural invariants: parent/depth/children agree, height <= h."""
        for x, t in self.trees.items():
            if t.depth[t.root] != 0 or t.parent[t.root] != -1:
                raise AssertionError(f"tree {x}: bad root bookkeeping")
            for v in range(t.n):
                d, p = t.depth[v], t.parent[v]
                if d < 0:
                    if p != -1 or t.children[v]:
                        raise AssertionError(f"tree {x}: node {v} half-present")
                    continue
                if d > self.h:
                    raise AssertionError(f"tree {x}: node {v} deeper than h")
                if v != t.root:
                    if t.depth[p] != d - 1:
                        raise AssertionError(f"tree {x}: depth skip at {v}")
                    if v not in t.children[p]:
                        raise AssertionError(f"tree {x}: {v} missing from children")

    def check_consistency(self, certify=None) -> None:
        """Definition A.3: a path is the same in every tree containing it.

        For every ordered pair ``(u, v)``, the ``u -> v`` tree segment must
        be identical across trees.  ``certify(x, v) -> bool`` restricts the
        check to nodes whose tree label is their *true* (unconstrained)
        optimum — hop-limited trees may legitimately contain extra nodes
        whose constrained paths differ across hop budgets, and the paper's
        arguments never rely on those (see :mod:`repro.csssp.builder`).
        With ``certify=None`` every node participates (valid whenever
        ``2h`` exceeds the relevant hop radius).  O(n^2 h) centralized —
        tests only.
        """
        seg: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        for x, t in self.trees.items():
            for v in range(t.n):
                if t.depth[v] < 0:
                    continue
                if certify is not None and not certify(x, v):
                    continue
                path = t.path_from_root(v)
                if certify is not None and not all(certify(x, u) for u in path):
                    continue
                for i, u in enumerate(path[:-1]):
                    key = (u, v)
                    sub = tuple(path[i:])
                    prev = seg.setdefault(key, sub)
                    if prev != sub:
                        raise AssertionError(
                            f"inconsistent {u}->{v}: {prev} in one tree, "
                            f"{sub} in tree {x}"
                        )


__all__ = ["CSSSPCollection", "RemovedFlags", "TreeView"]
