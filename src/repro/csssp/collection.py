"""The CSSSP collection record.

:class:`CSSSPCollection` is the orchestrator-side view of what each node
knows locally after the construction phase: for every tree, its parent,
depth and children, plus the ``removed`` flag the pruning protocols flip.
Node ``v``'s local state is exactly column ``v`` of these tables; the
distributed programs in this repository only ever read/write their own
entries, preserving CONGEST locality.

Storage
-------
The collection keeps one store: ``(T, n)`` int64 ``parent`` and ``depth``
planes, one row per tree in construction order, and one ``(T, n)`` bool
``removed`` array.  Each :class:`TreeView` reads its row of them, and the
compressed tier's :class:`~repro.congest.compressed.StackedTrees` reads the
planes in place.  Liveness is written in one place only, whoever writes it.

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

import copy
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.congest.compressed import StackedTrees


class TreeView:
    """One rooted tree of the collection: row ``row`` of its planes.

    ``parent[v]`` points one hop toward the root (-1 at the root and at
    nodes outside the tree); ``depth[v]`` is the hop distance from the root
    (-1 outside).  Both are plain lists, read once from the planes: they
    are never written after construction, and engine programs read them
    per message.  ``removed[v]`` marks nodes detached by a pruning protocol
    (Algorithm 6 sets the parent pointer to NIL — we keep the pointer and
    flip the flag so the original shape remains queryable by diagnostics);
    it is a row view of the collection's ``(T, n)`` ``removed`` array, so a
    write here is a write there.  ``children[v]`` lists ``v``'s children in
    ascending order; it is cut from the stack's CSR the first time
    something reads it.
    """

    def __init__(self, root: int, parent: List[int], depth: List[int],
                 removed: np.ndarray, stack: StackedTrees, row: int) -> None:
        self.root = root
        self.parent = parent
        self.depth = depth
        self.removed = removed
        self._stack = stack
        self._row = row

    @cached_property
    def children(self) -> List[List[int]]:
        return self._stack.children(self._row)

    @property
    def n(self) -> int:
        return len(self.parent)

    def contains(self, v: int) -> bool:
        """Whether ``v`` was placed in this tree by the construction."""
        return self.depth[v] >= 0

    def live(self, v: int) -> bool:
        """In the tree and not detached by a removal."""
        return self.depth[v] >= 0 and not self.removed[v]

    def live_list(self) -> List[bool]:
        """:meth:`live` of every node as one plain list.

        One numpy pass per call: engine programs that test liveness per
        message read a list taken once per run instead of the ``removed``
        row, valid while the run writes no removals.
        """
        return (self._stack.member[self._row] & ~self.removed).tolist()

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
        detached = self.subtree(z, live_only=True)
        self.removed[detached] = True
        return detached


class CSSSPCollection:
    """An ``h``-hop CSSSP collection for a source set (Definition A.3).

    Parameters
    ----------
    graph:
        The weighted instance the collection was built from.
    h:
        The hop budget (tree height).
    roots:
        The sources, one tree each, in construction order.
    parent, depth:
        ``(T, n)`` int64 planes (or anything ``np.asarray`` stacks into
        them), row ``i`` for ``roots[i]``; an int64 array is kept as is.
    orientation:
        ``"out"`` — tree paths are graph paths *from* the root (Step 1);
        ``"in"`` — tree paths are graph paths *to* the root, i.e. the tree
        parent is the next hop toward the sink (Steps 3/6, Algorithm 8/9).
    """

    def __init__(
        self,
        graph,
        h: int,
        roots: Sequence[int],
        parent,
        depth,
        orientation: str = "out",
    ) -> None:
        if orientation not in ("out", "in"):
            raise ValueError(f"bad orientation {orientation!r}")
        self.graph = graph
        self.h = h
        self.orientation = orientation
        shape = (len(roots), graph.n)
        self.parent = np.asarray(parent, dtype=np.int64).reshape(shape)
        self.depth = np.asarray(depth, dtype=np.int64).reshape(shape)
        self.removed = np.zeros(shape, dtype=bool)
        #: the compressed tier's static state (shared by copies)
        self.stack = StackedTrees(roots, self.parent, self.depth, h)
        self.trees = self._views(
            zip(roots, self.parent.tolist(), self.depth.tolist()))

    def _views(self, rows: Iterable[Tuple[int, List[int], List[int]]]
               ) -> Dict[int, TreeView]:
        """One :class:`TreeView` per ``(root, parent, depth)`` row."""
        return {
            x: TreeView(x, parent, depth, self.removed[i], self.stack, i)
            for i, (x, parent, depth) in enumerate(rows)
        }

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

        Only the ``removed`` array is copied.  The planes, the trees'
        ``parent``/``depth`` lists and the stack (children lists included)
        are shared with this collection: none of them is ever mutated after
        construction, and pruning flips flags only.
        """
        dup = copy.copy(self)
        dup.removed = self.removed.copy()
        dup.trees = dup._views(
            (t.root, t.parent, t.depth) for t in self.trees.values())
        return dup

    def reset_removals(self) -> None:
        """Re-attach every pruned subtree (fresh-collection state)."""
        self.removed[:] = False

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


__all__ = ["CSSSPCollection", "TreeView"]
