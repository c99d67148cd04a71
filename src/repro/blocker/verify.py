"""Blocker-set verification — centralized and distributed.

Definition 2.2: ``Q`` is a blocker set for a collection if every live
root-to-leaf path of length ``h`` contains a node of ``Q`` — at depth
``1..h``, per the hyperedge convention of :mod:`repro.csssp.collection`.

:func:`is_blocker_set` / :func:`uncovered_paths` are the centralized
checks used by tests; :func:`distributed_coverage_check` is the protocol a
real deployment would run (one Compute-Pi-style flood with ``V_i := Q``
plus an OR-convergecast, ``O(|S| h + D)`` rounds) — the Las-Vegas
sampling baseline uses it to validate each sample.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

from repro.congest.metrics import RoundStats
from repro.congest.network import CongestNetwork
from repro.csssp.collection import CSSSPCollection


def uncovered_paths(
    coll: CSSSPCollection, blockers: Iterable[int]
) -> List[Tuple[int, int]]:
    """``(source, leaf)`` pairs of live length-h paths missed by ``blockers``."""
    q: Set[int] = set(blockers)
    missed: List[Tuple[int, int]] = []
    for x, leaf, vertices in coll.hyperedges():
        if not q.intersection(vertices):
            missed.append((x, leaf))
    return missed


def is_blocker_set(coll: CSSSPCollection, blockers: Iterable[int]) -> bool:
    """Whether ``blockers`` hits every live length-``h`` path (Def. 2.2)."""
    return not uncovered_paths(coll, blockers)


def greedy_reference_size(coll: CSSSPCollection) -> int:
    """Size of the centralized greedy cover — the yardstick of Lemma 3.10.

    Repeatedly takes the vertex on the most uncovered hyperedges.  Used by
    tests/benches to normalize measured blocker sizes (the paper bounds the
    distributed constructions within constant factors of greedy).
    """
    edges = [set(vertices) for (_x, _leaf, vertices) in coll.hyperedges()]
    taken = 0
    while edges:
        counts: dict = {}
        for e in edges:
            for v in e:
                counts[v] = counts.get(v, 0) + 1
        best = max(counts, key=lambda v: (counts[v], -v))
        edges = [e for e in edges if best not in e]
        taken += 1
    return taken


def distributed_coverage_check(
    net: CongestNetwork,
    coll: CSSSPCollection,
    blockers: Iterable[int],
    bfs=None,
    label: str = "coverage-check",
) -> Tuple[bool, RoundStats]:
    """Distributed Definition 2.2 check in ``O(|S| h + D)`` rounds.

    Floods ``Q``-membership counts down every tree (the Algorithm 3
    pattern with ``V_i := Q``); each depth-``h`` leaf locally knows
    whether its path is hit, and one OR-convergecast tells everyone
    whether any path was missed.  Returns ``(covered, stats)``.
    """
    from repro.blocker.helpers import compute_vi_counts
    from repro.primitives.bfs import build_bfs_tree
    from repro.primitives.convergecast import aggregate_and_broadcast

    total = RoundStats(label=label)
    if bfs is None:
        bfs, stats = build_bfs_tree(net)
        total.merge(stats)
    counts, stats = compute_vi_counts(net, coll, set(blockers), label=label)
    total.merge(stats)
    local_bad = [0.0] * net.n
    for leaf in counts.leaf[counts.beta == 0].tolist():
        local_bad[leaf] = 1.0
    (bad,), stats = aggregate_and_broadcast(
        net,
        bfs,
        [(local_bad[v],) for v in range(net.n)],
        lambda a, b_: (max(a[0], b_[0]),),
        label=f"{label}-or",
    )
    total.merge(stats)
    return bad == 0, total


__all__ = [
    "distributed_coverage_check",
    "greedy_reference_size",
    "is_blocker_set",
    "uncovered_paths",
]
