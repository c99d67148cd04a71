"""Value triples carried by Step 6.

A "distance value" in Steps 5-7 is the full lexicographic label of the
tie-broken shortest path, ``(weight, hops, tb)``
(:data:`repro.graphs.spec.Cost`): three CONGEST words instead of one, still
constant size.  Carrying the integer tie-break fingerprint end-to-end is
what lets Step 7 reconstruct predecessor pointers ("the last edge on each
such shortest path", Section 1.1) without ambiguity — two different paths
of equal weight have different fingerprints, so the confirming relaxation
at a blocker node identifies its true predecessor exactly.

Helpers here convert between value dictionaries and the centralized
references (used by standalone Step-6 tests and benchmarks).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.graphs.reference import h_hop_labels
from repro.graphs.spec import Cost, Graph, INF_COST


def add_triples(a: Cost, b: Cost) -> Cost:
    """Concatenate two path labels (component-wise sum)."""
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def lex_min(a: Cost, b: Cost) -> Cost:
    """The lexicographically smaller of two labels."""
    return a if a <= b else b


def is_finite(value: Cost) -> bool:
    """Whether the label describes a real path (finite weight)."""
    return value[0] < math.inf


def reference_values(
    graph: Graph, q_nodes: Sequence[int]
) -> List[Dict[int, Cost]]:
    """Exact ``delta(x, c)`` triples, centralized (tests / benches).

    ``out[x][c]`` is the lexicographic label of the tie-broken shortest
    ``x -> c`` path — what a perfect Steps 1-5 would leave at ``x``.
    """
    out: List[Dict[int, Cost]] = [{} for _ in range(graph.n)]
    for c in q_nodes:
        labels = h_hop_labels(graph, c, graph.n, reverse=True)
        for x in range(graph.n):
            if labels[x] != INF_COST:
                out[x][c] = labels[x]
    return out


__all__ = ["add_triples", "is_finite", "lex_min", "reference_values"]
