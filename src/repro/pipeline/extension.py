"""Step 7 — extended ``h``-hop shortest paths (Section 5).

After Step 6, every blocker node ``c`` knows ``delta(x, c)`` for every
source ``x``.  For each ``x`` in sequence, one ``h``-hop Bellman-Ford runs
with each ``c`` initialized to ``delta(x, c)`` (hop budget reset to 0) and
``x`` itself initialized to 0; after ``h`` rounds every sink ``t`` holds

``min( delta_h(x, t),  min_c delta(x, c) + delta_h(c, t) )``

which by the decomposition argument equals ``delta(x, t)`` (the suffix
after the last blocker on a shortest path has at most ``h`` hops).
``O(h)`` rounds per source, ``O(n h)`` total (Lemma 5.1).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.congest.metrics import RoundStats
from repro.congest.network import CongestNetwork
from repro.graphs.spec import Cost, Graph, ZERO_COST
from repro.primitives.bellman_ford import bellman_ford_many


def extend_h_hop(
    net: CongestNetwork,
    graph: Graph,
    h: int,
    delivered: Dict[int, Dict[int, float]],
    sources: Optional[Sequence[int]] = None,
    label: str = "extension",
) -> Tuple[np.ndarray, np.ndarray, RoundStats]:
    """Run Step 7 for every source; return distances and predecessors.

    ``delivered[c][x]`` is the Step-6 output at blocker node ``c``.
    Returns ``(D, P, stats)`` with ``D[x, t]`` the computed
    ``delta(x, t)`` and ``P[x, t]`` the predecessor of ``t`` on a
    shortest ``x -> t`` path (-1 at ``t = x`` and for unreachable pairs) —
    the "last edge" the APSP problem statement requires at each node.
    Every node obtains its predecessor locally: its own Bellman-Ford
    parent, including blocker nodes whose winning label was their Step-6
    initialization (the equal-weight confirmation carries the edge; see
    :mod:`repro.primitives.bellman_ford`).
    """
    n = graph.n
    srcs = list(range(n)) if sources is None else list(sources)
    out = np.full((n, n), math.inf)
    pred = np.full((n, n), -1, dtype=np.int64)
    inits_per_source: List[Dict[int, Cost]] = []
    for x in srcs:
        inits: Dict[int, Cost] = {x: ZERO_COST}
        for c, row in delivered.items():
            val = row.get(x)
            if val is not None and not math.isinf(val[0]) and c != x:
                # The delivered triple (true weight/hops/fingerprint) seeds
                # the blocker with a fresh hop *budget* (tracked separately
                # by the Bellman-Ford program), so the h-limit applies to
                # the extension only while label comparisons stay in true
                # path order — required for exact predecessor routing.
                inits[c] = tuple(val)
        inits_per_source.append(inits)
    batch = bellman_ford_many(
        net, graph, srcs, h=h, inits_per_source=inits_per_source,
        fill_equal_parent=True, labels=[f"{label}({x})" for x in srcs],
    )
    out[srcs, :] = batch.dist
    pred[srcs, :] = batch.parent
    return out, pred, batch.total(label)


__all__ = ["extend_h_hop"]
