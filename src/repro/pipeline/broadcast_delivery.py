"""The trivial Step-6 strawman: broadcast everything.

"A trivial solution is to broadcast all these messages in the network,
resulting in a round complexity of ``O~(n^{5/3})`` rounds" (Section 2,
Step 6 discussion).  Every source contributes one ``(x, c, delta(x, c))``
triple per blocker node to an all-to-all broadcast (Lemma A.2): ``n|Q|``
values, ``O(n \\cdot |Q|)`` rounds.  This is both the baseline of
experiment F4 and the delivery step of the ``O~(n^{3/2})`` APSP of [2]
(where ``|Q| = O~(\\sqrt n)``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.congest.metrics import RoundStats
from repro.congest.network import CongestNetwork
from repro.graphs.spec import Cost
from repro.pipeline.values import is_finite
from repro.primitives.bfs import build_bfs_tree
from repro.primitives.broadcast import gather_and_broadcast


def broadcast_delivery(
    net: CongestNetwork,
    q_nodes: Sequence[int],
    values: Sequence[Dict[int, Cost]],
    label: str = "broadcast-delivery",
) -> Tuple[Dict[int, Dict[int, Cost]], RoundStats]:
    """Deliver ``values[x][c]`` to every ``c`` by broadcasting all of them.

    ``values[x]`` maps blocker node -> the finite value triple held at
    ``x`` (see :mod:`repro.pipeline.values`; infinite / absent entries are
    not sent).  Returns ``delivered[c][x]`` and the phase stats.
    """
    total = RoundStats(label=label)
    bfs, stats = build_bfs_tree(net)
    total.merge(stats)
    qset = set(q_nodes)
    items: List[List[tuple]] = []
    for x in range(net.n):
        row = []
        for c, val in sorted(values[x].items()):
            if c in qset and is_finite(val):
                row.append((x, c) + tuple(val))
        items.append(row)
    received, stats = gather_and_broadcast(net, bfs, items, label=label)
    total.merge(stats)
    delivered: Dict[int, Dict[int, Cost]] = {c: {} for c in q_nodes}
    # Each blocker node keeps the records addressed to it (local filtering).
    for x, c, d, k, tb in received[bfs.root]:
        delivered[c][x] = (d, k, tb)
    return delivered, total


__all__ = ["broadcast_delivery"]
