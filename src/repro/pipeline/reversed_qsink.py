"""Step 6 orchestrator — the reversed q-sink shortest-path problem.

Combines Algorithm 8 (``hops > n^{2/3}``) and Algorithm 9
(``hops <= n^{2/3}``): builds the shared ``n^{2/3}``-in-CSSSP ``C_Q`` once,
runs both delivery mechanisms, and min-combines their candidates at every
blocker node.  Coverage: a pair with a short shortest path is either
pipelined directly (its source is live in the pruned tree) or relayed
through a bottleneck node (Lemma 4.4); a pair with a long shortest path is
relayed through a second-level blocker (Lemma 4.1).  Candidates are always
path-realizable upper bounds, so the minimum is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.congest.metrics import PhaseLog, RoundStats
from repro.congest.network import CongestNetwork
from repro.csssp.builder import build_csssp
from repro.blocker.randomized import BlockerParams
from repro.graphs.spec import Cost, Graph, INF_COST
from repro.pipeline.bottleneck import BottleneckResult
from repro.pipeline.long_range import long_range_delivery
from repro.pipeline.short_range import PipelineTrace, short_range_delivery


@dataclass
class QSinkResult:
    """Outcome of Step 6: ``delivered[c][x] = delta(x, c)`` at each ``c``.

    Delivered entries are full value triples (``(weight, hops, tb)``; see
    :mod:`repro.pipeline.values`).
    """

    delivered: Dict[int, Dict[int, Cost]]
    q_prime: List[int]
    bottleneck: BottleneckResult
    trace: PipelineTrace
    log: PhaseLog
    h2: int

    @property
    def stats(self) -> RoundStats:
        return self.log.total("reversed-qsink")


def reversed_qsink(
    net: CongestNetwork,
    graph: Graph,
    q_nodes: Sequence[int],
    values: Sequence[Dict[int, Cost]],
    h2: Optional[int] = None,
    params: Optional[BlockerParams] = None,
    bottleneck_threshold: Optional[float] = None,
) -> QSinkResult:
    """Deliver ``values[x][c]`` (exact ``delta(x, c)`` held at ``x``) to ``c``.

    ``h2`` is the case split (default ``ceil(n^{2/3})``).  The second-level
    blocker parameters and the bottleneck threshold are exposed for the
    component benchmarks.
    """
    n = graph.n
    if h2 is None:
        h2 = max(1, math.ceil(n ** (2.0 / 3.0)))
    log = PhaseLog()

    # Shared Step 1 (Algorithm 8 Step 1 / Algorithm 9 input): C_Q.
    cq, stats = build_csssp(
        net, graph, sorted(q_nodes), h2, orientation="in", label="cq",
    )
    log.add("cq-csssp", stats)

    # Case (i): hops > n^{2/3} (Algorithm 8).
    far, q_prime, sublog = long_range_delivery(net, graph, cq, params=params)
    for entry in sublog:
        log.add(f"alg8/{entry[0]}", entry[1])

    # Case (ii): hops <= n^{2/3} (Algorithm 9; prunes cq in place).
    near, bres, trace, sublog = short_range_delivery(
        net, graph, cq, values, threshold=bottleneck_threshold,
    )
    for entry in sublog:
        log.add(f"alg9/{entry[0]}", entry[1])

    delivered: Dict[int, Dict[int, Cost]] = {}
    for c in sorted(q_nodes):
        row: Dict[int, Cost] = {}
        for source in (far.get(c, {}), near.get(c, {})):
            for x, val in source.items():
                if val < row.get(x, INF_COST):
                    row[x] = val
        delivered[c] = row
    return QSinkResult(
        delivered=delivered,
        q_prime=q_prime,
        bottleneck=bres,
        trace=trace,
        log=log,
        h2=h2,
    )


__all__ = ["QSinkResult", "reversed_qsink"]
