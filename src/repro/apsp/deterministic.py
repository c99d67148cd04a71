"""Algorithm 1 — the paper's ``O~(n^{4/3})`` deterministic APSP.

``h = n^{1/3}``, the derandomized blocker construction of Section 3
(Algorithm 2', Corollary 3.13) for Step 2, and the pipelined reversed
q-sink delivery of Section 4 (Algorithms 8/9) for Step 6.  Theorem 1.1:
every step fits in ``O~(n^{4/3})`` rounds.
"""

from __future__ import annotations

from typing import Optional

from repro.congest.network import CongestNetwork
from repro.blocker.randomized import BlockerParams
from repro.graphs.spec import Graph
from repro.apsp.driver import default_h, three_phase_apsp
from repro.apsp.result import APSPResult


def deterministic_apsp(
    net: CongestNetwork,
    graph: Graph,
    h: Optional[int] = None,
    params: Optional[BlockerParams] = None,
) -> APSPResult:
    """The paper's algorithm (deterministic, ``O~(n^{4/3})`` rounds)."""
    return three_phase_apsp(
        net,
        graph,
        h if h is not None else default_h(graph.n),
        blocker="derandomized",
        delivery="pipelined",
        params=params,
        algorithm="det-n43",
    )


__all__ = ["deterministic_apsp"]
