"""The randomized ``O~(n^{4/3})`` contender ([1]-style).

Same skeleton as Algorithm 1 but Step 2 uses the "very simple" randomized
blocker set (sample every node with probability ``\\Theta(log n / h)`` and
verify): with randomization the blocker construction is nearly free, which
is exactly why the paper's contribution is matching the bound
*deterministically*.
"""

from __future__ import annotations

from typing import Optional

from repro.congest.network import CongestNetwork
from repro.graphs.spec import Graph
from repro.apsp.driver import default_h, three_phase_apsp
from repro.apsp.result import APSPResult


def randomized_apsp(
    net: CongestNetwork,
    graph: Graph,
    h: Optional[int] = None,
) -> APSPResult:
    """Randomized 3-phase APSP: sampled blocker set + pipelined Step 6."""
    return three_phase_apsp(
        net,
        graph,
        h if h is not None else default_h(graph.n),
        blocker="sampling",
        delivery="pipelined",
        algorithm="rand-n43",
    )


__all__ = ["randomized_apsp"]
