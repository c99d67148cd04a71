"""Algorithm 8 — delivery for pairs with ``hops(x, c) > n^{2/3}``.

If the shortest path from ``x`` to blocker node ``c`` has more than
``n^{2/3}`` hops, its last ``n^{2/3}`` hops form a root-to-leaf path of
length ``n^{2/3}`` in ``c``'s tree of the ``n^{2/3}``-in-CSSSP ``C_Q``, so
a *second-level* blocker set ``Q'`` for ``C_Q`` (size ``O~(n^{1/3})``,
Step 2) intersects it at some ``c'`` with
``delta(x, c) = delta(x, c') + delta(c', c)``.  Full in-/out-SSSPs rooted
at each ``c'`` (Step 3) put ``delta(x, c')`` at ``x`` and ``delta(c', c)``
at ``c``; one ``n \\cdot |Q'|``-value broadcast (Step 4) moves the former
to everyone, and ``c`` joins locally (Step 5, Lemma 4.1) — the
:func:`~repro.pipeline.relay.relay_join` pattern with ``R = Q'``.

Round budget (all ``O~(n^{4/3})``): Step 1 is charged by the orchestrator
(the collection is shared with Algorithm 9), Step 2 is Corollary 3.13 with
``|S| = |Q|``, ``h = n^{2/3}``, Steps 3-4 are ``O~(n \\cdot n^{1/3})``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.congest.metrics import PhaseLog
from repro.congest.network import CongestNetwork
from repro.csssp.collection import CSSSPCollection
from repro.blocker.derandomized import deterministic_blocker_set
from repro.blocker.randomized import BlockerParams
from repro.graphs.spec import Graph
from repro.pipeline.relay import relay_join


def long_range_delivery(
    net: CongestNetwork,
    graph: Graph,
    cq: CSSSPCollection,
    params: Optional[BlockerParams] = None,
    label: str = "long-range",
) -> Tuple[Dict[int, Dict[int, float]], List[int], PhaseLog]:
    """Algorithm 8 Steps 2-5 on the prebuilt ``n^{2/3}``-in-CSSSP ``cq``.

    Returns ``(candidates, q_prime, log)`` where ``candidates[c][x]`` is
    the relayed value ``min_{c'} delta(x, c') + delta(c', c)`` — exact
    whenever the true path passes through ``Q'``, an upper bound otherwise
    (the orchestrator min-combines with Algorithm 9's candidates).
    """
    log = PhaseLog()
    bres = deterministic_blocker_set(net, cq, params)  # Step 2
    log.add("qprime-blocker", bres.stats)
    q_prime = sorted(bres.blockers)
    candidates = relay_join(  # Steps 3-5
        net, graph, q_prime, cq.sources, log, label="qprime",
    )
    return candidates, q_prime, log


__all__ = ["long_range_delivery"]
