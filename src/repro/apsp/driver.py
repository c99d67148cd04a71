"""The shared 3-phase APSP driver (Algorithm 1, parametrized).

Every Table 1 contender that follows the Ullman-Yannakakis strategy is this
driver with a different ``(h, blocker, delivery)`` triple:

1. **Step 1** — ``h``-CSSSP for ``V`` ([1]; ``O(n h)`` rounds).
2. **Step 2** — blocker set ``Q`` (Algorithm 2' / greedy [2] / random
   sampling, per ``blocker``).
3. **Step 3** — ``h``-hop in-SSSP per ``c \\in Q`` (``O(|Q| h)``): puts
   ``delta_h(x, c)`` at every ``x``.
4. **Step 4** — each ``c`` broadcasts ``delta_h(c, c')`` for all
   ``c' \\in Q`` (``O(n + |Q|^2)``, Lemma A.2).
5. **Step 5** — local: every ``x`` min-plus-closes the ``|Q| x |Q|``
   blocker matrix and computes ``delta(x, c) = min_{c_1} delta_h(x, c_1)
   + M^*(c_1, c)`` (free local computation).
6. **Step 6** — deliver ``delta(x, c)`` to ``c``: the paper's pipelined
   reversed q-sink algorithm or the broadcast strawman, per ``delivery``.
7. **Step 7** — extended ``h``-hop Bellman-Ford per source (``O(n h)``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.congest.metrics import PhaseLog
from repro.congest.network import CongestNetwork
from repro.csssp.builder import build_csssp
from repro.blocker.derandomized import deterministic_blocker_set
from repro.blocker.greedy import greedy_blocker_set
from repro.blocker.randomized import BlockerParams, randomized_blocker_set
from repro.blocker.sampling import sampling_blocker_set
from repro.graphs.spec import Cost, Graph
from repro.pipeline.values import is_finite
from repro.pipeline.broadcast_delivery import broadcast_delivery
from repro.pipeline.extension import extend_h_hop
from repro.pipeline.reversed_qsink import reversed_qsink
from repro.primitives.bellman_ford import bellman_ford_many
from repro.primitives.bfs import build_bfs_tree
from repro.primitives.broadcast import gather_and_broadcast
from repro.apsp.closure import local_closure
from repro.apsp.result import APSPResult

#: Step-2 strategies (name -> construction function).  Each takes the
#: shared ``BlockerParams`` so orchestrators (e.g. the scenario-sweep
#: runner) can thread one deterministic per-scenario seed through every
#: randomized component.
BLOCKERS = {
    "derandomized": deterministic_blocker_set,
    "randomized": randomized_blocker_set,
    "greedy": lambda net, coll, params=None: greedy_blocker_set(net, coll),
    "sampling": lambda net, coll, params=None: sampling_blocker_set(
        net, coll, seed=params.seed if params is not None else 0
    ),
}

DELIVERIES = ("pipelined", "broadcast")


def three_phase_apsp(
    net: CongestNetwork,
    graph: Graph,
    h: int,
    blocker: str = "derandomized",
    delivery: str = "pipelined",
    params: Optional[BlockerParams] = None,
    algorithm: str = "",
) -> APSPResult:
    """Run Algorithm 1 with the given hop budget / Step 2 / Step 6 choices.

    The network's ``compress`` flag picks the execution tier of the
    fixed-schedule phases (:mod:`repro.congest.compressed`).  Both tiers
    produce bit-identical records and round counts, so the choice only
    affects wall-clock time.
    """
    if blocker not in BLOCKERS:
        raise ValueError(f"unknown blocker strategy {blocker!r}")
    if delivery not in DELIVERIES:
        raise ValueError(f"unknown delivery strategy {delivery!r}")
    n = graph.n
    log = PhaseLog()
    meta: Dict[str, object] = {"h": h, "blocker": blocker, "delivery": delivery}

    # Step 1: h-CSSSP for V.
    coll, stats = build_csssp(net, graph, range(n), h, label="step1")
    log.add("step1-csssp", stats)

    # Step 2: blocker set Q.
    bres = BLOCKERS[blocker](net, coll, params)
    log.add("step2-blocker", bres.stats)
    q_nodes = sorted(bres.blockers)
    meta["q"] = len(q_nodes)

    # Step 3: h-hop in-SSSP per blocker node (full lexicographic labels —
    # the tie-break fingerprints ride along so Step 7 can reconstruct
    # predecessors; see repro.pipeline.values).  The per-source phases are
    # batched through the lockstep compressed solver when available.
    lab_to: Dict[int, List[Cost]] = {}
    for c, res in zip(q_nodes, bellman_ford_many(
        net, graph, q_nodes, h=h, reverse=True,
        labels=[f"in({c})" for c in q_nodes],
    )):
        log.add("step3-in-sssp", res.rounds)
        lab_to[c] = res.label

    # Step 4: broadcast the |Q| x |Q| delta_h label matrix (5-word items).
    bfs, stats = build_bfs_tree(net)
    log.add("step4-bfs", stats)
    items: List[List[tuple]] = [[] for _ in range(n)]
    for ci, c in enumerate(q_nodes):
        for cj, cp in enumerate(q_nodes):
            lab = lab_to[cp][c]  # delta_h(c, c'), local at c after Step 3
            if c != cp and is_finite(lab):
                items[c].append((ci, cj) + lab)
    received, stats = gather_and_broadcast(net, bfs, items, label="step4")
    log.add("step4-qq-broadcast", stats)

    # Step 5: local lexicographic min-plus closure at every node — free in
    # CONGEST, and the simulator's former Python-triple bottleneck; now a
    # numpy Floyd-Warshall over label planes behind local_closure().
    q = len(q_nodes)
    values = local_closure(q_nodes, received[bfs.root], lab_to, n)

    # Step 6: reversed q-sink delivery.
    if q == 0:
        delivered: Dict[int, Dict[int, Cost]] = {}
    elif delivery == "pipelined":
        qs = reversed_qsink(net, graph, q_nodes, values, params=params)
        for label, stats in qs.log:
            log.add(f"step6/{label}", stats)
        delivered = qs.delivered
        meta["q_prime"] = len(qs.q_prime)
        meta["bottlenecks"] = len(qs.bottleneck.bottlenecks)
        meta["pipeline_rounds"] = qs.trace.rounds
    else:
        delivered, stats = broadcast_delivery(net, q_nodes, values)
        log.add("step6/broadcast", stats)

    # Step 7: extended h-hop shortest paths (distances + predecessors).
    dist, pred, stats = extend_h_hop(net, graph, h, delivered)
    log.add("step7-extension", stats)

    return APSPResult(
        algorithm=algorithm or f"3phase(h={h},{blocker},{delivery})",
        dist=dist,
        pred=pred,
        log=log,
        meta=meta,
    )


def default_h(n: int, exponent: float = 1.0 / 3.0) -> int:
    """The paper's ``h = n^{1/3}`` (or the baseline's ``n^{1/2}``)."""
    return max(1, round(n**exponent))


__all__ = ["BLOCKERS", "DELIVERIES", "default_h", "three_phase_apsp"]
