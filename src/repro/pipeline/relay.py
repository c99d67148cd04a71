"""The shared relay-join pattern of Algorithms 8 and 9.

Both algorithms deliver ``delta(x, c)`` for pairs whose shortest path
passes through a known small relay set ``R`` (the second-level blockers
``Q'`` in Algorithm 8, the bottleneck nodes ``B`` in Algorithm 9) the same
way:

1. for each relay ``r``: one full in-SSSP (every ``x`` learns
   ``delta(x, r)``) and one full out-SSSP (every ``c`` learns
   ``delta(r, c)``) — ``O(n)`` rounds each (Bellman-Ford);
2. every ``x`` broadcasts its ``(x, r, delta(x, r))`` triples —
   ``O(n \\cdot |R|)`` rounds (Lemma A.2);
3. every sink ``c`` joins locally:
   ``candidate(x, c) = min_r delta(x, r) + delta(r, c)``.

The candidates are exact whenever some shortest ``x -> c`` path passes
through ``R`` and are upper bounds otherwise, so callers min-combine them
with other delivery mechanisms.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.congest.metrics import PhaseLog
from repro.congest.network import CongestNetwork
from repro.graphs.spec import Cost, Graph, INF_COST
from repro.pipeline.values import add_triples, is_finite
from repro.primitives.bellman_ford import bellman_ford_many
from repro.primitives.bfs import build_bfs_tree
from repro.primitives.broadcast import gather_and_broadcast


def relay_join(
    net: CongestNetwork,
    graph: Graph,
    relays: Sequence[int],
    sinks: Sequence[int],
    log: PhaseLog,
    label: str = "relay",
) -> Dict[int, Dict[int, Cost]]:
    """Deliver ``min_r delta(x, r) + delta(r, c)`` to every sink ``c``.

    Values are full lexicographic triples (see
    :mod:`repro.pipeline.values`); a broadcast item is ``(x, r, d, k, tb)``
    — five CONGEST words.  Appends its phases to ``log`` and returns
    ``candidates[c][x]`` (finite entries only).  On a compressing
    network the per-relay SSSPs are batched through the lockstep solver.
    """
    relay_list = list(relays)
    ins = bellman_ford_many(
        net, graph, relay_list, reverse=True,
        labels=[f"{label}-in({r})" for r in relay_list],
    )
    outs = bellman_ford_many(
        net, graph, relay_list, reverse=False,
        labels=[f"{label}-out({r})" for r in relay_list],
    )
    lab_to_r: Dict[int, List[Cost]] = {r: res.label
                                       for r, res in zip(relay_list, ins)}
    lab_from_r: Dict[int, List[Cost]] = {r: res.label
                                         for r, res in zip(relay_list, outs)}
    log.add(f"{label}-ssps", ins.total().merge(outs.total()))

    bfs, stats = build_bfs_tree(net)
    log.add(f"{label}-bfs", stats)
    items: List[List[tuple]] = []
    for x in range(net.n):
        row = []
        for r in relays:
            lab = lab_to_r[r][x]
            if is_finite(lab):
                row.append((x, r) + lab)
        items.append(row)
    received, stats = gather_and_broadcast(net, bfs, items,
                                           label=f"{label}-bcast")
    log.add(f"{label}-bcast", stats)

    candidates: Dict[int, Dict[int, Cost]] = {c: {} for c in sinks}
    for x, r, d, k, tb in received[bfs.root]:
        for c in sinks:
            leg = lab_from_r[r][c]
            if not is_finite(leg):
                continue
            cand = add_triples((d, k, tb), leg)
            if cand < candidates[c].get(x, INF_COST):
                candidates[c][x] = cand
    return candidates


__all__ = ["relay_join"]
