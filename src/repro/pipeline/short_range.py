"""Algorithm 9 — delivery for pairs with ``hops(x, c) <= n^{2/3}``.

Such an ``x`` sits in ``c``'s tree of the ``n^{2/3}``-in-CSSSP ``C_Q``.
Two mechanisms split the work:

* **bottleneck relays** (Steps 1-5): Algorithm 13 finds the nodes whose
  message load would exceed ``n \\sqrt{|Q|}``, detaches their subtrees
  from ``C_Q``, and the :func:`~repro.pipeline.relay.relay_join` pattern
  (per-``b`` SSSPs + one ``n|B|``-value broadcast) delivers every value
  whose tree path crossed a bottleneck (Lemma 4.2);
* **the round-robin pipeline** (Steps 7-9, analyzed via frames/stages in
  Section 4.3): each surviving node keeps one FIFO per blocker node and,
  every round, forwards one unsent value for the next blocker (cyclic
  order ``O``) to its parent in that blocker's pruned tree.  Because the
  residual load is at most ``n \\sqrt{|Q|}`` everywhere, the frame
  argument (Lemmas 4.6-4.8) bounds this by ``O~(n \\sqrt{|Q|}) =
  O~(n^{4/3})`` rounds; :class:`PipelineTrace` records the measured
  progress so experiment F8 can compare against the frame bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.congest.compressed import CompressedPhase, simulate_round_robin
from repro.congest.metrics import PhaseLog, RoundStats
from repro.congest.network import CongestNetwork
from repro.congest.node import Ctx, NodeProgram
from repro.csssp.collection import CSSSPCollection
from repro.graphs.spec import Cost, Graph, INF_COST
from repro.pipeline.bottleneck import BottleneckResult, compute_bottleneck
from repro.pipeline.relay import relay_join
from repro.pipeline.values import is_finite


@dataclass
class PipelineTrace:
    """Measured progress of the round-robin phase (experiment F8).

    ``initial_load[v]`` counts the values queued at ``v`` at the start
    (its own, one per live tree membership); ``active_sinks_per_node``
    samples ``|Q_{v,i}|`` — the number of distinct sinks with pending
    traffic at a node — at the start, the quantity Lemma 4.8 bounds per
    stage.
    """

    rounds: int = 0
    messages: int = 0
    initial_load: List[int] = field(default_factory=list)
    active_sinks_per_node: List[int] = field(default_factory=list)
    max_forwarded: int = 0


class _RoundRobinProgram(NodeProgram):
    """One node of the Steps 7-9 pipeline.

    ``self.pending[c]`` holds unsent ``(x, value)`` records for sink
    ``c``; each round the node forwards exactly one record — for the next
    sink in the cyclic order with pending traffic — to its parent in that
    sink's pruned tree (Step 9's "round-robin sends").  The cyclic order
    is the sorted sink order, the same at every node.
    """

    __slots__ = ("coll", "order", "pending", "delivered", "_cursor", "sent")

    def __init__(
        self,
        node: int,
        coll: CSSSPCollection,
        order: Sequence[int],
        own: Dict[int, Cost],
    ) -> None:
        super().__init__(node)
        self.coll = coll
        self.order = order
        self.pending: Dict[int, Deque[tuple]] = {}
        self.delivered: Dict[int, Cost] = {}
        self._cursor = 0
        self.sent = 0
        for c, val in own.items():
            t = coll.trees[c]
            if c != node and t.live(node):
                self.pending[c] = deque([(node,) + tuple(val)])
        self.active = bool(self.pending)

    def on_round(self, ctx: Ctx) -> None:
        v = ctx.node
        for _src, kind, payload in ctx.inbox:
            if kind != "rr":
                continue
            c, x, d, k, tb = payload
            if c == v:
                self.delivered[x] = (d, k, tb)
            else:
                self.pending.setdefault(c, deque()).append((x, d, k, tb))
        # Round-robin: advance the cursor to the next sink with traffic.
        order = self.order
        for _ in range(len(order)):
            c = order[self._cursor % len(order)]
            self._cursor += 1
            q = self.pending.get(c)
            if q:
                record = q.popleft()
                if not q:
                    del self.pending[c]
                ctx.send(self.coll.trees[c].parent[v], "rr", (c,) + record)
                self.sent += 1
                break
        self.active = bool(self.pending)


def _pipeline_queue_rows(
    coll: CSSSPCollection, values: Sequence[Dict[int, Cost]], n: int
) -> List[Dict[int, int]]:
    """Initial per-``(node, sink)`` queue counts (the frame-structure load).

    Row ``v`` counts one record per sink ``c != v`` that ``v`` holds a
    value for and in whose pruned tree it is live — exactly the queues
    `_RoundRobinProgram` starts with.
    """
    rows: List[Dict[int, int]] = []
    for v in range(n):
        row: Dict[int, int] = {}
        for c in values[v]:
            if c != v and coll.trees[c].live(v):
                row[c] = 1
        rows.append(row)
    return rows


class _CompressedRoundRobin(CompressedPhase):
    """Round-compressed `_RoundRobinProgram` pipeline (Steps 7-9).

    Delivery content is fixed by the frame structure — each record queued
    at ``x`` for sink ``c`` climbs the unique tree path in ``T_c``, so
    ``delivered[c][x]`` is just ``values[x][c]`` for live members, and
    the message and per-node totals are path sums.  The stats
    come from :func:`~repro.congest.compressed.simulate_round_robin`, the
    count-level replay of the cyclic service-order dynamics from the
    initial queue ``rows`` (:func:`_pipeline_queue_rows`).
    """

    def __init__(
        self,
        coll: CSSSPCollection,
        values: Sequence[Dict[int, Cost]],
        order: Sequence[int],
        rows: List[Dict[int, int]],
        label: str,
    ) -> None:
        self.coll = coll
        self.values = values
        self.order = order
        self.rows = rows
        self.label = label

    def run(self, net: CongestNetwork):
        coll = self.coll
        parents = {c: coll.trees[c].parent for c in coll.trees}
        stats = simulate_round_robin(net.n, parents, self.order, self.rows)
        delivered: Dict[int, Dict[int, Cost]] = {}
        for c, t in coll.trees.items():
            sink: Dict[int, Cost] = {}
            for x in range(net.n):
                if x != c and t.live(x) and c in self.values[x]:
                    sink[x] = tuple(self.values[x][c])
            delivered[c] = sink
        return delivered, stats


def round_robin_pipeline(
    net: CongestNetwork,
    coll: CSSSPCollection,
    values: Sequence[Dict[int, Cost]],
    label: str = "round-robin",
) -> Tuple[Dict[int, Dict[int, Cost]], RoundStats, PipelineTrace]:
    """Steps 7-9: push every live node's values up the pruned in-trees.

    ``values[x]`` maps sink -> the value triple ``delta(x, c)`` node ``x``
    holds (see :mod:`repro.pipeline.values`); only sinks in whose pruned
    tree ``x`` is live get a message.  Returns ``(delivered, stats,
    trace)`` with ``delivered[c][x]`` at each sink.

    On a compressing network the phase is a count-level replay, with
    results and stats bit-identical to the message-level run.
    """
    order = sorted(coll.trees.keys())
    if net.compress:
        rows = _pipeline_queue_rows(coll, values, net.n)
        delivered, stats = net.run_compressed(
            _CompressedRoundRobin(coll, values, order, rows, label))
        trace = PipelineTrace(
            initial_load=[sum(r.values()) for r in rows],
            active_sinks_per_node=[len(r) for r in rows],
        )
        # each node's forwards are all its sends
        max_forwarded = stats.max_node_congestion
    else:
        programs = [_RoundRobinProgram(v, coll, order, values[v]) for v in range(net.n)]
        trace = PipelineTrace(
            initial_load=[
                sum(len(q) for q in p.pending.values()) for p in programs
            ],
            active_sinks_per_node=[len(p.pending) for p in programs],
        )
        stats = net.run(programs, label=label)
        delivered = {c: programs[c].delivered for c in order}
        max_forwarded = max((p.sent for p in programs), default=0)
    trace.rounds = stats.rounds
    trace.messages = stats.messages
    trace.max_forwarded = max_forwarded
    for c in order:
        sink = delivered[c]
        if c in values[c] and is_finite(values[c][c]):
            sink.setdefault(c, values[c][c])  # the sink's own value is local
        # Completeness (Lemma 4.3): every live tree member got through.
        t = coll.trees[c]
        for x in range(net.n):
            if t.live(x) and x != c and c in values[x]:
                if x not in sink:
                    raise AssertionError(
                        f"pipeline lost value {x} -> {c} (live in pruned tree)"
                    )
    return delivered, stats, trace


def short_range_delivery(
    net: CongestNetwork,
    graph: Graph,
    cq: CSSSPCollection,
    values: Sequence[Dict[int, Cost]],
    threshold: Optional[float] = None,
    label: str = "short-range",
) -> Tuple[Dict[int, Dict[int, Cost]], BottleneckResult, PipelineTrace, PhaseLog]:
    """Algorithm 9 end to end on the prebuilt (and mutated) ``cq``.

    Returns ``(candidates, bottleneck_result, trace, log)``;
    ``candidates[c][x]`` min-combines the bottleneck-relay values (Steps
    2-4) with the pipelined deliveries (Steps 7-9).
    """
    log = PhaseLog()
    bres = compute_bottleneck(net, cq, threshold=threshold)  # Steps 1 + 5
    log.add("bottleneck", bres.stats)
    candidates = relay_join(  # Steps 2-4
        net, graph, bres.bottlenecks, cq.sources, log, label="bneck",
    )
    delivered, stats, trace = round_robin_pipeline(net, cq, values)  # Steps 7-9
    log.add("round-robin", stats)
    for c, sink in delivered.items():
        row = candidates.setdefault(c, {})
        for x, val in sink.items():
            if val < row.get(x, INF_COST):
                row[x] = val
    return candidates, bres, trace, log


__all__ = [
    "PipelineTrace",
    "round_robin_pipeline",
    "short_range_delivery",
]
