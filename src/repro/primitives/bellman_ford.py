"""Distributed ``h``-hop Bellman-Ford (the workhorse of Steps 1, 3 and 7).

The synchronous distributed Bellman-Ford [3] computes, in ``h`` rounds, the
lexicographically tie-broken optimum over all paths with at most ``h`` edges:
a node whose label improves while processing round ``r``'s inbox re-announces
it in the same round, so a label that traveled ``k`` hops arrives exactly in
round ``k``; no message is sent after round ``h`` and the engine quiesces.

Three variants cover every use in the paper:

* **out-SSSP** (``reverse=False``) — labels flow along directed edges;
  ``dist[v]`` is ``δ_h(source, v)``.
* **in-SSSP** (``reverse=True``) — labels flow against directed edges (the
  holder announces to the *tails* of its in-edges); ``dist[v]`` is
  ``δ_h(v, source)`` and ``parent[v]`` is the next hop *toward* the root, so
  the result is a tree rooted at the sink exactly like the out case.
* **multi-init** (``inits=...``) — Step 7's *extended h-hop shortest paths*
  (Section 5): blocker nodes start with ``δ(x, c)`` and hop budget 0.

Labels are :data:`repro.graphs.spec.Cost` triples ``(weight, hops, tiebreak)``
compared lexicographically; one label is three CONGEST words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.congest.compressed import CompressedPhase, PhaseSchedule
from repro.congest.metrics import RoundStats
from repro.congest.network import CongestNetwork
from repro.congest.node import Ctx, NodeProgram
from repro.graphs.spec import Cost, Graph, INF_COST, ZERO_COST


@dataclass
class SSSPResult:
    """Outcome of one (possibly hop-limited) SSSP computation.

    ``dist[v]``/``hops[v]``/``parent[v]`` describe the tie-broken optimal
    path between ``v`` and ``source`` (direction per ``reverse``); ``label``
    keeps the full lexicographic cost for consumers (CSSSP construction)
    that need exact tie-break comparisons.  ``parent[v]`` is -1 for the
    source and for unreachable nodes.
    """

    source: int
    h: int
    reverse: bool
    dist: List[float]
    hops: List[int]
    parent: List[int]
    label: List[Cost]
    rounds: RoundStats = field(default_factory=RoundStats)

    @property
    def n(self) -> int:
        return len(self.dist)

    def reaches(self, v: int) -> bool:
        """Whether ``v`` got a finite label."""
        return self.label[v] != INF_COST


class _BFProgram(NodeProgram):
    """One node's side of the h-hop Bellman-Ford protocol.

    The label is the *true* lexicographic path triple ``(weight, hops,
    tb)`` — in Step 7 an initialization can carry a hop count larger than
    the budget, because it summarizes a whole multi-blocker path.  The
    hop *budget* (edges traversed since the originating initialization)
    is tracked separately so the ``h``-limit applies to the extension
    only; it rides along as a fourth message word.  Keeping the label in
    true path order makes every comparison agree with the Step-5 closure,
    so equal-triple confirmation (predecessor routing) is exact.
    """

    __slots__ = (
        "h", "label", "budget", "parent", "_dirty", "_edge_in", "_targets",
        "_fill_equal",
    )

    def __init__(
        self,
        node: int,
        graph: Graph,
        h: int,
        reverse: bool,
        init: Optional[Cost],
        fill_equal_parent: bool = False,
    ) -> None:
        super().__init__(node)
        self.h = h
        self.label: Cost = init if init is not None else INF_COST
        self.budget = 0
        self.parent = -1
        self._fill_equal = fill_equal_parent
        self._dirty = self.label != INF_COST
        if not reverse:
            # Receive from tails of in-edges; announce to heads of out-edges.
            self._edge_in: Dict[int, Tuple[float, int]] = {
                u: (w, tb) for (u, w, tb) in graph.in_edges(node)
            }
            self._targets: Tuple[int, ...] = tuple(
                u for (u, _w, _tb) in graph.out_edges(node)
            )
        else:
            # Labels flow against edge direction: receive from heads of
            # out-edges, announce to tails of in-edges.
            self._edge_in = {u: (w, tb) for (u, w, tb) in graph.out_edges(node)}
            self._targets = tuple(u for (u, _w, _tb) in graph.in_edges(node))

    def on_round(self, ctx: Ctx) -> None:
        # Hot loop of Steps 1/3/7: most announcements lose on weight
        # alone, so gate the tuple construction and full lexicographic
        # comparison behind one float compare.  The gate keeps a relative
        # epsilon of slack so the Step-7 equal-label confirmation below
        # (which tolerates the same epsilon) still sees its candidates;
        # on the dyadic weight grid equal sums are exactly equal, so the
        # slack never changes a decision.
        h = self.h
        edge_in = self._edge_in
        label = self.label
        gate = label[0] + 1e-9 * (1.0 + abs(label[0]))
        for msg in ctx.inbox:
            if msg.kind != "bf":
                continue
            wt = edge_in.get(msg.src)
            if wt is None:  # pragma: no cover - defensive
                continue
            d, k, t, b = msg.payload
            if b >= h or d + wt[0] > gate:
                continue
            cand: Cost = (d + wt[0], k + 1, t + wt[1])
            if cand < label:
                label = self.label = cand
                gate = label[0] + 1e-9 * (1.0 + abs(label[0]))
                self.budget = b + 1
                self.parent = msg.src
                self._dirty = True
            elif (
                self._fill_equal
                and self.parent < 0
                and cand[1] == label[1]
                and cand[2] == label[2]
                and abs(cand[0] - label[0]) <= 1e-9 * (1.0 + abs(label[0]))
            ):
                # Step 7 routing: a node initialized with a Step-6 value
                # wins its own label (the initialization *is* the optimum),
                # but the confirming relaxation along the *same* path —
                # identified exactly by the integer hop count and tie-break
                # fingerprint — carries the predecessor.  Record the last
                # edge without touching the label; because the fingerprint
                # pins the unique tie-broken shortest path, the resulting
                # predecessor pointers form a tree even across zero-weight
                # ties.
                self.parent = msg.src
        if self._dirty:
            self._dirty = False
            if self.budget < self.h:
                for u in self._targets:
                    ctx.send(u, "bf", self.label + (self.budget,))
        self.active = False  # wake again only on message delivery


def _announce_arrays(net: CongestNetwork, graph: Graph, reverse: bool):
    """CSR arrays of each node's announcements: targets, weights, keys.

    For node ``v`` the slice ``off[v]:off[v+1]`` lists the nodes ``v``
    announces to together with the (weight, tie-break) of the connecting
    edge as the *receiver* sees it in its ``edge_in`` table.  Cached on
    the network (one entry per graph and direction) so the hundreds of
    per-source phases of Steps 1/3/7 build them once.
    """
    cache = getattr(net, "_bf_announce", None)
    if cache is None:
        cache = net._bf_announce = {}
    key = (id(graph), reverse)
    entry = cache.get(key)
    if entry is not None and entry[0] is graph:
        return entry[1]
    edges = graph.in_edges if reverse else graph.out_edges
    off = np.zeros(graph.n + 1, dtype=np.int64)
    flat: List[Tuple[int, float, int]] = []
    for v in range(graph.n):
        flat.extend(edges(v))
        off[v + 1] = len(flat)
    dst = np.fromiter((e[0] for e in flat), dtype=np.int64, count=len(flat))
    w = np.fromiter((e[1] for e in flat), dtype=np.float64, count=len(flat))
    tb = np.fromiter((e[2] for e in flat), dtype=np.int64, count=len(flat))
    cache[key] = (graph, (off, dst, w, tb))
    return cache[key][1]


class _BatchedBellmanFordSolver:
    """Lockstep multi-source replay of the `_BFProgram` relaxation dynamics.

    Bellman-Ford is adaptive (who sends when depends on the labels), but
    its dynamics are deterministic, so the solver replays them exactly:
    per round, the announcements of the previous round's improved nodes
    are screened in one vectorized pass against each receiver's
    round-start weight gate — the same gate `_BFProgram` applies, so the
    screen is a superset of what the engine would accept — and only the
    survivors decide the receiver's new label, in the engine's delivery
    order (ascending sender id per receiver).  All arithmetic is IEEE-754
    double either way, so labels, parents, message counts and round
    counts are bit-identical to the engine run.

    The per-source dynamics are completely independent — nothing a source
    learns ever reaches another source's state — so ``B`` phases run
    round-by-round in lockstep, all their announcements screened in *one*
    pass per round, produce source by source exactly the labels, parents
    and :class:`PhaseSchedule` of ``B`` separate runs.  The batching
    amortizes the per-round numpy fixed cost over every source still
    running; a single phase is a batch of one.
    """

    def __init__(
        self,
        graph: Graph,
        h: int,
        reverse: bool,
        inits_per_source: Sequence[Dict[int, Cost]],
        fill_equal_parent: bool,
    ) -> None:
        self.graph = graph
        self.h = h
        self.reverse = reverse
        self.inits_per_source = inits_per_source
        self.fill_equal = fill_equal_parent
        self._solved = False
        self.schedules: List[PhaseSchedule] = []
        self.labels: List[List[Cost]] = []
        self.parents: List[List[int]] = []

    def solve(self, net: CongestNetwork) -> None:
        if self._solved:
            return
        graph, h = self.graph, self.h
        n = graph.n
        nb = len(self.inits_per_source)
        off, dst_arr, w_arr, tb_arr = _announce_arrays(net, graph, self.reverse)
        fill_equal = self.fill_equal

        # All per-(source, node) state lives in flat global index space
        # ``g = b * n + v`` so one vectorized pass per lockstep round
        # covers every source still running.  The global send order —
        # ascending g, i.e. source-major with senders ascending within a
        # source — reproduces each source's engine order exactly (sources
        # never interact, so their relative order is immaterial).  Labels
        # are kept as three parallel arrays (weight, hops, tb); all
        # arithmetic is the same IEEE-754 double / int64 arithmetic the
        # engine performs, so the final tuples are bit-identical.
        label0 = np.full(nb * n, np.inf)
        lab_hops = np.zeros(nb * n, dtype=np.int64)
        lab_tb = np.zeros(nb * n, dtype=np.int64)
        gate = np.full(nb * n, np.inf)  # round-start weight gates
        budget = np.zeros(nb * n, dtype=np.int64)
        times_sent = np.zeros(nb * n, dtype=np.int64)
        parent_flat = np.full(nb * n, -1, dtype=np.int64)
        init_senders: List[int] = []
        for b, inits in enumerate(self.inits_per_source):
            for v, init in inits.items():
                if init is not None and init != INF_COST:
                    g = b * n + v
                    label0[g] = init[0]
                    lab_hops[g] = init[1]
                    lab_tb[g] = init[2]
                    gate[g] = init[0] + 1e-9 * (1.0 + abs(init[0]))
            init_senders.extend(
                b * n + v for v in sorted(
                    v for v in inits
                    if inits[v] is not None and inits[v] != INF_COST
                )
            )
        messages = np.zeros(nb, dtype=np.int64)
        last_send = np.full(nb, -1, dtype=np.int64)
        ticks = np.zeros(nb, dtype=np.int64)
        gs = np.asarray(init_senders, dtype=np.int64)

        while len(gs):
            gs = gs[budget[gs] < h]
            if not len(gs):
                break
            bs = gs // n
            vs = gs - bs * n
            starts = off[vs]
            degs = off[vs + 1] - starts
            total = int(degs.sum())
            times_sent[gs] += 1
            # Per-source round accounting: a source participates in this
            # round iff it has a sender; rounds with at least one actual
            # message advance its last-send tick.
            present = np.bincount(bs, minlength=nb).astype(bool)
            msgs_b = np.bincount(bs, weights=degs, minlength=nb).astype(
                np.int64
            )
            ticks[present] += 1
            sent_b = msgs_b > 0
            last_send[sent_b] = ticks[sent_b] - 1
            messages += msgs_b
            if not total:
                break  # no sender has out-edges: nothing can ever improve

            # CSR gather of every announcement this round, then the
            # candidate labels exactly as each receiver would build them.
            excl = np.concatenate(([0], np.cumsum(degs)[:-1]))
            sel = np.repeat(starts - excl, degs) + np.arange(total)
            dsts = dst_arr[sel]
            bs_rep = np.repeat(bs, degs)
            g_dst = bs_rep * n + dsts
            cand_w = np.repeat(label0[gs], degs) + w_arr[sel]
            alive = np.flatnonzero(cand_w <= gate[g_dst])
            if not len(alive):
                gs = alive
                continue

            # Winner reduction: within a round only the first-occurring
            # lexicographically-minimal candidate per receiver can change
            # the receiver's state — every other candidate loses
            # ``cand < label`` to it (the mid-round gate only ever drops
            # losers) — so the round's effect is exactly "winner vs
            # round-start label", evaluated vectorized below.
            cw_a = cand_w[alive]
            hops_a = np.repeat(lab_hops[gs] + 1, degs)[alive]
            tb_a = np.repeat(lab_tb[gs], degs)[alive] + tb_arr[sel[alive]]
            g_a = g_dst[alive]
            order = np.lexsort((alive, tb_a, hops_a, cw_a, g_a))
            g_sorted = g_a[order]
            firsts = np.ones(len(order), dtype=bool)
            firsts[1:] = g_sorted[1:] != g_sorted[:-1]
            win = order[firsts]
            gw = g_a[win]
            cww, hw, tw = cw_a[win], hops_a[win], tb_a[win]
            w_u = label0[gw]
            h_u = lab_hops[gw]
            t_u = lab_tb[gw]
            better = (cww < w_u) | (
                (cww == w_u) & ((hw < h_u) | ((hw == h_u) & (tw < t_u)))
            )
            gimp = gw[better]
            pos_rep = np.repeat(np.arange(len(gs), dtype=np.int64), degs)

            if fill_equal:
                # Parent fill (Step 7 routing): among receivers whose
                # label does not improve this round and whose parent is
                # still unset, the first in-order candidate whose
                # fingerprint matches the round-start label records the
                # predecessor edge (improved receivers get their parent
                # from the winner, exactly as the sequential loop's last
                # strict improvement would).
                lab0_r = label0[g_a]
                eq = (
                    (hops_a == lab_hops[g_a])
                    & (tb_a == lab_tb[g_a])
                    & (np.abs(cw_a - lab0_r)
                       <= 1e-9 * (1.0 + np.abs(lab0_r)))
                )
                if eq.any():
                    improved_set = set(gimp.tolist())
                    cand_idx = alive[eq]
                    pos_f = pos_rep[cand_idx].tolist()
                    g_f = g_dst[cand_idx].tolist()
                    vs_l = vs.tolist()
                    for pos, g in zip(pos_f, g_f):
                        if parent_flat[g] < 0 and g not in improved_set:
                            parent_flat[g] = vs_l[pos]

            if len(gimp):
                pos_w = pos_rep[alive][win][better]
                bud_send = budget[gs][pos_w]  # round-start sender budgets
                cwi = cww[better]
                label0[gimp] = cwi
                lab_hops[gimp] = hw[better]
                lab_tb[gimp] = tw[better]
                gate[gimp] = cwi + 1e-9 * (1.0 + np.abs(cwi))
                budget[gimp] = bud_send + 1
                parent_flat[gimp] = vs[pos_w]
            gs = gimp  # ascending g already (winners are g-sorted)

        track_edges = net.track_edges
        degs_all = (off[1:] - off[:-1])
        lab0_l = label0.tolist()
        hops_l = lab_hops.tolist()
        tb_l = lab_tb.tolist()
        inf = float("inf")
        for b in range(nb):
            base = b * n
            ts = times_sent[base:base + n]
            idx = np.flatnonzero((ts > 0) & (degs_all > 0))
            per_node = dict(zip(
                idx.tolist(), (ts[idx] * degs_all[idx]).tolist()
            ))
            per_edge = None
            if track_edges:
                per_edge = {}
                for v in idx.tolist():
                    t = int(ts[v])
                    for u in dst_arr[off[v]:off[v + 1]].tolist():
                        per_edge[(v, u)] = t
            self.schedules.append(PhaseSchedule(
                rounds=int(last_send[b]) + 1,
                messages=int(messages[b]),
                per_node_sent=per_node,
                per_edge_sent=per_edge,
            ))
            self.labels.append([
                INF_COST if lab0_l[base + v] == inf
                else (lab0_l[base + v], hops_l[base + v], tb_l[base + v])
                for v in range(n)
            ])
            self.parents.append(parent_flat[base:base + n].tolist())
        self._solved = True


class _BatchMemberBellmanFord(CompressedPhase):
    """One source's phase of a `_BatchedBellmanFordSolver` batch."""

    def __init__(self, solver: _BatchedBellmanFordSolver, index: int,
                 label: str) -> None:
        self.solver = solver
        self.index = index
        self.label = label

    def schedule(self, net: CongestNetwork) -> PhaseSchedule:
        self.solver.solve(net)
        return self.solver.schedules[self.index]

    def evaluate(self, net: CongestNetwork):
        self.solver.solve(net)
        return self.solver.labels[self.index], self.solver.parents[self.index]


def bellman_ford_many(
    net: CongestNetwork,
    graph: Graph,
    sources: Sequence[int],
    h: Optional[int] = None,
    reverse: bool = False,
    inits_per_source: Optional[Sequence[Optional[Dict[int, Cost]]]] = None,
    fill_equal_parent: bool = False,
    labels: Optional[Sequence[str]] = None,
    compress: Optional[bool] = None,
) -> List[SSSPResult]:
    """Run one Bellman-Ford phase per source, batched when compressing.

    The multi-source entry point of Steps 1, 3 and 7 (and of the relay
    SSSPs): when compressing, every phase is solved by one lockstep
    :class:`_BatchedBellmanFordSolver` pass — per-phase results and
    :class:`RoundStats` stay bit-identical to the per-source engine runs,
    phases are still charged one by one in order — otherwise it simply
    loops :func:`bellman_ford` on the message engine.
    """
    if h is None:
        h = graph.n - 1
    if inits_per_source is None:
        inits_per_source = [None] * len(sources)
    phase_labels = [
        (labels[i] if labels is not None else "")
        or f"bf(src={s},h={h},{'in' if reverse else 'out'})"
        for i, s in enumerate(sources)
    ]
    if not net.use_compressed(compress):
        return [
            bellman_ford(
                net, graph, s, h=h, reverse=reverse,
                inits=inits_per_source[i],
                fill_equal_parent=fill_equal_parent,
                label=phase_labels[i], compress=False,
            )
            for i, s in enumerate(sources)
        ]
    inits_full = [
        dict(inits) if inits is not None else {s: ZERO_COST}
        for s, inits in zip(sources, inits_per_source)
    ]
    solver = _BatchedBellmanFordSolver(
        graph, h, reverse, inits_full, fill_equal_parent
    )
    out: List[SSSPResult] = []
    for i, s in enumerate(sources):
        phase = _BatchMemberBellmanFord(solver, i, phase_labels[i])
        (labs, parents), stats = net.run_compressed(phase)
        out.append(SSSPResult(
            source=s,
            h=h,
            reverse=reverse,
            dist=[lab[0] for lab in labs],
            hops=[lab[1] if lab != INF_COST else -1 for lab in labs],
            parent=parents,
            label=labs,
            rounds=stats,
        ))
    return out


def bellman_ford(
    net: CongestNetwork,
    graph: Graph,
    source: int,
    h: Optional[int] = None,
    reverse: bool = False,
    inits: Optional[Dict[int, Cost]] = None,
    fill_equal_parent: bool = False,
    label: str = "",
    compress: Optional[bool] = None,
) -> SSSPResult:
    """Run one distributed (in- or out-) ``h``-hop Bellman-Ford phase.

    Parameters
    ----------
    net, graph:
        The engine and the weighted instance (same node set).
    source:
        Root of the SSSP; with ``inits`` this only names the result.
    h:
        Hop budget; ``None`` means ``n - 1`` (a full SSSP).
    reverse:
        Compute distances *to* ``source`` (an in-SSSP / in-tree).
    inits:
        Optional ``{node: Cost}`` starting labels (Step 7 extension);
        defaults to ``{source: ZERO_COST}``.

    Round cost: at most ``h + 1`` engine rounds (Lemma A.4's per-source
    ``O(h)``), message cost at most one label per directed edge per round.
    ``compress`` selects the round-compressed execution mode (default:
    the network's setting).
    """
    if net.use_compressed(compress):
        return bellman_ford_many(
            net, graph, [source], h=h, reverse=reverse,
            inits_per_source=[inits], fill_equal_parent=fill_equal_parent,
            labels=[label], compress=True,
        )[0]
    if h is None:
        h = graph.n - 1
    if inits is None:
        inits = {source: ZERO_COST}
    phase_label = label or f"bf(src={source},h={h},{'in' if reverse else 'out'})"
    programs = [
        _BFProgram(v, graph, h, reverse, inits.get(v), fill_equal_parent)
        for v in range(graph.n)
    ]
    stats = net.run(programs, label=phase_label)
    return SSSPResult(
        source=source,
        h=h,
        reverse=reverse,
        dist=[p.label[0] for p in programs],
        hops=[p.label[1] if p.label != INF_COST else -1 for p in programs],
        parent=[p.parent for p in programs],
        label=[p.label for p in programs],
        rounds=stats,
    )


class _NotifyChildrenProgram(NodeProgram):
    """One-round phase: every node announces itself to its tree parent."""

    __slots__ = ("parent", "children")

    def __init__(self, node: int, parent: Sequence[int]) -> None:
        super().__init__(node)
        self.parent = parent[node]
        self.children: List[int] = []

    def on_round(self, ctx: Ctx) -> None:
        if ctx.round == 0 and self.parent >= 0:
            ctx.send(self.parent, "child")
        for msg in ctx.inbox:
            if msg.kind == "child":
                self.children.append(msg.src)
        self.active = False


class _CompressedNotifyChildren(CompressedPhase):
    """Round-compressed `_NotifyChildrenProgram`: one send per tree edge."""

    def __init__(self, parent: Sequence[int], label: str) -> None:
        self.parent = parent
        self.label = label

    def schedule(self, net: CongestNetwork) -> PhaseSchedule:
        senders = [v for v, p in enumerate(self.parent) if p >= 0]
        per_edge = None
        if net.track_edges:
            per_edge = {(v, self.parent[v]): 1 for v in senders}
        return PhaseSchedule(
            rounds=1 if senders else 0,
            messages=len(senders),
            per_node_sent=dict.fromkeys(senders, 1),
            per_edge_sent=per_edge,
        )

    def evaluate(self, net: CongestNetwork) -> List[List[int]]:
        children: List[List[int]] = [[] for _ in range(net.n)]
        for v, p in enumerate(self.parent):
            if p >= 0:
                children[p].append(v)  # ascending v = sorted
        return children


def notify_children(
    net: CongestNetwork, parent: Sequence[int], label: str = "notify-children",
    compress: Optional[bool] = None,
) -> Tuple[List[List[int]], RoundStats]:
    """Make children lists local knowledge for one tree (1 round, 1 msg/edge).

    After any Bellman-Ford phase each node knows its *parent* in the tree but
    a parent does not know its children; tree-flood algorithms (Compute-Pi,
    Remove-Subtrees, the count convergecasts) need them.  One round per tree.
    """
    if net.use_compressed(compress):
        return net.run_compressed(_CompressedNotifyChildren(parent, label))
    programs = [_NotifyChildrenProgram(v, parent) for v in range(net.n)]
    stats = net.run(programs, label=label)
    return [sorted(p.children) for p in programs], stats


__all__ = [
    "SSSPResult",
    "bellman_ford",
    "bellman_ford_many",
    "notify_children",
]
