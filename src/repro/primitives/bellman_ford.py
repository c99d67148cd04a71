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


class SSSPBatch:
    """One Bellman-Ford phase per source, as ``(B, n)`` planes.

    Row ``i`` is the phase of ``sources[i]``.  ``dist`` (float64),
    ``hops`` (int64, -1 where unreachable), ``tb`` (the tie-break word)
    and ``parent`` (-1 at the source and where unreachable) hold every
    node's final label and tree pointer — the :class:`SSSPResult` fields.
    The accounting is per phase too: ``rounds`` and ``messages`` are
    ``(B,)``, and ``sent`` is ``(B, n)``, each node's send total (the
    times it announced times its out-degree).

    Indexing or iterating yields :class:`SSSPResult` views, built on
    demand; :meth:`stats` and :meth:`total` give :class:`RoundStats`.  A
    batch from the compressed solver also records ``edge``, each node's
    winning edge (see :meth:`parent_edge`); a batch stacked from engine
    runs keeps the runs themselves, so indexing returns them and
    :meth:`stats` returns exactly what the engine measured.
    """

    def __init__(
        self,
        sources: Sequence[int],
        h: int,
        reverse: bool,
        planes: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        accounting: Tuple[np.ndarray, np.ndarray, np.ndarray],
        labels: Sequence[str],
        *,
        runs: Optional[List[SSSPResult]] = None,
        edge: Optional[np.ndarray] = None,
        announce=None,
        track_edges: bool = False,
    ) -> None:
        self.sources = list(sources)
        self.h = h
        self.reverse = reverse
        self.dist, self.hops, self.tb, self.parent = planes
        self.rounds, self.messages, self.sent = accounting
        self.labels = list(labels)
        self.edge = edge
        self._runs = runs
        self._announce = announce
        self._track_edges = track_edges

    def __len__(self) -> int:
        return len(self.sources)

    def __getitem__(self, i: int) -> SSSPResult:
        if self._runs is not None:
            return self._runs[i]
        dist = self.dist[i].tolist()
        hops = self.hops[i].tolist()
        label: List[Cost] = list(zip(dist, hops, self.tb[i].tolist()))
        for v in np.flatnonzero(self.hops[i] < 0).tolist():
            label[v] = INF_COST
        return SSSPResult(
            source=self.sources[i], h=self.h, reverse=self.reverse,
            dist=dist, hops=hops, parent=self.parent[i].tolist(),
            label=label, rounds=self.stats(i),
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def schedule(self, i: Optional[int] = None) -> PhaseSchedule:
        """Phase ``i``'s schedule, or (``None``) all phases' sum.

        Read off the accounting planes: a node that announced ``t`` times
        loaded each of its announcement edges ``t`` times (per-edge loads
        only on a compressed batch of a network that tracks edges).
        """
        if i is None:
            sent = self.sent.sum(axis=0)
            rounds, messages = self.rounds.sum(), self.messages.sum()
        else:
            sent, rounds, messages = self.sent[i], self.rounds[i], self.messages[i]
        nz = np.flatnonzero(sent)
        per_edge = None
        if self._track_edges:
            off, dst = self._announce[0], self._announce[1]
            degs = off[nz + 1] - off[nz]
            times = np.repeat(sent[nz] // degs, degs)
            idx = np.repeat(off[nz] - (np.cumsum(degs) - degs), degs)
            idx += np.arange(len(idx))
            per_edge = dict(zip(
                zip(np.repeat(nz, degs).tolist(), dst[idx].tolist()),
                times.tolist(),
            ))
        return PhaseSchedule(
            rounds=int(rounds),
            messages=int(messages),
            per_node_sent=dict(zip(nz.tolist(), sent[nz].tolist())),
            per_edge_sent=per_edge,
        )

    def stats(self, i: int) -> RoundStats:
        """Phase ``i``'s :class:`RoundStats`, labelled ``labels[i]``."""
        if self._runs is not None:
            return self._runs[i].rounds
        return self.schedule(i).to_stats(self.labels[i], track_edges=True)

    def total(self, label: str = "") -> RoundStats:
        """Every phase's stats composed in sequence."""
        if self._runs is not None:
            return RoundStats.sequential((r.rounds for r in self._runs),
                                         label=label)
        return self.schedule().to_stats(label, track_edges=True)

    def parent_edge(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(w, tb)`` planes of the edge from each node's parent.

        The edge of the announcement that set the node's final parent,
        as the receiver sees it (0 where there is no parent).  Recorded
        by the compressed solver only.
        """
        if self.edge is None:
            raise ValueError("parent edges are recorded by the compressed "
                             "solver only")
        w_arr, tb_arr = self._announce[2], self._announce[3]
        has = self.edge >= 0
        e = np.where(has, self.edge, 0)
        return np.where(has, w_arr[e], 0.0), np.where(has, tb_arr[e], 0)


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
        edge_in: Dict[int, Tuple[float, int]],
        targets: Tuple[int, ...],
        h: int,
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
        self._edge_in = edge_in
        self._targets = targets
        self.active = self._dirty  # otherwise only a delivery brings work

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
        for src, kind, payload in ctx.inbox:
            if kind != "bf":
                continue
            wt = edge_in.get(src)
            if wt is None:  # pragma: no cover - defensive
                continue
            d, k, t, b = payload
            if b >= h or d + wt[0] > gate:
                continue
            cand: Cost = (d + wt[0], k + 1, t + wt[1])
            if cand < label:
                label = self.label = cand
                gate = label[0] + 1e-9 * (1.0 + abs(label[0]))
                self.budget = b + 1
                self.parent = src
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
                self.parent = src
        if self._dirty:
            self._dirty = False
            if self.budget < self.h:
                send = ctx.send
                msg = self.label + (self.budget,)
                for u in self._targets:
                    send(u, "bf", msg)
        self.active = False  # wake again only on message delivery


def _bf_tables(net: CongestNetwork, graph: Graph, reverse: bool):
    """Per-node ``(edge_in, targets)`` tables of the engine's `_BFProgram`.

    ``edge_in[v]`` maps each node ``v`` hears from to the ``(weight,
    tie-break)`` of the connecting edge; ``targets[v]`` lists the nodes
    ``v`` announces to.  Forward runs receive from the tails of in-edges
    and announce to the heads of out-edges; reverse runs (labels flowing
    against edge direction) swap the two.  Programs only read the
    tables, so they are cached on the network like
    :func:`_announce_arrays`: one entry per graph and direction.
    """
    cache = getattr(net, "_bf_tables", None)
    if cache is None:
        cache = net._bf_tables = {}
    key = (id(graph), reverse)
    entry = cache.get(key)
    if entry is not None and entry[0] is graph:
        return entry[1]
    hear, tell = ((graph.out_edges, graph.in_edges) if reverse
                  else (graph.in_edges, graph.out_edges))
    tables = (
        [{u: (w, tb) for (u, w, tb) in hear(v)} for v in range(graph.n)],
        [tuple(u for (u, _w, _tb) in tell(v)) for v in range(graph.n)],
    )
    cache[key] = (graph, tables)
    return tables


def _announce_arrays(net: CongestNetwork, graph: Graph, reverse: bool):
    """CSR arrays of each node's announcements, each row by weight.

    For node ``v`` the slice ``off[v]:off[v+1]`` lists the nodes ``v``
    announces to together with the (weight, tie-break) of the connecting
    edge as the *receiver* sees it in its ``edge_in`` table, in ascending
    weight order (ties in edge-list order).  A receiver hears each
    sender at most once per round and compares senders in ascending id
    order, so the order within a row never changes which candidate wins.
    Also returned for :func:`_row_cuts`: each edge's float key ``weight +
    v * span`` and ``span``, a power of two above twice the largest
    weight, so ``v * span`` is exact and the keys ascend over the whole
    array.  Cached on the network (one entry per graph and direction) so
    the phases of Steps 1/3/7 build them once.
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
    src = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(off))
    order = np.lexsort((w, src))
    dst, w, tb = dst[order], w[order], tb[order]
    span = 2.0 ** np.ceil(np.log2(2.0 * w.max(initial=0.0) + 1.0))
    cache[key] = (graph, (off, dst, w, tb, w + src * span, span))
    return cache[key][1]


def _row_cuts(announce, vs: np.ndarray, room: np.ndarray) -> np.ndarray:
    """Per sender, the end of a row prefix holding every weight ``<= room``.

    Rows are sorted by weight, so a sender's candidates that can pass a
    gate no larger than its label plus ``room`` form a prefix of its
    row.  One search over the float keys of :func:`_announce_arrays`
    finds it: rounding is monotone, so ``w <= room`` implies ``w + v *
    span <= room + v * span`` in floats too (the cut may keep a few more,
    never fewer).
    """
    off, keys, span = announce[0], announce[4], announce[5]
    cut = np.searchsorted(keys, room + vs * span, side="right")
    return np.minimum(cut, off[vs + 1])


# Most candidates one chunk of a round's announcements holds.  Chunks are
# cut only between sources, so a source whose round alone exceeds it is a
# chunk of its own.
_CHUNK = 1 << 20

# Most receiver ids one chunk spans: below 2**16 the winner reduction
# sorts them as uint16 keys, which numpy radix-sorts in linear time
# instead of merge-sorting int64 keys.
_SPAN = 1 << 16

_INT_MAX = np.iinfo(np.int64).max


def _chunk_cuts(bs: np.ndarray, ends: np.ndarray, n: int) -> List[int]:
    """Sender-index cuts splitting one round into source-aligned chunks.

    ``bs`` is each sender's source (ascending) and ``ends`` the inclusive
    cumulative out-degree over the senders.  Consecutive cuts bound a
    slice of senders that holds whole sources, spans fewer than
    :data:`_SPAN` receiver ids and holds at most :data:`_CHUNK`
    candidates — unless one source alone breaks a limit, in which case
    it is a chunk of its own.
    """
    per = max(1, _SPAN // n)  # source ids one chunk may span
    if ends[-1] <= _CHUNK and bs[-1] - bs[0] < per:
        return [0, len(bs)]
    firsts = np.flatnonzero(np.concatenate(([True], bs[1:] != bs[:-1])))
    ids = bs[firsts]
    before = np.concatenate(([0], ends))[np.append(firsts, len(bs))]
    cuts = [0]
    k = 0
    while k < len(firsts):
        by_size = np.searchsorted(before, before[k] + _CHUNK, side="right") - 1
        by_span = np.searchsorted(ids, ids[k] + per)
        k = max(int(min(by_size, by_span)), k + 1)
        cuts.append(int(firsts[k]) if k < len(firsts) else len(bs))
    return cuts


def _lex_winners(g: np.ndarray, keys: Sequence[np.ndarray]) -> np.ndarray:
    """Index of each receiver's first lexicographically minimal candidate.

    ``g`` names each candidate's receiver and ``keys`` its label words
    (float weight, then int64 hops and tie-break), all in delivery
    order.  A stable sort on ``g`` makes each receiver's candidates one
    contiguous segment still in delivery order; segmented minima then
    narrow every segment to its weight ties, those to their hop ties,
    those to their tie-break ties, and the first survivor wins —
    exactly the candidate a full lexicographic sort on
    ``(g, weight, hops, tb, position)`` puts first.
    Returns winner indices in ascending receiver order.
    """
    lo = g.min()
    key = g - lo
    if g.max() - lo < _SPAN:
        key = key.astype(np.uint16)  # same stable order, radix-sorted
    order = np.argsort(key, kind="stable")
    g_s = g[order]
    head = np.flatnonzero(np.concatenate(([True], g_s[1:] != g_s[:-1])))
    lens = np.diff(np.append(head, len(g_s)))
    tie = None
    for word in keys:
        k = word[order]
        if tie is not None:
            if np.count_nonzero(tie) == len(head):
                break  # every receiver already has a unique minimum
            k = np.where(tie, k, _INT_MAX)
        m = k == np.repeat(np.minimum.reduceat(k, head), lens)
        tie = m if tie is None else tie & m
    idx = np.flatnonzero(tie)
    first = np.concatenate(([True], g_s[idx[1:]] != g_s[idx[:-1]]))
    return order[idx[first]]


class _BatchedBellmanFordSolver(CompressedPhase):
    """Lockstep multi-source replay of the `_BFProgram` relaxation dynamics.

    Bellman-Ford is adaptive (who sends when depends on the labels), but
    its dynamics are deterministic, so the solver replays them exactly.
    Per round, the announcements of the previous round's improved nodes
    are screened against each receiver's round-start weight gate — the
    same gate `_BFProgram` applies, so the screen is a superset of what
    the engine would accept.  Only the survivors (usually a small
    fraction) get their hops, tie-break and sender, and a segmented
    reduction (:func:`_lex_winners`) picks each receiver's first
    lexicographically minimal survivor in the engine's delivery order
    (ascending sender id per receiver); that winner against the
    round-start label decides the receiver's new label.  All arithmetic
    is IEEE-754 double / int64 either way, so labels, parents, message
    counts and round counts are bit-identical to the engine run.

    Before the screen, each sender's announcements are cut to the prefix
    of its weight-sorted row that can pass the largest gate of its
    source (:func:`_row_cuts`); the rest would fail every gate anyway.
    At n = 512 (all sources, h = 16) the cut drops about 60% of the
    candidates.  The accounting counts every announcement, cut or not.

    The per-source dynamics are completely independent — nothing a source
    learns ever reaches another source's state — so ``B`` phases run
    round-by-round in lockstep and produce, source by source, exactly the
    labels, parents and send counts of ``B`` separate runs; a single
    phase is a batch of one.  As a :class:`CompressedPhase` the solver
    evaluates to the :class:`SSSPBatch` of those planes (plus each
    node's winning edge) and charges the sum of the per-source
    schedules.  Each round's announcements are
    processed in chunks of whole sources (:func:`_chunk_cuts`) holding
    at most :data:`_CHUNK` candidates, which bounds the round's
    temporaries (a source larger than that is a chunk of its own).  A
    chunk's updates touch only its own sources, so applying them chunk
    by chunk equals applying them at the end of the round.
    """

    def __init__(
        self,
        graph: Graph,
        h: int,
        reverse: bool,
        sources: Sequence[int],
        inits_per_source: Sequence[Dict[int, Cost]],
        fill_equal_parent: bool,
        labels: Sequence[str],
    ) -> None:
        self.graph = graph
        self.h = h
        self.reverse = reverse
        self.sources = sources
        self.inits_per_source = inits_per_source
        self.fill_equal = fill_equal_parent
        self.labels = labels
        self.label = f"bf-batch(h={h},{'in' if reverse else 'out'})"
        self._batch: Optional[SSSPBatch] = None

    def schedule(self, net: CongestNetwork) -> PhaseSchedule:
        return self.evaluate(net).schedule()

    def evaluate(self, net: CongestNetwork) -> SSSPBatch:
        if self._batch is None:
            self._batch = self._solve(net)
        return self._batch

    def _solve(self, net: CongestNetwork) -> SSSPBatch:
        shape = (len(self.sources), self.graph.n)
        announce = _announce_arrays(net, self.graph, self.reverse)
        off = announce[0]
        (label0, lab_hops, lab_tb, parent_flat, edge_flat, times_sent,
         messages, last_send) = self._replay(announce)
        dist = label0.reshape(shape)
        hops = np.where(dist == np.inf, -1, lab_hops.reshape(shape))
        sent = times_sent.reshape(shape) * (off[1:] - off[:-1])
        return SSSPBatch(
            self.sources, self.h, self.reverse,
            (dist, hops, lab_tb.reshape(shape), parent_flat.reshape(shape)),
            (last_send + 1, messages, sent),
            self.labels,
            edge=edge_flat.reshape(shape),
            announce=announce,
            track_edges=net.track_edges,
        )

    def _replay(self, announce):
        """The lockstep round loop: final per-(source, node) state arrays."""
        h = self.h
        n = self.graph.n
        nb = len(self.inits_per_source)
        off, dst_arr, w_arr, tb_arr = announce[:4]
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
        edge_flat = np.full(nb * n, -1, dtype=np.int64)  # parent's edge
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
            # Only the candidates that can pass some gate of their source
            # need screening: no receiver's gate exceeds the source's
            # largest, so a sender's room is that gate minus its label,
            # with slack for the rounding of both subtractions.  The
            # accounting above still counts every announcement.
            gmax = gate.reshape(nb, n).max(axis=1)[bs]
            room = gmax - label0[gs]
            room += 1e-9 * (1.0 + np.abs(gmax))
            degs = _row_cuts(announce, vs, room) - starts
            ends = np.cumsum(degs)
            if not ends[-1]:
                break  # no announcement can pass a gate: nothing improves
            cuts = _chunk_cuts(bs, ends, n)
            improved = []
            for i0, i1 in zip(cuts[:-1], cuts[1:]):
                g_c, v_c, d_c = gs[i0:i1], vs[i0:i1], degs[i0:i1]
                e_c = ends[i0:i1] - (ends[i0 - 1] if i0 else 0)
                total = int(e_c[-1])
                # The chunk's candidates in delivery order: only the
                # weight gate needs every one of them.
                sel = np.repeat(starts[i0:i1] - (e_c - d_c), d_c)
                sel += np.arange(total)
                g_dst = np.repeat(g_c - v_c, d_c)
                g_dst += dst_arr[sel]
                cand_w = np.repeat(label0[g_c], d_c)
                cand_w += w_arr[sel]
                alive = np.flatnonzero(cand_w <= gate[g_dst])
                if not len(alive):
                    continue
                pos = np.searchsorted(e_c, alive, side="right")  # sender
                g_snd = g_c[pos]
                g_a = g_dst[alive]
                cw_a = cand_w[alive]
                hops_a = lab_hops[g_snd] + 1
                tb_a = lab_tb[g_snd] + tb_arr[sel[alive]]

                # Winner reduction: within a round only the first-occurring
                # lexicographically-minimal candidate per receiver can
                # change the receiver's state — every other candidate
                # loses ``cand < label`` to it (the mid-round gate only
                # ever drops losers) — so the round's effect is exactly
                # "winner vs round-start label".
                win = _lex_winners(g_a, (cw_a, hops_a, tb_a))
                gw = g_a[win]
                cww, hw, tw = cw_a[win], hops_a[win], tb_a[win]
                w_u = label0[gw]
                h_u = lab_hops[gw]
                t_u = lab_tb[gw]
                better = (cww < w_u) | (
                    (cww == w_u) & ((hw < h_u) | ((hw == h_u) & (tw < t_u)))
                )
                gimp = gw[better]

                if fill_equal:
                    # Parent fill (Step 7 routing): among receivers whose
                    # label does not improve this round and whose parent
                    # is still unset, the first in-order candidate whose
                    # fingerprint matches the round-start label records
                    # the predecessor edge (improved receivers get their
                    # parent from the winner, exactly as the sequential
                    # loop's last strict improvement would).
                    lab0_r = label0[g_a]
                    eq = (
                        (hops_a == lab_hops[g_a])
                        & (tb_a == lab_tb[g_a])
                        & (np.abs(cw_a - lab0_r)
                           <= 1e-9 * (1.0 + np.abs(lab0_r)))
                    )
                    cand = np.flatnonzero(eq)
                    g_f = g_a[cand]
                    # ``gw`` lists every receiver of a survivor, sorted.
                    improved_f = better[np.searchsorted(gw, g_f)]
                    keep = (parent_flat[g_f] < 0) & ~improved_f
                    g_f, first = np.unique(g_f[keep], return_index=True)
                    cand = cand[keep][first]
                    parent_flat[g_f] = v_c[pos[cand]]
                    edge_flat[g_f] = sel[alive[cand]]

                if len(gimp):
                    pos_w = pos[win[better]]
                    cwi = cww[better]
                    label0[gimp] = cwi
                    lab_hops[gimp] = hw[better]
                    lab_tb[gimp] = tw[better]
                    gate[gimp] = cwi + 1e-9 * (1.0 + np.abs(cwi))
                    # Read before this chunk writes any budget, so these
                    # are the senders' round-start budgets.
                    budget[gimp] = budget[g_c[pos_w]] + 1
                    parent_flat[gimp] = v_c[pos_w]
                    edge_flat[gimp] = sel[alive[win[better]]]
                    improved.append(gimp)  # ascending g (winners g-sorted)
            gs = (np.concatenate(improved) if improved
                  else np.zeros(0, dtype=np.int64))

        return (label0, lab_hops, lab_tb, parent_flat, edge_flat, times_sent,
                messages, last_send)


def bellman_ford_many(
    net: CongestNetwork,
    graph: Graph,
    sources: Sequence[int],
    h: Optional[int] = None,
    reverse: bool = False,
    inits_per_source: Optional[Sequence[Optional[Dict[int, Cost]]]] = None,
    fill_equal_parent: bool = False,
    labels: Optional[Sequence[str]] = None,
) -> SSSPBatch:
    """Run one Bellman-Ford phase per source; return them as one batch.

    The multi-source entry point of Steps 1, 3 and 7 (and of the relay
    SSSPs).  When compressing, one lockstep
    :class:`_BatchedBellmanFordSolver` pass solves every phase and one
    ``run_compressed`` charges their summed schedule; otherwise each
    phase runs :func:`bellman_ford` on the message engine and the runs
    are stacked.  Either way the :class:`SSSPBatch` holds the same
    planes and the same per-phase :class:`RoundStats`.  ``labels`` and
    ``inits_per_source``, when given, need one entry per source.
    """
    sources = list(sources)
    for name, given in (("labels", labels),
                        ("inits_per_source", inits_per_source)):
        if given is not None and len(given) != len(sources):
            raise ValueError(f"{name} has {len(given)} entries for "
                             f"{len(sources)} sources")
    if h is None:
        h = graph.n - 1
    if inits_per_source is None:
        inits_per_source = [None] * len(sources)
    phase_labels = [
        (labels[i] if labels is not None else "")
        or f"bf(src={s},h={h},{'in' if reverse else 'out'})"
        for i, s in enumerate(sources)
    ]
    if not net.compress:
        runs = [
            bellman_ford(
                net, graph, s, h=h, reverse=reverse,
                inits=inits_per_source[i],
                fill_equal_parent=fill_equal_parent,
                label=phase_labels[i],
            )
            for i, s in enumerate(sources)
        ]
        return _stack_runs(runs, graph.n, h, reverse, phase_labels)
    inits_full = [
        dict(inits) if inits is not None else {s: ZERO_COST}
        for s, inits in zip(sources, inits_per_source)
    ]
    solver = _BatchedBellmanFordSolver(
        graph, h, reverse, sources, inits_full, fill_equal_parent,
        phase_labels,
    )
    batch, _ = net.run_compressed(solver)
    return batch


def _stack_runs(runs: Sequence[SSSPResult], n: int, h: int, reverse: bool,
                labels: Sequence[str]) -> SSSPBatch:
    """The :class:`SSSPBatch` of per-source engine runs."""
    shape = (len(runs), n)
    sent = np.zeros(shape, dtype=np.int64)
    for i, res in enumerate(runs):
        for v, c in res.rounds.per_node_sent.items():
            sent[i, v] = c
    return SSSPBatch(
        [res.source for res in runs], h, reverse,
        (np.array([res.dist for res in runs], dtype=np.float64).reshape(shape),
         np.array([res.hops for res in runs], dtype=np.int64).reshape(shape),
         np.array([[lab[2] for lab in res.label] for res in runs],
                  dtype=np.int64).reshape(shape),
         np.array([res.parent for res in runs], dtype=np.int64).reshape(shape)),
        (np.array([res.rounds.rounds for res in runs], dtype=np.int64),
         np.array([res.rounds.messages for res in runs], dtype=np.int64),
         sent),
        labels,
        runs=list(runs),
    )


def bellman_ford(
    net: CongestNetwork,
    graph: Graph,
    source: int,
    h: Optional[int] = None,
    reverse: bool = False,
    inits: Optional[Dict[int, Cost]] = None,
    fill_equal_parent: bool = False,
    label: str = "",
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
    """
    if net.compress:
        return bellman_ford_many(
            net, graph, [source], h=h, reverse=reverse,
            inits_per_source=[inits], fill_equal_parent=fill_equal_parent,
            labels=[label],
        )[0]
    if h is None:
        h = graph.n - 1
    if inits is None:
        inits = {source: ZERO_COST}
    phase_label = label or f"bf(src={source},h={h},{'in' if reverse else 'out'})"
    edge_in, targets = _bf_tables(net, graph, reverse)
    programs = [
        _BFProgram(v, edge_in[v], targets[v], h, inits.get(v),
                   fill_equal_parent)
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
        for src, kind, _payload in ctx.inbox:
            if kind == "child":
                self.children.append(src)
        self.active = False


class _CompressedNotifyChildren(CompressedPhase):
    """Round-compressed `_NotifyChildrenProgram` over a stack of trees.

    ``parents`` is ``(T, n)``, one tree per row.  Every parented node
    sends once to its parent, so a tree with any edge charges one round.
    The phase is pure accounting: the children lists follow from the
    parents, and callers build them where they read them (a CSSSP
    collection cuts them from its stack's CSR on first read).
    """

    def __init__(self, parents: np.ndarray, label: str) -> None:
        self.parents = parents
        self.label = label

    def schedule(self, net: CongestNetwork) -> PhaseSchedule:
        has = self.parents >= 0
        per_node = has.sum(axis=0)
        nz = np.flatnonzero(per_node)
        per_edge = None
        if net.track_edges:
            rows, vs = np.nonzero(has)
            n = self.parents.shape[1]
            keys, counts = np.unique(vs * n + self.parents[rows, vs],
                                     return_counts=True)
            per_edge = dict(zip(zip((keys // n).tolist(), (keys % n).tolist()),
                                counts.tolist()))
        return PhaseSchedule(
            rounds=int(has.any(axis=1).sum()),
            messages=int(per_node.sum()),
            per_node_sent=dict(zip(nz.tolist(), per_node[nz].tolist())),
            per_edge_sent=per_edge,
        )

    def evaluate(self, net: CongestNetwork) -> None:
        """Nothing: the children follow from ``parents``, read where needed."""
        return None


def notify_children(
    net: CongestNetwork, parent: Sequence[int], label: str = "notify-children",
) -> Tuple[List[List[int]], RoundStats]:
    """Make children lists local knowledge for one tree (1 round, 1 msg/edge).

    After any Bellman-Ford phase each node knows its *parent* in the tree but
    a parent does not know its children; tree-flood algorithms (Compute-Pi,
    Remove-Subtrees, the count convergecasts) need them.  One round per tree.
    """
    if net.compress:
        parents = np.asarray(parent, dtype=np.int64).reshape(1, net.n)
        _, stats = net.run_compressed(_CompressedNotifyChildren(parents, label))
        children: List[List[int]] = [[] for _ in range(net.n)]
        for v, p in enumerate(parent):
            if p >= 0:
                children[p].append(v)
        return children, stats
    programs = [_NotifyChildrenProgram(v, parent) for v in range(net.n)]
    stats = net.run(programs, label=label)
    return [sorted(p.children) for p in programs], stats


__all__ = [
    "SSSPBatch",
    "SSSPResult",
    "bellman_ford",
    "bellman_ford_many",
    "notify_children",
]
