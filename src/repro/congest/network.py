"""The synchronous CONGEST engine.

:class:`CongestNetwork` drives a set of :class:`~repro.congest.node.NodeProgram`
instances over the *underlying undirected graph* of the input (Section 1.1:
even for directed inputs the communication links are bidirectional).  One
call to :meth:`CongestNetwork.run` executes one phase of an algorithm and
returns its :class:`~repro.congest.metrics.RoundStats`; orchestrators compose
phases sequentially just as Algorithm 1 composes Steps 1-7.

Model fidelity
--------------
* **Synchrony** — messages sent in round ``r`` are delivered at the start of
  round ``r + 1``.
* **Bandwidth** — at most ``bandwidth`` messages per *directed* edge per
  round (default 1), each carrying at most ``word_limit`` words.  The paper
  assumes a constant number of ids / weights / distance values fit in one
  round's message; programs that exceed the cap are bugs, so strict mode
  raises :class:`BandwidthExceeded` instead of silently queueing.
* **Locality** — a node may send only to neighbors in the underlying
  undirected graph; violations raise :class:`NotANeighbor`.
* **Rounds charged** — ``last tick with a send + 1``: idle rounds before the
  final send (pipeline slots) are counted, trailing local computation is
  free, matching how the paper charges fixed-schedule algorithms.

Implementation notes
--------------------
The engine is the innermost loop of every experiment, so the hot path is
organized around four ideas:

* **One call and one plain tuple per send** — :attr:`Ctx.send
  <repro.congest.node.Ctx.send>` is a slot holding the phase's ``send``
  closure, so a program's send is one Python call.  The closure reads
  the sender from a variable the wake loop sets, appends a plain
  ``(src, kind, payload)`` tuple (the
  :class:`~repro.congest.message.Message` field layout, never built as
  one) and bumps one counter; the wake loop folds that counter into the
  per-node and total counts once per woken node, not once per message.
* **Batched delivery** — outgoing messages land directly in per-destination
  inbox lists that are swapped wholesale at the tick boundary (no
  per-message dict churn), and ``send`` itself does no validation work in
  either mode, so the per-message cost of ``strict=True`` and
  ``strict=False`` is identical.
* **Vectorized strict checks** — instead of checking each ``send``, strict
  mode keeps *references* to each round's outbox lists (a constant number
  of list operations per round, independent of the message count) and
  validates them in batch: every ``_FLUSH_AT`` buffered messages — and at
  every phase exit — the buffered rounds are flattened with C-level
  ``chain`` / ``map`` passes into numpy arrays of sources and destinations,
  and the locality / bandwidth rules are checked with a handful of array
  ops; word sizes are read off the chunk's distinct payloads.  Edge keys
  resolve through a preallocated dense edge index (an ``n x n`` edge-id
  matrix when the graph is dense enough, a sorted-key binary search
  otherwise — auto-selected from the average degree at construction).  The
  per-round bandwidth rule survives batching because each buffered round
  is a recorded segment of the chunk.  Chunks with only a few messages
  use an equivalent scalar loop (the numpy fixed cost would dominate);
  both report the same exception types.
* **Wakes cost only the nodes woken** — the engine keeps the set of
  nodes whose ``active`` flag is set, and each tick runs that set merged
  with the tick's destinations, sorted, on every network size.  Nothing
  sweeps all ``n`` nodes, so a node that is inactive and receives
  nothing costs nothing; programs keep it that way by starting inactive
  unless they have tick-0 work, and phases that involve only some nodes
  give the rest the shared never-active
  ``_Silent`` program (see :class:`~repro.congest.node.NodeProgram`).

Validation therefore happens *after* the violating round, not inside the
offending ``send`` call: the engine may simulate up to ``_FLUSH_AT``
further messages before the exception surfaces from
:meth:`CongestNetwork.run` (a violating phase never completes — the final
flush at every exit, including the hard cap, checks every buffered round).
The raise carries the offending edge and the tick it happened in.
Semantics observable to programs (delivery order, round accounting,
quiescence) are identical in both modes and both check paths.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import attrgetter, itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.congest.message import Wire, _count_words
from repro.congest.metrics import RoundStats
from repro.congest.node import Ctx, NodeProgram

#: Chunks with fewer messages than this are validated by the scalar loop —
#: below this size the numpy fixed cost exceeds the per-message savings.
_VECTOR_MIN = 48

#: Flush (validate) the pending strict-check chunk once it holds this many
#: messages; phases also flush at every exit point.
_FLUSH_AT = 4096

#: Always use the dense ``n x n`` edge-id matrix up to this many nodes
#: (the matrix is at most 256 KiB of int32 — cheaper than being clever).
_DENSE_N_CAP = 256

#: Above ``_DENSE_N_CAP`` nodes, use the dense matrix only when directed
#: edges fill at least 1/8 of it (average degree >= n / 8); sparser graphs
#: fall back to binary search over sorted edge keys.
_DENSE_FILL_SHIFT = 3

_SRC = itemgetter(0)
_PAYLOAD = itemgetter(2)
_ACTIVE = attrgetter("active")


class _Pending:
    """Strict-mode traffic buffered for one batched check.

    Every buffered round's outbox lists (by reference) and their
    destination ids, flat and parallel, plus one ``(tick, number of
    boxes)`` mark per round and the number of messages held.
    """

    __slots__ = ("boxes", "dsts", "marks", "msgs")

    def __init__(self) -> None:
        self.boxes: List[List[Wire]] = []
        self.dsts: List[int] = []
        self.marks: List[Tuple[int, int]] = []
        self.msgs = 0

    def rounds(self):
        """Yield ``(tick, boxes, dsts)`` per buffered round."""
        start = 0
        for tick, count in self.marks:
            end = start + count
            yield tick, self.boxes[start:end], self.dsts[start:end]
            start = end

    def clear(self) -> None:
        self.boxes.clear()
        self.dsts.clear()
        self.marks.clear()
        self.msgs = 0


class BandwidthExceeded(RuntimeError):
    """A node sent more than ``bandwidth`` messages over one edge in a round."""


class NotANeighbor(RuntimeError):
    """A node tried to send to a non-adjacent node."""


class HardCapExceeded(RuntimeError):
    """The engine ran past its safety cap without quiescing (likely a bug)."""


class CongestNetwork:
    """A CONGEST network over the underlying undirected graph of ``graph``.

    Parameters
    ----------
    graph:
        Any object with an ``n`` attribute and an ``und_neighbors(v)`` method
        returning the communication neighbors of ``v`` (e.g.
        :class:`repro.graphs.Graph`).
    bandwidth:
        Messages allowed per directed edge per round.  The paper permits a
        constant; 1 keeps algorithms honest, some primitives legitimately use
        a small constant > 1.
    word_limit:
        Maximum payload words per message in strict mode.
    strict:
        When true (default), locality / bandwidth / word-size violations
        raise from :meth:`run` (batched — see the module docstring).
        ``strict=False`` skips the validation entirely — the measured fast
        path for large sweeps; delivery order and round accounting are
        identical in both modes.
    compress:
        Execution tier for fixed-schedule phases: when true, the ported
        primitives run round-compressed (see
        :mod:`repro.congest.compressed` and :meth:`run_compressed`)
        instead of through the message engine.  This flag is the only
        tier selector; every primitive branches on it directly.  Results
        and :class:`RoundStats` are bit-identical in both tiers; adaptive
        phases always use the engine regardless of this flag.  Primitives
        over many sources or trees (multi-source Bellman-Ford, the
        multi-tree convergecasts, the Step-6 delivery pipeline) replay
        all their phases in one :meth:`run_compressed` call; a single
        phase is a batch of one.
    """

    def __init__(
        self,
        graph,
        bandwidth: int = 1,
        word_limit: int = 8,
        strict: bool = True,
        compress: bool = False,
    ) -> None:
        self.graph = graph
        self.n: int = graph.n
        self.bandwidth = bandwidth
        self.word_limit = word_limit
        self.strict = strict
        self.compress = compress
        self._adj: List[Sequence[int]] = [
            tuple(graph.und_neighbors(v)) for v in range(self.n)
        ]
        # Dense index per directed communication edge: _edge_pos[src][dst]
        # doubles as the scalar locality check (missing key = not a
        # neighbor) and as the slot into the bandwidth-count arrays.
        self._edge_pos: List[Dict[int, int]] = []
        eid = 0
        for v in range(self.n):
            pos: Dict[int, int] = {}
            for u in self._adj[v]:
                pos[u] = eid
                eid += 1
            self._edge_pos.append(pos)
        self._num_directed_edges = eid
        # Endpoints by dense edge id (for error reporting out of the
        # vectorized checks).
        self._edge_src = np.empty(eid, dtype=np.int64)
        self._edge_dst = np.empty(eid, dtype=np.int64)
        for v, pos in enumerate(self._edge_pos):
            for u, e in pos.items():
                self._edge_src[e] = v
                self._edge_dst[e] = u
        # Auto-select the vectorized edge-id lookup: dense (n x n int32
        # matrix, O(1) fancy-indexed gather) when the graph is small or its
        # average degree makes the matrix reasonably full; sparse (binary
        # search over sorted src*n+dst keys, O(log m)) otherwise.  Both are
        # built lazily on the first vector-validated chunk.
        self._dense_lookup: bool = self.n <= _DENSE_N_CAP or (
            self.n > 0 and eid << _DENSE_FILL_SHIFT >= self.n * self.n
        )
        self._eid_mat: Optional[np.ndarray] = None  # dense: (n, n) edge ids
        self._edge_keys: Optional[np.ndarray] = None  # sparse: sorted keys
        self._edge_key_eids: Optional[np.ndarray] = None
        #: cumulative stats over every ``run`` on this network
        self.total = RoundStats(label="network-total")

    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> Sequence[int]:
        """Communication neighbors of ``v`` (underlying undirected graph)."""
        return self._adj[v]

    # ------------------------------------------------------------------
    def run_compressed(self, phase, label: str = ""):
        """Execute a fixed-schedule phase analytically (no messages).

        ``phase`` follows the :class:`repro.congest.compressed.CompressedPhase`
        protocol: one call to its ``run`` returns the aggregate result and
        the :class:`RoundStats` the message-level run would have measured.
        Returns ``(result, stats)``, labelled ``label`` (default: the
        phase's own label), and merges the stats into :attr:`total`,
        mirroring :meth:`run`.
        """
        result, stats = phase.run(self)
        stats.label = label or phase.label
        self.total.merge(stats)
        return result, stats

    # ------------------------------------------------------------------
    def _build_lookup(self) -> None:
        """Materialize the vectorized edge-id lookup tables (once)."""
        if self._dense_lookup:
            mat = np.full((self.n, self.n), -1, dtype=np.int32)
            mat[self._edge_src, self._edge_dst] = np.arange(
                self._num_directed_edges, dtype=np.int32
            )
            self._eid_mat = mat
        else:
            keys = self._edge_src * self.n + self._edge_dst
            order = np.argsort(keys)
            self._edge_keys = keys[order]
            self._edge_key_eids = order.astype(np.int64)

    def _resolve_eids(self, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
        """Dense edge ids for ``(srcs[i], dsts[i])``; -1 marks a non-edge."""
        if self._dense_lookup:
            if self._eid_mat is None:
                self._build_lookup()
            return self._eid_mat[srcs, dsts]
        if self._edge_keys is None:
            self._build_lookup()
        keys = srcs * self.n
        keys += dsts
        idx = np.searchsorted(self._edge_keys, keys)
        idx_c = np.minimum(idx, len(self._edge_keys) - 1)
        hit = self._edge_keys[idx_c] == keys
        return np.where(hit, self._edge_key_eids[idx_c], -1)

    # ------------------------------------------------------------------
    def _validate_round_scalar(
        self, boxes: List[List[Wire]], dsts: List[int], tick: int
    ) -> None:
        """Scalar strict check of one round's traffic (the tiny-round path)."""
        edge_pos = self._edge_pos
        bandwidth = self.bandwidth
        word_limit = self.word_limit
        load: Dict[int, int] = {}
        for dst, box in zip(dsts, boxes):
            for src, _kind, payload in box:
                eid = edge_pos[src].get(dst)
                if eid is None:
                    raise NotANeighbor(f"node {src} -> {dst}: not an edge")
                count = load.get(eid, 0) + 1
                if count > bandwidth:
                    raise BandwidthExceeded(
                        f"edge {src}->{dst} carried {count} messages in "
                        f"one round (bandwidth {bandwidth}, tick {tick})"
                    )
                load[eid] = count
                words = _count_words(payload)
                if words > word_limit:
                    raise BandwidthExceeded(
                        f"message from {src} has {words} words "
                        f"(limit {word_limit})"
                    )

    def _validate_chunk(self, pending: _Pending) -> None:
        """Strict check of the buffered rounds (locality, bandwidth, words).

        The buffer holds each round's outbox lists by reference (the
        engine never mutates a delivered box, so the references stay
        valid).  Tiny chunks reuse the scalar per-round loop; larger ones
        flatten everything in C-level passes and check the three rules
        with numpy array ops.  Within a chunk, violations are reported
        locality first, then bandwidth, then word size (not interleaved in
        send order) — the edge and tick reported are the same either way.
        """
        total = pending.msgs
        if not total:
            pending.clear()
            return
        if total < _VECTOR_MIN:
            for tick, boxes, dsts in pending.rounds():
                self._validate_round_scalar(boxes, dsts, tick)
            pending.clear()
            return

        # C-level passes expose the sources and payloads of every buffered
        # message without a per-message Python step.
        flat_boxes = pending.boxes
        box_lens = np.fromiter(
            map(len, flat_boxes), dtype=np.intp, count=len(flat_boxes)
        )
        msgs = list(chain.from_iterable(flat_boxes))
        srcs = np.fromiter(map(_SRC, msgs), dtype=np.int64, count=total)
        dsts_arr = np.repeat(
            np.fromiter(pending.dsts, dtype=np.int64, count=len(flat_boxes)),
            box_lens,
        )

        # Locality: every (src, dst) pair must resolve to an edge id.
        eids = self._resolve_eids(srcs, dsts_arr)
        if eids.min() < 0:
            i = int(np.argmax(eids < 0))
            raise NotANeighbor(
                f"node {int(srcs[i])} -> {int(dsts_arr[i])}: not an edge"
            )

        # Bandwidth: a whole-chunk bincount first — if no edge exceeds the
        # budget even summed over every buffered round, no single round
        # can.  Only on suspicion is the count redone per (round, edge),
        # tagging each message with its round index so the rule stays
        # per-round.
        if int(np.bincount(eids).max(initial=0)) > self.bandwidth:
            m = self._num_directed_edges
            marks = pending.marks
            boxes_per_round = np.fromiter(
                (count for _tick, count in marks),
                dtype=np.int64,
                count=len(marks),
            )
            offsets = np.concatenate(([0], np.cumsum(boxes_per_round)[:-1]))
            round_lens = np.add.reduceat(box_lens, offsets)
            round_ids = np.repeat(
                np.arange(len(marks), dtype=np.int64), round_lens
            )
            grouped, counts = np.unique(round_ids * m + eids, return_counts=True)
            worst = int(counts.max(initial=0))
            if worst > self.bandwidth:
                j = int(np.argmax(counts))
                ridx, eid = divmod(int(grouped[j]), m)
                raise BandwidthExceeded(
                    f"edge {int(self._edge_src[eid])}->"
                    f"{int(self._edge_dst[eid])} carried {worst} messages in "
                    f"one round (bandwidth {self.bandwidth}, "
                    f"tick {marks[ridx][0]})"
                )

        # Word size, over the distinct payloads only (a node sends one
        # record to many neighbors, so payloads repeat).  For flat tuples
        # (Ctx.send's documented contract) the word count is
        # len(payload), with an empty payload counting as one word, read
        # in C-level passes; nested tuples, non-tuple or unhashable
        # payloads take the exact recursive Message.words() count.
        try:
            distinct = set(map(_PAYLOAD, msgs))
        except TypeError:
            distinct = list(map(_PAYLOAD, msgs))
        if set(map(type, distinct)) == {tuple} and tuple not in map(
            type, chain.from_iterable(distinct)
        ):
            worst = max(max(map(len, distinct)), 1)
        else:
            worst = max(map(_count_words, distinct))
        if worst > self.word_limit:
            for src, _kind, payload in msgs:
                words = _count_words(payload)
                if words > self.word_limit:
                    raise BandwidthExceeded(
                        f"message from {src} has {words} words "
                        f"(limit {self.word_limit})"
                    )
        pending.clear()

    # ------------------------------------------------------------------
    def run(
        self,
        programs: Sequence[NodeProgram],
        label: str = "",
        hard_cap: int = 5_000_000,
    ) -> RoundStats:
        """Execute one phase until quiescence.

        Quiescence means: no messages in flight and every program has set
        ``active = False``.  Returns the phase's :class:`RoundStats` and adds
        it into :attr:`total`.
        """
        if len(programs) != self.n:
            raise ValueError(f"need {self.n} programs, got {len(programs)}")

        n = self.n
        strict = self.strict
        adj = self._adj

        # Batched delivery: per-destination inbox lists, swapped wholesale
        # at the tick boundary.  ``None`` means "no messages this round" so
        # idle destinations cost nothing to reset.
        inboxes: List[Optional[List[Wire]]] = [None] * n
        outboxes: List[Optional[List[Wire]]] = [None] * n
        in_touched: List[int] = []
        out_touched: List[int] = []
        per_node_sent = [0] * n
        messages_total = 0
        last_send_tick = -1
        tick = 0

        # Pending strict-check chunk (see _validate_chunk).
        pending = _Pending()
        round_sent_base = 0

        # The running node and its send count, shared with ``send``: the
        # wake loop sets ``src`` before each ``on_round`` and folds ``sent``
        # into the per-node and total counts after it.
        src = -1
        sent = 0

        def send(dst: int, kind: str, payload: tuple = ()) -> None:
            # Identical in strict and fast mode: strict validation reads the
            # outboxes back in batch at the round boundary, so a send pays
            # zero per-message validation cost (see module docstring).
            nonlocal sent
            box = outboxes[dst]
            if box is None:
                outboxes[dst] = [(src, kind, payload)]
                out_touched.append(dst)
            else:
                box.append((src, kind, payload))
            sent += 1

        ctx = Ctx()
        ctx.send = send
        empty: List[Wire] = []

        # The ids of the nodes whose ``active`` flag is set.  A tick wakes
        # them and the nodes with a delivery, in increasing id order, so
        # the wake scan costs the nodes it wakes, not ``n``.
        active = set(compress(range(n), map(_ACTIVE, programs)))
        add_active = active.add
        discard_active = active.discard

        while True:
            if tick > hard_cap:
                if strict:
                    # Prefer reporting a model violation over the cap.
                    self._validate_chunk(pending)
                raise HardCapExceeded(
                    f"phase {label!r} exceeded {hard_cap} ticks without quiescing"
                )
            # Deliver: last tick's outboxes become this tick's inboxes.
            inboxes, outboxes = outboxes, inboxes
            in_touched, out_touched = out_touched, in_touched
            if not in_touched and not active:
                break

            # Wake = has inbox or active, processed in increasing node id
            # (deterministic execution order).
            ctx.round = tick
            if active:
                wake = sorted(active.union(in_touched))
            else:
                in_touched.sort()
                wake = in_touched
            for v in wake:
                box = inboxes[v]
                prog = programs[v]
                src = ctx.node = v
                ctx.inbox = empty if box is None else box
                ctx.neighbors = adj[v]
                prog.on_round(ctx)
                if sent:
                    per_node_sent[v] += sent
                    messages_total += sent
                    sent = 0
                if prog.active:
                    add_active(v)
                elif v in active:
                    discard_active(v)

            if strict and out_touched:
                # Buffer the round by reference (a delivered box is never
                # mutated by the engine, so the references stay valid
                # after the inbox slots are reset).
                pending.boxes += map(outboxes.__getitem__, out_touched)
                pending.dsts += out_touched
                pending.marks.append((tick, len(out_touched)))
                pending.msgs += messages_total - round_sent_base
                round_sent_base = messages_total
                if pending.msgs >= _FLUSH_AT:
                    self._validate_chunk(pending)

            for v in in_touched:
                inboxes[v] = None
            in_touched.clear()
            if out_touched:
                last_send_tick = tick
            tick += 1

        if strict:
            self._validate_chunk(pending)

        stats = RoundStats(
            rounds=last_send_tick + 1,
            messages=messages_total,
            per_node_sent={v: c for v, c in enumerate(per_node_sent) if c},
            label=label,
        )
        self.total.merge(stats)
        return stats


__all__ = [
    "BandwidthExceeded",
    "CongestNetwork",
    "HardCapExceeded",
    "NotANeighbor",
]
