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
organized around three ideas:

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
  ``chain`` / ``map`` passes into numpy arrays of dense ``src * n + dst``
  edge keys and payload word counts, and the locality / bandwidth /
  word-size rules are checked with a handful of array ops.  Edge keys
  resolve through a preallocated dense edge index (an ``n x n`` edge-id
  matrix when the graph is dense enough, a sorted-key binary search
  otherwise — auto-selected from the average degree at construction).  The
  per-round bandwidth rule survives batching because each buffered round
  is a recorded segment of the chunk.  Rounds and chunks with only a few
  messages use an equivalent scalar loop (the numpy fixed cost would
  dominate); both report the same exception types.
* **Vectorized wake scan** — on networks with at least
  ``_WAKE_VECTOR_MIN`` nodes the per-round "who runs" scan (nodes with a
  delivered message or ``active=True``) is a ``flatnonzero`` over a numpy
  view of the activity buffer instead of a Python sweep over all ``n``
  program objects.

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

from itertools import chain
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.congest.faults import (
    FAULT_HARD_CAP,
    FaultPlan,
    FaultTrace,
    FaultsUnsupported,
)
from repro.congest.message import Message, _count_words
from repro.congest.metrics import RoundStats
from repro.congest.node import Ctx, NodeProgram

#: Rounds with at most this many messages are validated inline by the
#: scalar loop instead of being buffered (cheaper than the buffering
#: bookkeeping, and it keeps tiny phases' violations prompt).
_INLINE_MAX = 8

#: Chunks with fewer messages than this are validated by the scalar loop —
#: below this size the numpy fixed cost exceeds the per-message savings.
_VECTOR_MIN = 48

#: Flush (validate) the pending strict-check chunk once it holds this many
#: messages; phases also flush at every exit point.
_FLUSH_AT = 4096

#: Networks with fewer nodes than this keep the Python wake scan.
_WAKE_VECTOR_MIN = 128

#: Always use the dense ``n x n`` edge-id matrix up to this many nodes
#: (the matrix is at most 256 KiB of int32 — cheaper than being clever).
_DENSE_N_CAP = 256

#: Above ``_DENSE_N_CAP`` nodes, use the dense matrix only when directed
#: edges fill at least 1/8 of it (average degree >= n / 8); sparser graphs
#: fall back to binary search over sorted edge keys.
_DENSE_FILL_SHIFT = 3

_GET_BOXES = itemgetter(1)
_GET_DSTS = itemgetter(2)

#: One buffered round of strict-mode traffic: the tick it happened in, the
#: outbox list of every destination that received messages, and those
#: destination ids (parallel lists).
_PendingRound = Tuple[int, List[List[Message]], List[int]]


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
    track_edges:
        Additionally accumulate per-directed-edge send counts into the
        returned stats (off by default: it is the one remaining per-send
        dict update).
    compress:
        Default execution mode for fixed-schedule phases: when true, the
        ported primitives run round-compressed (see
        :mod:`repro.congest.compressed` and :meth:`run_compressed`)
        instead of through the message engine.  Each primitive also takes
        a per-call ``compress`` override, analogous to how ``strict``
        selects the validation path globally.  Results and
        :class:`RoundStats` are bit-identical in both modes; adaptive
        phases always use the engine regardless of this flag.  Primitives
        over many sources or trees (multi-source Bellman-Ford, the
        multi-tree convergecasts, the Step-6 delivery pipeline) replay
        all their phases in one :meth:`run_compressed` call; a single
        phase is a batch of one.
    faults:
        An optional :class:`~repro.congest.faults.FaultPlan` applied at
        delivery time in the message-level engine (see
        :mod:`repro.congest.faults` for the semantics); the decisions a
        run makes accumulate in :attr:`fault_trace`.  A zero plan takes
        the untouched fault-free path (bit-identical to no plan at all);
        a non-zero plan is incompatible with round-compressed execution
        and raises :class:`~repro.congest.faults.FaultsUnsupported`
        here when ``compress=True`` and from every
        :meth:`run_compressed` call — never silently ignored.
    """

    def __init__(
        self,
        graph,
        bandwidth: int = 1,
        word_limit: int = 8,
        strict: bool = True,
        track_edges: bool = False,
        compress: bool = False,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.graph = graph
        self.n: int = graph.n
        self.bandwidth = bandwidth
        self.word_limit = word_limit
        self.strict = strict
        self.track_edges = track_edges
        self.compress = compress
        #: the plan this network was built with (``None`` = no plan)
        self.fault_plan = faults
        #: accumulated :class:`~repro.congest.faults.FaultTrace` of every
        #: fault decision made on this network (empty for a zero plan;
        #: ``None`` when no plan was given)
        self.fault_trace: Optional[FaultTrace] = None
        if faults is not None and not faults.is_zero:
            if compress:
                raise FaultsUnsupported(
                    f"fault plan {faults!r} cannot run round-compressed: "
                    "compressed phases materialize no messages to fault; "
                    "use compress=False or replay a recorded trace on the "
                    "message-level engine"
                )
            self._fault_runtime = faults.bind(self.n)
            self.fault_trace = self._fault_runtime.trace
        else:
            self._fault_runtime = None
            if faults is not None:
                self.fault_trace = FaultTrace()
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
    def use_compressed(self, override: Optional[bool] = None) -> bool:
        """Resolve a primitive's per-call ``compress`` flag against the default."""
        return self.compress if override is None else bool(override)

    def run_compressed(self, phase, label: str = ""):
        """Execute a fixed-schedule phase analytically (no messages).

        ``phase`` follows the :class:`repro.congest.compressed.CompressedPhase`
        protocol: its declared :class:`~repro.congest.compressed.PhaseSchedule`
        advances the round counter and :class:`RoundStats` exactly as the
        message-level run would have, and its evaluation produces the same
        aggregate result.  Returns ``(result, stats)`` and merges the stats
        into :attr:`total`, mirroring :meth:`run`.
        """
        if self._fault_runtime is not None:
            raise FaultsUnsupported(
                f"phase {(label or getattr(phase, 'label', '?'))!r}: "
                f"round-compressed execution materializes no messages, so "
                f"it cannot apply fault plan {self.fault_plan!r}; run with "
                "compress=False (or replay the recorded FaultTrace on the "
                "message-level engine)"
            )
        sched = phase.schedule(self)
        result = phase.evaluate(self)
        stats = sched.to_stats(
            label=label or phase.label, track_edges=self.track_edges
        )
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
        self, boxes: List[List[Message]], dsts: List[int], tick: int
    ) -> None:
        """Scalar strict check of one round's traffic (the tiny-round path)."""
        edge_pos = self._edge_pos
        bandwidth = self.bandwidth
        word_limit = self.word_limit
        load: Dict[int, int] = {}
        for dst, box in zip(dsts, boxes):
            for msg in box:
                eid = edge_pos[msg.src].get(dst)
                if eid is None:
                    raise NotANeighbor(f"node {msg.src} -> {dst}: not an edge")
                count = load.get(eid, 0) + 1
                if count > bandwidth:
                    raise BandwidthExceeded(
                        f"edge {msg.src}->{dst} carried {count} messages in "
                        f"one round (bandwidth {bandwidth}, tick {tick})"
                    )
                load[eid] = count
                words = _count_words(msg.payload)
                if words > word_limit:
                    raise BandwidthExceeded(
                        f"message from {msg.src} has {words} words "
                        f"(limit {word_limit})"
                    )

    def _validate_chunk(self, rounds: List[_PendingRound]) -> None:
        """Strict check of the buffered rounds (locality, bandwidth, words).

        Each entry buffers one round's outbox lists by reference (the
        engine never mutates a delivered box, so the references stay
        valid).  Tiny chunks reuse the scalar per-round loop; larger ones
        flatten everything in C-level passes and check the three rules
        with numpy array ops.  Within a chunk, violations are reported
        locality first, then bandwidth, then word size (not interleaved in
        send order) — the edge and tick reported are the same either way.
        """
        if not rounds:
            return
        flat_boxes = list(chain.from_iterable(map(_GET_BOXES, rounds)))
        box_lens = np.fromiter(
            map(len, flat_boxes), dtype=np.intp, count=len(flat_boxes)
        )
        total = int(box_lens.sum())
        if total < _VECTOR_MIN:
            for tick, boxes, dsts in rounds:
                self._validate_round_scalar(boxes, dsts, tick)
            rounds.clear()
            return

        n = self.n
        # One C-level transpose exposes sources and payloads of every
        # buffered message without a per-message Python step.
        src_col, _kind_col, payloads = zip(*chain.from_iterable(flat_boxes))
        srcs = np.fromiter(src_col, dtype=np.int64, count=total)
        box_dsts = np.fromiter(
            chain.from_iterable(map(_GET_DSTS, rounds)),
            dtype=np.int64,
            count=len(flat_boxes),
        )
        dsts_arr = np.repeat(box_dsts, box_lens)

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
            boxes_per_round = np.fromiter(
                (len(boxes) for _tick, boxes, _dsts in rounds),
                dtype=np.int64,
                count=len(rounds),
            )
            offsets = np.concatenate(([0], np.cumsum(boxes_per_round)[:-1]))
            round_lens = np.add.reduceat(box_lens, offsets)
            round_ids = np.repeat(
                np.arange(len(rounds), dtype=np.int64), round_lens
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
                    f"tick {rounds[ridx][0]})"
                )

        # Word size: for flat tuple payloads (Ctx.send's documented
        # contract) the word count is len(payload), with an empty payload
        # counting as one word — computed in one C pass.  Payloads with
        # nested tuples (or non-iterable payloads) fall back to the exact
        # recursive Message.words() count.
        try:
            lens = np.fromiter(map(len, payloads), dtype=np.int64, count=total)
            deep = tuple in map(type, chain.from_iterable(payloads))
        except TypeError:
            deep = True
        if deep:
            words = np.fromiter(
                map(_count_words, payloads), dtype=np.int64, count=total
            )
        else:
            words = lens
        if max(int(words.max(initial=0)), 1) > self.word_limit:
            i = int(np.argmax(words > self.word_limit))
            raise BandwidthExceeded(
                f"message from {int(srcs[i])} has "
                f"{max(int(words[i]), 1)} words (limit {self.word_limit})"
            )
        rounds.clear()

    # ------------------------------------------------------------------
    def run(
        self,
        programs: Sequence[NodeProgram],
        max_rounds: Optional[int] = None,
        label: str = "",
        hard_cap: int = 5_000_000,
    ) -> RoundStats:
        """Execute one phase until quiescence (or ``max_rounds`` ticks).

        Quiescence means: no messages in flight and every program has set
        ``active = False``.  Returns the phase's :class:`RoundStats` and adds
        it into :attr:`total`.
        """
        if len(programs) != self.n:
            raise ValueError(f"need {self.n} programs, got {len(programs)}")

        n = self.n
        strict = self.strict
        adj = self._adj
        track_edges = self.track_edges
        faults = self._fault_runtime
        crashed: frozenset = frozenset()
        if faults is not None:
            faults.start_phase()
            # Fault-induced divergence (a node waiting forever on a
            # dropped message) must surface promptly, not after 5M ticks.
            hard_cap = min(hard_cap, FAULT_HARD_CAP)

        # Batched delivery: per-destination inbox lists, swapped wholesale
        # at the tick boundary.  ``None`` means "no messages this round" so
        # idle destinations cost nothing to reset.
        inboxes: List[Optional[List[Message]]] = [None] * n
        outboxes: List[Optional[List[Message]]] = [None] * n
        in_touched: List[int] = []
        out_touched: List[int] = []
        per_node_sent = [0] * n
        per_edge_sent: Dict[Tuple[int, int], int] = {}
        messages_total = 0
        last_send_tick = -1
        tick = 0

        # Pending strict-check chunk: buffered (tick, boxes, dsts) rounds
        # plus the number of messages they hold (see _validate_chunk).
        pending: List[_PendingRound] = []
        pending_msgs = 0
        round_sent_base = 0

        def send(src: int, dst: int, kind: str, payload: tuple) -> None:
            # Identical in strict and fast mode: strict validation reads the
            # outboxes back in batch at the round boundary, so a send pays
            # zero per-message validation cost (see module docstring).
            nonlocal messages_total
            msg = Message(src, kind, payload)
            box = outboxes[dst]
            if box is None:
                outboxes[dst] = [msg]
                out_touched.append(dst)
            else:
                box.append(msg)
            messages_total += 1
            per_node_sent[src] += 1
            if track_edges:
                ekey = (src, dst)
                per_edge_sent[ekey] = per_edge_sent.get(ekey, 0) + 1

        ctx = Ctx()
        ctx._send = send
        empty: List[Message] = []

        # Activity flags live in a bytearray so the vectorized wake scan can
        # read them zero-copy through a numpy view.
        active = bytearray(n)
        active_view = np.frombuffer(active, dtype=np.uint8)
        # Faulted runs pin the scalar wake scan: it is the one path with
        # the crashed-node filter, and faulted phases are small by design.
        vector_wake = n >= _WAKE_VECTOR_MIN and faults is None
        num_active = 0
        for v in range(n):
            if programs[v].active:
                active[v] = 1
                num_active += 1

        while True:
            if max_rounds is not None and tick > max_rounds:
                break
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
            if faults is not None:
                # Delivery-time fault application: releases due delayed
                # messages, drops/duplicates/delays fresh ones, and
                # swallows traffic to crashed nodes.  Replaces inbox
                # slots with new lists (delivered boxes stay unmutated
                # for the strict-mode batch checks) and rewrites
                # in_touched in place.
                crashed = faults.apply(tick, inboxes, in_touched)
                if not in_touched and not num_active and not faults.pending:
                    break
            elif not in_touched and not num_active:
                break

            # Wake = has inbox or active, processed in increasing node id
            # (deterministic execution order).
            if num_active:
                if vector_wake:
                    # flatnonzero / union1d return sorted unique ids, so the
                    # execution order matches the Python sweep exactly.
                    if in_touched:
                        wake = np.union1d(
                            np.flatnonzero(active_view),
                            np.fromiter(
                                in_touched, dtype=np.int64, count=len(in_touched)
                            ),
                        ).tolist()
                    else:
                        wake = np.flatnonzero(active_view).tolist()
                    for v in wake:
                        box = inboxes[v]
                        prog = programs[v]
                        ctx.node = v
                        ctx.round = tick
                        ctx.inbox = empty if box is None else box
                        ctx.neighbors = adj[v]
                        prog.on_round(ctx)
                        if prog.active:
                            if not active[v]:
                                active[v] = 1
                                num_active += 1
                        elif active[v]:
                            active[v] = 0
                            num_active -= 1
                else:
                    for v in range(n):
                        box = inboxes[v]
                        if box is None and not active[v]:
                            continue
                        if crashed and v in crashed:
                            # Down this tick: no execution, state and
                            # active flag preserved for recovery.
                            continue
                        prog = programs[v]
                        ctx.node = v
                        ctx.round = tick
                        ctx.inbox = empty if box is None else box
                        ctx.neighbors = adj[v]
                        prog.on_round(ctx)
                        if prog.active:
                            if not active[v]:
                                active[v] = 1
                                num_active += 1
                        elif active[v]:
                            active[v] = 0
                            num_active -= 1
            else:
                in_touched.sort()
                for v in in_touched:
                    prog = programs[v]
                    ctx.node = v
                    ctx.round = tick
                    ctx.inbox = inboxes[v]
                    ctx.neighbors = adj[v]
                    prog.on_round(ctx)
                    if prog.active:
                        active[v] = 1
                        num_active += 1

            if strict and out_touched:
                # Validate tiny rounds inline; buffer the rest by reference
                # (a delivered box is never mutated by the engine, so the
                # references stay valid after the inbox slots are reset).
                round_msgs = messages_total - round_sent_base
                round_sent_base = messages_total
                if round_msgs <= _INLINE_MAX:
                    self._validate_round_scalar(
                        [outboxes[dst] for dst in out_touched], out_touched, tick
                    )
                else:
                    pending.append(
                        (tick, [outboxes[dst] for dst in out_touched],
                         list(out_touched))
                    )
                    pending_msgs += round_msgs
                    if pending_msgs >= _FLUSH_AT:
                        self._validate_chunk(pending)
                        pending_msgs = 0

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
            per_edge_sent=per_edge_sent,
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
