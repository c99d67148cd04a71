"""Round / message / congestion accounting.

The paper measures algorithms by *round complexity* and reasons separately
about *congestion at a node* — "the maximum number of messages sent by a node
during the execution of an algorithm" (footnote 4, Section 4.3).  This module
provides the bookkeeping for both, plus a phase ledger so an orchestrator can
compose sequential phases the same way Algorithm 1 composes its Steps 1-7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np


@dataclass
class RoundStats:
    """Statistics of one engine execution (or a sequential composition).

    Attributes
    ----------
    rounds:
        Synchronous communication rounds charged.
    messages:
        Total messages delivered.
    per_node_sent:
        ``node id -> number of messages that node sent``.  Sequential
        composition adds these, matching the paper's notion of congestion
        over a whole execution.
    per_edge_sent:
        ``(src, dst) -> number of messages sent over that directed
        edge``; filled only when the network runs with ``track_edges``
        (empty otherwise).  Sequential composition adds these too.
    label:
        Optional human-readable phase name.

    The message engine fills these in itself; every round-compressed
    phase builds its stats with :meth:`from_sends`.
    """

    rounds: int = 0
    messages: int = 0
    per_node_sent: Dict[int, int] = field(default_factory=dict)
    per_edge_sent: Dict[Tuple[int, int], int] = field(default_factory=dict)
    label: str = ""

    @classmethod
    def from_sends(cls, rounds: int, sent, edges=None,
                   label: str = "") -> RoundStats:
        """The stats of a phase from its per-node and per-edge send counts.

        ``sent`` holds each of the ``n`` nodes' send totals; ``messages``
        is their sum, and nodes that sent nothing are left out of
        ``per_node_sent``, as the engine leaves them out.  ``edges`` is
        ``None`` (no per-edge loads, as when the network does not track
        edges) or a ``(src, dst, count)`` triple of equal-length arrays
        (``count`` may be a scalar): repeated ``(src, dst)`` pairs are
        summed and zero loads left out.  The edge loads must add up to
        ``sent`` for every sender, else :class:`ValueError`.
        """
        sent = np.asarray(sent, dtype=np.int64)
        nz = np.flatnonzero(sent)
        per_edge: Dict[Tuple[int, int], int] = {}
        if edges is not None:
            src, dst, count = np.broadcast_arrays(
                *(np.asarray(a, dtype=np.int64) for a in edges))
            keep = count != 0
            src, dst, count = src[keep], dst[keep], count[keep]
            n = len(sent)
            # float64 bincounts are exact far beyond any phase's traffic
            loads = np.bincount(src, weights=count, minlength=n)
            bad = np.flatnonzero(loads != sent)
            if bad.size:
                v = int(bad[0])
                raise ValueError(
                    f"node {v} sent {int(sent[v])} messages but its edge "
                    f"loads add up to {int(loads[v])}"
                )
            keys, inv = np.unique(src * n + dst, return_inverse=True)
            totals = np.bincount(inv, weights=count,
                                 minlength=len(keys)).astype(np.int64)
            per_edge = dict(zip(zip((keys // n).tolist(), (keys % n).tolist()),
                                totals.tolist()))
        return cls(
            rounds=int(rounds),
            messages=int(sent.sum()),
            per_node_sent=dict(zip(nz.tolist(), sent[nz].tolist())),
            per_edge_sent=per_edge,
            label=label,
        )

    @property
    def max_node_congestion(self) -> int:
        """Maximum number of messages sent by any single node."""
        return max(self.per_node_sent.values(), default=0)

    @property
    def max_edge_congestion(self) -> int:
        """Maximum messages over any directed edge (whole execution).

        The quantity Ghaffari's scheduling result [9] calls the congestion
        ``c``; recorded only when the engine runs with ``track_edges``.
        """
        return max(self.per_edge_sent.values(), default=0)

    def merge(self, other: "RoundStats") -> "RoundStats":
        """In-place sequential composition: ``self`` then ``other``."""
        self.rounds += other.rounds
        self.messages += other.messages
        for node, sent in other.per_node_sent.items():
            self.per_node_sent[node] = self.per_node_sent.get(node, 0) + sent
        for edge, sent in other.per_edge_sent.items():
            self.per_edge_sent[edge] = self.per_edge_sent.get(edge, 0) + sent
        return self

    def __add__(self, other: "RoundStats") -> "RoundStats":
        out = RoundStats(
            rounds=self.rounds,
            messages=self.messages,
            per_node_sent=dict(self.per_node_sent),
            per_edge_sent=dict(self.per_edge_sent),
            label=self.label,
        )
        return out.merge(other)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f" {self.label!r}" if self.label else ""
        return (
            f"RoundStats({self.rounds} rounds, {self.messages} msgs, "
            f"max congestion {self.max_node_congestion}{tag})"
        )

    @staticmethod
    def sequential(parts: Iterable["RoundStats"], label: str = "") -> "RoundStats":
        """Sum a sequence of phase stats into one aggregate."""
        total = RoundStats(label=label)
        for part in parts:
            total.merge(part)
        return total


class PhaseLog:
    """Ordered ledger of labelled phases.

    Orchestrators (e.g. the end-to-end APSP drivers) append one entry per
    paper step; benchmarks read the ledger to report the per-step round
    budget of Theorem 1.1's proof.
    """

    def __init__(self) -> None:
        self._entries: List[Tuple[str, RoundStats]] = []

    def add(self, label: str, stats: RoundStats) -> RoundStats:
        """Record ``stats`` under ``label`` and return it (for chaining)."""
        stats.label = stats.label or label
        self._entries.append((label, stats))
        return stats

    def __iter__(self) -> Iterator[Tuple[str, RoundStats]]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def total(self, label: str = "total") -> RoundStats:
        """Sequential composition of every recorded phase."""
        return RoundStats.sequential((s for _, s in self._entries), label=label)

    def rounds_by_label(self) -> Dict[str, int]:
        """Aggregate rounds per distinct label (labels may repeat)."""
        out: Dict[str, int] = {}
        for label, stats in self._entries:
            out[label] = out.get(label, 0) + stats.rounds
        return out

    def render(self) -> str:
        """Human-readable table of the ledger (used by examples/benches)."""
        lines = [f"{'phase':<42} {'rounds':>10} {'messages':>12} {'congestion':>11}"]
        for label, stats in self._entries:
            lines.append(
                f"{label:<42} {stats.rounds:>10} {stats.messages:>12} "
                f"{stats.max_node_congestion:>11}"
            )
        total = self.total()
        lines.append(
            f"{'TOTAL':<42} {total.rounds:>10} {total.messages:>12} "
            f"{total.max_node_congestion:>11}"
        )
        return "\n".join(lines)


__all__ = ["PhaseLog", "RoundStats"]
