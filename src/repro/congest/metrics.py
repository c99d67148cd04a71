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
    label:
        Optional human-readable phase name.

    The message engine fills these in itself; every round-compressed
    phase builds its stats with :meth:`from_sends`.
    """

    rounds: int = 0
    messages: int = 0
    per_node_sent: Dict[int, int] = field(default_factory=dict)
    label: str = ""

    @classmethod
    def from_sends(cls, rounds: int, sent, label: str = "") -> RoundStats:
        """The stats of a phase from its per-node send counts.

        ``sent`` holds each of the ``n`` nodes' send totals; ``messages``
        is their sum, and nodes that sent nothing are left out of
        ``per_node_sent``, as the engine leaves them out.
        """
        sent = np.asarray(sent, dtype=np.int64)
        nz = np.flatnonzero(sent)
        return cls(
            rounds=int(rounds),
            messages=int(sent.sum()),
            per_node_sent=dict(zip(nz.tolist(), sent[nz].tolist())),
            label=label,
        )

    @property
    def max_node_congestion(self) -> int:
        """Maximum number of messages sent by any single node."""
        return max(self.per_node_sent.values(), default=0)

    def merge(self, other: "RoundStats") -> "RoundStats":
        """In-place sequential composition: ``self`` then ``other``."""
        self.rounds += other.rounds
        self.messages += other.messages
        for node, sent in other.per_node_sent.items():
            self.per_node_sent[node] = self.per_node_sent.get(node, 0) + sent
        return self

    def __add__(self, other: "RoundStats") -> "RoundStats":
        out = RoundStats(
            rounds=self.rounds,
            messages=self.messages,
            per_node_sent=dict(self.per_node_sent),
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
