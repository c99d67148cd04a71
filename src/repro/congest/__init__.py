"""CONGEST-model simulator substrate.

The paper (Section 1.1) defines the CONGEST model: ``n`` processors joined by
bounded-bandwidth links, computing in synchronous rounds; in each round every
node may send a constant number of words (node ids, edge weights, distance
values) along each incident edge, and receives in round ``r`` the messages
sent to it in round ``r - 1``.  The performance measure is the worst-case
number of rounds.

This subpackage is a from-scratch, deterministic simulator of that model:

* :class:`~repro.congest.network.CongestNetwork` — the synchronous engine.
  It enforces the bandwidth constraint (at most ``bandwidth`` messages per
  directed edge per round, each message a constant-size tuple) and charges
  exactly one round per synchronous step.
* :class:`~repro.congest.node.NodeProgram` — the per-node protocol API.
  A node only sees its own id, its incident edges and the messages delivered
  to it; global coordination must happen through messages.
* :class:`~repro.congest.metrics.RoundStats` — round / message / congestion
  accounting, composable across sequential phases exactly the way the paper
  composes the steps of Algorithm 1.
* :class:`~repro.congest.compressed.CompressedPhase` — the round-compressed
  execution mode for fixed-schedule phases: one ``run`` call computes the
  aggregate directly and counts the traffic into
  :meth:`RoundStats.from_sends <repro.congest.metrics.RoundStats.from_sends>`,
  and :meth:`~repro.congest.network.CongestNetwork.run_compressed` advances
  the accounting by it (bit-identical to a message-level run).

Everything higher up in :mod:`repro` (broadcast primitives, Bellman–Ford,
CSSSP construction, blocker sets, the pipelined Step-6 algorithms and the
end-to-end APSP algorithms) runs on this engine.
"""

from repro.congest.compressed import CompressedPhase
from repro.congest.message import Message
from repro.congest.metrics import PhaseLog, RoundStats
from repro.congest.network import BandwidthExceeded, CongestNetwork, NotANeighbor
from repro.congest.node import Ctx, NodeProgram

__all__ = [
    "BandwidthExceeded",
    "CompressedPhase",
    "CongestNetwork",
    "Ctx",
    "Message",
    "NodeProgram",
    "NotANeighbor",
    "PhaseLog",
    "RoundStats",
]
