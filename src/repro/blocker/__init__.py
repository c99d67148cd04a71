"""Blocker-set construction (Section 3).

A *blocker set* ``Q`` for an ``h``-CSSSP collection hits every root-to-leaf
path of length ``h`` in every tree (Definition 2.2).  This subpackage
provides four constructions plus shared machinery:

* :mod:`~repro.blocker.randomized` — Algorithm 2: the pairwise-independent
  randomized selection adapted from the Berger-Rompel-Shor NC set-cover
  algorithm [4]; ``O~(|S| h)`` rounds, blocker size ``O~(n/h)``.
* :mod:`~repro.blocker.derandomized` — Algorithm 2': Algorithm 2 with the
  selection step derandomized by searching a linear-size pairwise-independent
  sample space (Algorithm 7 + the pipelined aggregations of Algorithms
  11/12).  The paper's headline blocker construction (Corollary 3.13).
* :mod:`~repro.blocker.greedy` — the [2] baseline: repeatedly take the
  highest-score node; ``O(nh + n|Q|)`` rounds.  The ``n \\cdot |Q|`` term is
  what the paper removes.
* :mod:`~repro.blocker.sampling` — the folklore randomized baseline: sample
  each node with probability ``Theta(log n / h)`` and verify.

Shared machinery: :mod:`~repro.blocker.scores` (distributed score
convergecasts), :mod:`~repro.blocker.helpers` (Algorithms 3-5 and ancestor
collection), :mod:`~repro.blocker.sample_space` (pairwise-independent sample
spaces), :mod:`~repro.blocker.verify` (centralized coverage checking).
"""

from repro.blocker.derandomized import deterministic_blocker_set
from repro.blocker.greedy import greedy_blocker_set
from repro.blocker.randomized import (
    BlockerParams,
    BlockerResult,
    randomized_blocker_set,
)
from repro.blocker.sampling import sampling_blocker_set
from repro.blocker.setcover import (
    Hypergraph,
    brs_cover,
    collection_hypergraph,
    greedy_cover,
)
from repro.blocker.verify import is_blocker_set, uncovered_paths

__all__ = [
    "BlockerParams",
    "BlockerResult",
    "Hypergraph",
    "brs_cover",
    "collection_hypergraph",
    "greedy_cover",
    "deterministic_blocker_set",
    "greedy_blocker_set",
    "is_blocker_set",
    "randomized_blocker_set",
    "sampling_blocker_set",
    "uncovered_paths",
]
