"""The folklore randomized blocker baseline (Step 2's "very simple" option).

Every node joins ``Q`` independently with probability ``c ln n / h``; a
random set of that density hits every length-``h`` path w.h.p. (the paper
quotes size ``O((n/h) log n)``).  The distributed realization is Las Vegas:
sample, broadcast the member ids (Lemma A.2), verify coverage with one
Compute-Pi-style flood (Algorithm 3 pattern) plus an OR-convergecast, and
resample on failure.  Used for the randomized rows of Table 1 / F2 / F3.
"""

from __future__ import annotations

import math
import random

from repro.congest.metrics import PhaseLog
from repro.congest.network import CongestNetwork
from repro.csssp.collection import CSSSPCollection
from repro.blocker.randomized import BlockerResult, PickRecord
from repro.blocker.verify import distributed_coverage_check
from repro.primitives.bfs import build_bfs_tree
from repro.primitives.broadcast import gather_and_broadcast


def sampling_blocker_set(
    net: CongestNetwork,
    coll: CSSSPCollection,
    seed: int = 0,
    density: float = 1.0,
    max_attempts: int = 64,
) -> BlockerResult:
    """Sample-and-verify blocker set of expected size ``O((n/h) log n)``.

    ``density`` scales the inclusion probability ``density * ln(n) / h``
    (clamped to 1); higher densities trade size for fewer retries.
    """
    n, h = coll.n, coll.h
    rng = random.Random(seed)
    p = min(1.0, density * math.log(max(n, 2)) / h)
    log = PhaseLog()
    bfs, stats = build_bfs_tree(net)
    log.add("bfs-tree", stats)

    picks = []
    for attempt in range(1, max_attempts + 1):
        members = sorted(v for v in range(n) if rng.random() < p)
        items = [[(v,)] if v in set(members) else [] for v in range(n)]
        _, stats = gather_and_broadcast(net, bfs, items, label="announce-sample")
        log.add("announce-sample", stats)
        covered, stats = distributed_coverage_check(
            net, coll, members, bfs=bfs, label="verify"
        )
        log.add("verify", stats)
        picks.append(
            PickRecord(
                kind="sample",
                stage=0,
                phase=0,
                added=tuple(members),
                pij_size=coll.path_count(),
                covered_pij=0,
                trials=attempt,
            )
        )
        if covered:
            return BlockerResult(
                blockers=members, stats=log.total("sampling"), log=log, picks=picks
            )
    raise RuntimeError(
        f"sampling failed to cover within {max_attempts} attempts "
        f"(p={p:.3f}) — raise density"
    )


__all__ = ["sampling_blocker_set"]
