"""Algorithm 2' — the deterministic blocker-set algorithm (Corollary 3.13).

Identical to Algorithm 2 except Steps 12-14 are replaced by Algorithm 7:
instead of sampling one point and hoping it is good, the nodes *search* the
shared pairwise-independent sample space.

Per selection step (Algorithm 7):

1. every leaf collects the ids on its root paths ([2]'s Ancestors
   algorithm, ``O(|S| h)`` rounds) — Step 1;
2. a BFS in-tree rooted at the leader exists from the driver — Step 2;
3. for a batch of ``n`` enumeration-ordered sample points, every node
   locally evaluates its covered-path counts ``sigma^{(mu)}_{P_i,v}`` and
   ``sigma^{(mu)}_{P_ij,v}`` (numpy-vectorized — local computation is free)
   and the pipelined convergecast of Algorithms 11/12 sums them at the
   leader in ``O(height + n)`` rounds — Step 3;
4. the leader knows ``V_i`` and the sample space, so it derives ``|A^{(mu)}|``
   locally, tests Definition 3.1 for every point, and picks the first good
   one — Step 4 (Lemma 3.8 guarantees >= 1/8 of the space qualifies, so the
   first batch succeeds in expectation; further batches are scanned
   otherwise, and experiment F6 records the observed good fraction);
5. the leader broadcasts the chosen point's coefficients; every node derives
   its membership locally — Step 5.

Total: ``O(|S| h + n)`` rounds per selection step (Lemma 3.12).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.congest.metrics import RoundStats
from repro.congest.network import CongestNetwork
from repro.csssp.collection import CSSSPCollection
from repro.blocker.helpers import collect_ancestors
from repro.blocker.randomized import (
    BlockerParams,
    BlockerResult,
    SelectionContext,
    leaf_coverage_structures,
    run_blocker_algorithm,
)
from repro.blocker.sample_space import AffineSampleSpace
from repro.primitives.broadcast import broadcast_from_root
from repro.primitives.convergecast import pipelined_vector_sum

#: Sample-space batches scanned per selection step before the driver
#: falls back to the heavy node.
_MAX_BATCHES = 64


def sigma_vectors(
    structures: List[Tuple[Tuple[int, ...], bool]],
    member_matrix: np.ndarray,
    vi_index: dict,
) -> Tuple[np.ndarray, np.ndarray]:
    """One node's ``(sigma_Pi, sigma_Pij)`` over a whole batch of points.

    ``member_matrix[k, j]`` says whether batch point ``k`` selects the
    ``j``-th node of ``V_i``; a path is covered by point ``k`` iff any of
    its ``V_i`` members' columns is set.
    """
    n_mu = member_matrix.shape[0]
    s_pi = np.zeros(n_mu)
    s_pij = np.zeros(n_mu)
    for members, in_pij in structures:
        cols = [vi_index[u] for u in members]
        if not cols:
            continue
        covered = member_matrix[:, cols].any(axis=1)
        s_pi += covered
        if in_pij:
            s_pij += covered
    return s_pi, s_pij


class DerandomizedSelector:
    """Algorithm 7: exhaustive (batched) search of the sample space."""

    name = "derandomized"

    def select(
        self, ctx: SelectionContext
    ) -> Tuple[Optional[List[int]], RoundStats, int, float]:
        """Search the sample space batch-by-batch for a good set.

        Returns ``(members, stats, batches_scanned, good_fraction)`` —
        ``members`` is None when no good point surfaced within the batch
        budget (the driver then falls back to the heavy node).
        """
        net = ctx.net
        total = RoundStats(label="selection-derandomized")
        anc, stats = collect_ancestors(net, ctx.coll)  # Alg. 7 Step 1
        total.merge(stats)
        structures = leaf_coverage_structures(ctx, anc)
        space = AffineSampleSpace(net.n, ctx.selection_probability)
        vi_arr = np.asarray(ctx.vi, dtype=np.int64)
        vi_index = {v: j for j, v in enumerate(ctx.vi)}
        width = max(net.n, 1)  # one batch of n sample points per convergecast
        good_points = 0
        scanned = 0
        for k in range(_MAX_BATCHES):
            mus = space.batch(k, width)
            if not mus:
                break
            member = space.matrix(mus, vi_arr)  # every node derives this locally
            vectors = []
            for v in range(net.n):
                s_pi, s_pij = sigma_vectors(structures[v], member, vi_index)
                vectors.append(np.concatenate([s_pi, s_pij]).tolist())
            totals, stats = pipelined_vector_sum(  # Algs. 11/12, Step 3
                net, ctx.bfs, vectors, label="nu-convergecast"
            )
            total.merge(stats)
            nu = np.asarray(totals)
            nu_pi, nu_pij = nu[: len(mus)], nu[len(mus):]
            a_sizes = member.sum(axis=1)  # leader-local: V_i and space are shared
            need_pi, need_pij = ctx.good_set_thresholds(a_sizes)
            good = (a_sizes >= 1) & (nu_pi >= need_pi) & (nu_pij >= need_pij)
            good_points += int(good.sum())
            scanned += len(mus)
            if good.any():
                idx = int(np.argmax(good))
                mu = mus[idx]
                a, b = space.point(mu)
                _, stats = broadcast_from_root(  # Alg. 7 Step 5
                    net, ctx.bfs, [(a, b)], label="announce-good-point"
                )
                total.merge(stats)
                chosen = space.select_set(mu, ctx.vi)
                return sorted(chosen), total, k + 1, good_points / scanned
        return None, total, _MAX_BATCHES, (
            good_points / scanned if scanned else 0.0
        )


def deterministic_blocker_set(
    net: CongestNetwork,
    coll: CSSSPCollection,
    params: Optional[BlockerParams] = None,
) -> BlockerResult:
    """Algorithm 2' — deterministic blocker set in ``O~(|S| h)`` rounds."""
    return run_blocker_algorithm(
        net, coll, params or BlockerParams(), DerandomizedSelector(), label="alg2p"
    )


__all__ = ["DerandomizedSelector", "deterministic_blocker_set", "sigma_vectors"]
