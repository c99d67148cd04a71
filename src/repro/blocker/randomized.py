"""Algorithm 2 — the randomized blocker-set algorithm, and its driver loop.

The driver (:func:`run_blocker_algorithm`) implements the stage / phase /
selection-step structure of Algorithm 2 and is shared with the derandomized
Algorithm 2' (:mod:`repro.blocker.derandomized`), which differs only in how
Steps 12-14 pick a good set.  Stage ``i`` restricts attention to ``V_i``,
the nodes whose score sits in the top ``(1+\\epsilon)``-band; phase ``j``
restricts to ``P_ij``, the paths carrying at least ``(1+\\epsilon)^{j-1}``
``V_i``-nodes; each selection step either takes one heavy node (Steps 9-10)
or a pairwise-independent *good set* (Steps 11-14, Definition 3.1), then
removes the covered subtrees and recomputes scores (Steps 15-16).

Two departures from the listing, both round-preserving and both documented
under "Departures from the paper" in docs/REPRODUCTION.md:

* empty stages/phases are skipped by aggregating the current maximum
  score / path count (an ``O(D)`` convergecast) instead of iterating ``i``
  and ``j`` through bands that provably contain no work — the sequence of
  selection steps is exactly the one the paper's loop performs;
* the set ``A`` is communicated as the sample-space coefficients ``(a, b)``
  (two words) rather than as a member list, since every node already knows
  ``V_i`` and the shared sample space; membership is then local.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.congest.metrics import PhaseLog, RoundStats
from repro.congest.network import CongestNetwork
from repro.csssp.collection import CSSSPCollection
from repro.csssp.pruning import remove_subtrees_sequential
from repro.blocker.helpers import (
    broadcast_selection_stats,
    collect_ancestors,
    compute_vi_counts,
)
from repro.blocker.sample_space import AffineSampleSpace
from repro.blocker.scores import compute_score_ij, compute_scores
from repro.blocker.setcover import _stage_of
from repro.blocker.verify import is_blocker_set
from repro.primitives.bfs import BFSTree, build_bfs_tree
from repro.primitives.broadcast import broadcast_from_root, gather_and_broadcast
from repro.primitives.convergecast import aggregate_and_broadcast


@dataclass
class BlockerParams:
    """Tunables of Algorithms 2 / 2' (paper defaults: eps = delta = 1/12).

    ``force_selection`` disables the heavy-node branch (Steps 9-10) so the
    good-set machinery is exercised even at scales where a single node
    always clears the ``\\delta^3/(1+\\epsilon)`` fraction test — used by
    tests and experiment F6.
    """

    eps: float = 1.0 / 12.0
    delta: float = 1.0 / 12.0
    seed: int = 0
    force_selection: bool = False

    def __post_init__(self) -> None:
        if not (0 < self.eps <= 1.0 / 12.0 and 0 < self.delta <= 1.0 / 12.0):
            raise ValueError("paper requires 0 < eps, delta <= 1/12")


@dataclass
class PickRecord:
    """Diagnostics for one selection step (consumed by tests and F6)."""

    kind: str  # "greedy" | "good-set" | "fallback"
    stage: int
    phase: int
    added: Tuple[int, ...]
    pij_size: int
    covered_pij: int
    trials: int = 0
    good_fraction: float = float("nan")


@dataclass
class BlockerResult:
    """Outcome of a blocker-set construction."""

    blockers: List[int]
    stats: RoundStats
    log: PhaseLog
    picks: List[PickRecord] = field(default_factory=list)

    @property
    def q(self) -> int:
        return len(self.blockers)

    @property
    def selection_steps(self) -> int:
        return len(self.picks)


@dataclass
class SelectionContext:
    """Everything a selection strategy needs for Steps 11-14 of one step."""

    net: CongestNetwork
    coll: CSSSPCollection
    bfs: BFSTree
    vi: List[int]
    vi_set: Set[int]
    stage_i: int
    phase_j: int
    pi_leaf: Dict[int, List[int]]
    pij_leaf: Dict[int, List[int]]
    pij_size: int
    params: BlockerParams
    rng: random.Random

    @property
    def selection_probability(self) -> float:
        """Step 12's ``p = delta / (1+eps)^j``."""
        return self.params.delta / (1.0 + self.params.eps) ** self.phase_j

    def good_set_thresholds(self, a_size):
        """Definition 3.1's two coverage requirements for ``|A| = a_size``.

        ``a_size`` may be an int or a numpy array of sizes (one per
        sample point); the first requirement then has its shape.
        """
        p = self.params
        need_pi = a_size * (1 + p.eps) ** self.stage_i * (1 - 3 * p.delta - p.eps)
        need_pij = (p.delta / 2.0) * self.pij_size
        return need_pi, need_pij

    def is_good(self, a_size: int, cov_pi: float, cov_pij: float) -> bool:
        """Definition 3.1 applied to measured coverage counts."""
        if a_size < 1:
            return False
        need_pi, need_pij = self.good_set_thresholds(a_size)
        return cov_pi >= need_pi and cov_pij >= need_pij


def leaf_coverage_structures(
    ctx: SelectionContext, anc: Dict[int, Dict[int, List[int]]]
) -> List[List[Tuple[Tuple[int, ...], bool]]]:
    """Per-leaf path descriptions for local coverage evaluation.

    For every node ``v``, a list over its live P_i paths of
    ``(vi_members_on_path, in_pij)`` — the depth>=1 vertices restricted to
    ``V_i`` (coverage by ``A \\subseteq V_i`` only depends on those), plus
    the P_ij membership flag.  Built from the ancestor lists each leaf
    collected, i.e. from local knowledge.
    """
    per_node: List[List[Tuple[Tuple[int, ...], bool]]] = [
        [] for _ in range(ctx.net.n)
    ]
    for x, leaves in ctx.pi_leaf.items():
        pij = set(ctx.pij_leaf.get(x, ()))
        for leaf in leaves:
            path = anc[x][leaf][1:] + [leaf]
            members = tuple(u for u in path if u in ctx.vi_set)
            per_node[leaf].append((members, leaf in pij))
    return per_node


def local_sigma(
    structures: Sequence[Tuple[Tuple[int, ...], bool]], selected: Set[int]
) -> Tuple[int, int]:
    """One node's ``(sigma_Pi, sigma_Pij)`` for a candidate set."""
    cov_pi = cov_pij = 0
    for members, in_pij in structures:
        if any(u in selected for u in members):
            cov_pi += 1
            if in_pij:
                cov_pij += 1
    return cov_pi, cov_pij


#: Sample draws per selection step before the driver falls back.
_MAX_ATTEMPTS = 512


class RandomizedSelector:
    """Steps 11-14 of Algorithm 2: sample, test goodness, retry.

    The leader draws one sample point per attempt and broadcasts its
    coefficients down the BFS tree; every node derives the set ``A``
    locally, leaves evaluate local coverage, and one tuple-sum convergecast
    verifies Definition 3.1.  Expected O(1) attempts (Lemma 3.8: a sample
    is good with probability >= 1/8).
    """

    name = "randomized"

    def select(
        self, ctx: SelectionContext
    ) -> Tuple[Optional[List[int]], RoundStats, int, float]:
        """Draw sample points until one passes Definition 3.1.

        Returns ``(members, stats, attempts, nan)`` — ``members`` is None
        after ``_MAX_ATTEMPTS`` failures (the driver falls back).
        """
        total = RoundStats(label="selection-randomized")
        anc, stats = collect_ancestors(ctx.net, ctx.coll)
        total.merge(stats)
        structures = leaf_coverage_structures(ctx, anc)
        space = AffineSampleSpace(ctx.net.n, ctx.selection_probability)
        for attempt in range(1, _MAX_ATTEMPTS + 1):
            mu = ctx.rng.randrange(space.size)
            a, b = space.point(mu)
            _, stats = broadcast_from_root(
                ctx.net, ctx.bfs, [(a, b)], label="draw-sample"
            )
            total.merge(stats)
            selected = set(space.select_set(mu, ctx.vi))
            sigmas = [local_sigma(structures[v], selected) for v in range(ctx.net.n)]
            (cov_pi, cov_pij), stats = aggregate_and_broadcast(
                ctx.net,
                ctx.bfs,
                sigmas,
                lambda p, q: (p[0] + q[0], p[1] + q[1]),
                label="goodness-check",
            )
            total.merge(stats)
            if ctx.is_good(len(selected), cov_pi, cov_pij):
                return sorted(selected), total, attempt, float("nan")
        return None, total, _MAX_ATTEMPTS, float("nan")


def _aggregate_max(
    net: CongestNetwork, bfs: BFSTree, values: Sequence[float], label: str
) -> Tuple[float, RoundStats]:
    result, stats = aggregate_and_broadcast(
        net,
        bfs,
        [(float(v),) for v in values],
        lambda p, q: (max(p[0], q[0]),),
        label=label,
    )
    return result[0], stats


def _broadcast_vi(
    net: CongestNetwork,
    bfs: BFSTree,
    score: Sequence[float],
    threshold: float,
) -> Tuple[List[int], RoundStats]:
    """Lemma 3.2: members announce their ids; everyone assembles ``V_i``."""
    items = [[(v,)] if score[v] >= threshold else [] for v in range(net.n)]
    received, stats = gather_and_broadcast(net, bfs, items, label="broadcast-vi")
    return sorted(v for (v,) in received[bfs.root]), stats


def run_blocker_algorithm(
    net: CongestNetwork,
    coll: CSSSPCollection,
    params: BlockerParams,
    selector,
    label: str = "blocker",
) -> BlockerResult:
    """The stage/phase/selection-step driver shared by Algorithms 2 and 2'.

    Works on a copy of ``coll`` (Step 15's removals do not leak to the
    caller).  Returns the blocker set in pick order plus full phase and
    pick diagnostics.
    """
    original = coll
    coll = coll.copy()
    eps, delta = params.eps, params.delta
    rng = random.Random(params.seed)
    log = PhaseLog()
    picks: List[PickRecord] = []
    blockers: List[int] = []

    bfs, stats = build_bfs_tree(net)
    log.add("bfs-tree", stats)

    score, _per_tree, stats = compute_scores(net, coll, label="scores",
                                             per_tree=False)
    log.add("initial-scores", stats)
    live_weight = sum(score)  # h per live length-h path

    while True:
        max_score, stats = _aggregate_max(net, bfs, score, "max-score")
        log.add("max-score", stats)
        if max_score < 1:
            break
        stage_i = _stage_of(max_score, eps)
        vi, stats = _broadcast_vi(net, bfs, score, (1.0 + eps) ** (stage_i - 1))
        log.add("broadcast-vi", stats)
        vi_set = set(vi)

        while True:  # phase loop within stage_i
            counts, stats = compute_vi_counts(net, coll, vi_set,
                                              label="compute-pi")
            log.add("compute-pi", stats)
            local_max = np.zeros(net.n)
            np.maximum.at(local_max, counts.leaf, counts.beta)
            max_beta, stats = _aggregate_max(net, bfs, local_max.tolist(),
                                             "max-beta")
            log.add("max-beta", stats)
            if max_beta < 1:
                break  # P_i exhausted for this V_i: leave the stage
            phase_j = _stage_of(max_beta, eps)
            in_pij = counts.beta >= (1.0 + eps) ** (phase_j - 1)
            pij_leaf = counts.leaves(in_pij)
            pij_size = int(in_pij.sum())
            if pij_size == 0:  # pragma: no cover - max_beta guard covers this
                break

            # ---- one selection step (Steps 7-16) -----------------------
            score_ij, stats = compute_score_ij(net, coll, pij_leaf)
            log.add("score-ij", stats)
            pij_counts = np.bincount(counts.leaf[in_pij], minlength=net.n)
            scores_view, pij_total, stats = broadcast_selection_stats(
                net, bfs, score_ij, pij_counts.tolist()
            )
            log.add("selection-stats", stats)
            assert pij_total == pij_size, "leaf path counts diverged"

            heavy_cut = (delta**3 / (1.0 + eps)) * pij_size
            best = max(
                (v for v in scores_view), key=lambda v: (scores_view[v], -v),
                default=None,
            )
            added: List[int]
            if (
                not params.force_selection
                and best is not None
                and scores_view[best] > heavy_cut
            ):
                added = [best]
                picks.append(
                    PickRecord(
                        kind="greedy",
                        stage=stage_i,
                        phase=phase_j,
                        added=(best,),
                        pij_size=pij_size,
                        covered_pij=int(scores_view[best]),
                    )
                )
            else:
                ctx = SelectionContext(
                    net=net,
                    coll=coll,
                    bfs=bfs,
                    vi=vi,
                    vi_set=vi_set,
                    stage_i=stage_i,
                    phase_j=phase_j,
                    pi_leaf=counts.leaves(counts.beta >= 1),
                    pij_leaf=pij_leaf,
                    pij_size=pij_size,
                    params=params,
                    rng=rng,
                )
                chosen, stats, trials, good_frac = selector.select(ctx)
                log.add(f"selection-{selector.name}", stats)
                if chosen is None:
                    # Theory guarantees a good set exists; keep the run alive
                    # with the heavy node anyway and record the miss.
                    added = [best] if best is not None else []
                    picks.append(
                        PickRecord(
                            kind="fallback",
                            stage=stage_i,
                            phase=phase_j,
                            added=tuple(added),
                            pij_size=pij_size,
                            covered_pij=int(scores_view.get(best, 0)),
                            trials=trials,
                            good_fraction=good_frac,
                        )
                    )
                else:
                    added = chosen
                    covered = sum(
                        1
                        for x, leaves in pij_leaf.items()
                        for leaf in leaves
                        if set(coll.trees[x].path_from_root(leaf)[1:]) & set(added)
                    )
                    picks.append(
                        PickRecord(
                            kind="good-set",
                            stage=stage_i,
                            phase=phase_j,
                            added=tuple(added),
                            pij_size=pij_size,
                            covered_pij=covered,
                            trials=trials,
                            good_fraction=good_frac,
                        )
                    )
            for v in added:
                if v not in blockers:
                    blockers.append(v)

            # Steps 15-16: cleanup and recompute.
            stats = remove_subtrees_sequential(net, coll, added)
            log.add("remove-subtrees", stats)
            score, _per_tree, stats = compute_scores(net, coll, label="rescore",
                                                     per_tree=False)
            log.add("rescore", stats)
            # Every pick lies on a live P_ij path, so each step detaches
            # one; a step that does not would repeat forever.
            if sum(score) >= live_weight:
                raise AssertionError("a selection step detached no path")
            live_weight = sum(score)
            vi, stats = _broadcast_vi(
                net, bfs, score, (1.0 + eps) ** (stage_i - 1)
            )
            log.add("refresh-vi", stats)
            vi_set = set(vi)
            if not vi:
                break  # stage exhausted

    result = BlockerResult(
        blockers=blockers, stats=log.total(label), log=log, picks=picks
    )
    if not is_blocker_set(original, blockers):  # pragma: no cover - safety net
        raise AssertionError("constructed set fails Definition 2.2")
    return result


def randomized_blocker_set(
    net: CongestNetwork,
    coll: CSSSPCollection,
    params: Optional[BlockerParams] = None,
) -> BlockerResult:
    """Algorithm 2: randomized blocker set in ``O~(|S| h)`` rounds."""
    return run_blocker_algorithm(
        net, coll, params or BlockerParams(), RandomizedSelector(), label="alg2"
    )


__all__ = [
    "BlockerParams",
    "BlockerResult",
    "PickRecord",
    "RandomizedSelector",
    "SelectionContext",
    "leaf_coverage_structures",
    "local_sigma",
    "randomized_blocker_set",
    "run_blocker_algorithm",
]
