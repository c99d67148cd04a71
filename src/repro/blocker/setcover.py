"""The Berger-Rompel-Shor approximate set cover ([4]) — centralized.

Section 3 frames the blocker-set problem as hypergraph set cover and
adapts the NC algorithm of [4].  This module implements that abstract
algorithm directly (centralized, no simulator) with the same stage /
phase / selection-step structure and the same pairwise-independent sample
space as the distributed Algorithm 2'.  It serves three purposes:

* a *specification* the distributed construction is tested against — on
  the hypergraph derived from a CSSSP collection, the greedy variants
  must pick identical vertices in identical order;
* a fast reference for sizing experiments (F3 normalizes against
  :func:`greedy_cover`);
* a stand-alone, reusable approximate set-cover library for hypergraphs
  (the paper's Lemma 3.10 argument is generic).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.blocker.sample_space import AffineSampleSpace


class Hypergraph:
    """A finite hypergraph with removable (covered) edges.

    Vertices are ints; edges are vertex sets.  ``cover(v)`` removes every
    live edge containing ``v`` (the set-cover primitive); degrees are
    always with respect to live edges.
    """

    def __init__(self, edges: Iterable[Iterable[int]]) -> None:
        self.edges: List[FrozenSet[int]] = [frozenset(e) for e in edges]
        if any(not e for e in self.edges):
            raise ValueError("empty hyperedges can never be covered")
        self.live: List[bool] = [True] * len(self.edges)
        self._by_vertex: Dict[int, List[int]] = {}
        for idx, e in enumerate(self.edges):
            for v in e:
                self._by_vertex.setdefault(v, []).append(idx)

    @property
    def vertices(self) -> List[int]:
        return sorted(self._by_vertex)

    def live_count(self) -> int:
        """Number of not-yet-covered edges."""
        return sum(self.live)

    def live_edges(self) -> List[FrozenSet[int]]:
        """The not-yet-covered edges, in construction order."""
        return [e for i, e in enumerate(self.edges) if self.live[i]]

    def degree(self, v: int) -> int:
        """Number of live edges containing ``v``."""
        return sum(1 for i in self._by_vertex.get(v, ()) if self.live[i])

    def degrees(self) -> Dict[int, int]:
        """Live degree of every vertex with at least one live edge."""
        out: Dict[int, int] = {}
        for i, e in enumerate(self.edges):
            if self.live[i]:
                for v in e:
                    out[v] = out.get(v, 0) + 1
        return out

    def cover(self, v: int) -> int:
        """Remove live edges containing ``v``; returns how many fell."""
        removed = 0
        for i in self._by_vertex.get(v, ()):
            if self.live[i]:
                self.live[i] = False
                removed += 1
        return removed

    def is_covered_by(self, chosen: Iterable[int]) -> bool:
        """Whether ``chosen`` hits every edge (live or not)."""
        s = set(chosen)
        return all(e & s for e in self.edges)

    def reset(self) -> None:
        """Mark every edge live again (undo all covers)."""
        self.live = [True] * len(self.edges)


@dataclass
class CoverResult:
    """Outcome of a set-cover construction with per-step diagnostics."""

    cover: List[int]
    picks: List[Tuple[str, Tuple[int, ...]]] = field(default_factory=list)
    selection_steps: int = 0

    @property
    def size(self) -> int:
        return len(self.cover)


def greedy_cover(hg: Hypergraph) -> CoverResult:
    """Classic greedy: max-degree vertex, ties to the smaller id."""
    hg.reset()
    out = CoverResult(cover=[])
    while hg.live_count():
        deg = hg.degrees()
        best = max(deg, key=lambda v: (deg[v], -v))
        hg.cover(best)
        out.cover.append(best)
        out.picks.append(("greedy", (best,)))
    return out


def _stage_of(value: float, eps: float) -> int:
    """Smallest ``i`` with ``value < (1+eps)^i`` (``value >= 1``)."""
    i = int(math.floor(math.log(value) / math.log(1.0 + eps))) + 1
    while (1.0 + eps) ** i <= value:  # guard float rounding at band edges
        i += 1
    while i > 1 and (1.0 + eps) ** (i - 1) > value:
        i -= 1
    return i


def brs_cover(
    hg: Hypergraph,
    eps: float = 1.0 / 12.0,
    delta: float = 1.0 / 12.0,
    derandomize: bool = True,
    force_selection: bool = False,
    seed: int = 0,
    max_tries: int = 4096,
) -> CoverResult:
    """The [4] algorithm: stages by degree band, phases by ``|e \\cap V_i|``
    band, selection steps taking a heavy vertex or a pairwise-independent
    good set (Definition 3.1's generic form).

    ``derandomize=True`` scans the affine sample space in enumeration
    order (the Algorithm 7 search); otherwise points are drawn with
    ``seed``.  ``force_selection`` disables the heavy-vertex branch, as in
    the distributed implementation.
    """
    if not (0 < eps <= 1 / 12 and 0 < delta <= 1 / 12):
        raise ValueError("the analysis requires 0 < eps, delta <= 1/12")
    hg.reset()
    rng = random.Random(seed)
    out = CoverResult(cover=[])
    n_ids = (max(hg.vertices) + 1) if hg.vertices else 1

    while hg.live_count():
        deg = hg.degrees()
        max_deg = max(deg.values())
        stage_i = _stage_of(max_deg, eps)
        vi = {v for v, d in deg.items() if d >= (1.0 + eps) ** (stage_i - 1)}

        while True:  # phase loop within the stage
            live = hg.live_edges()
            if not live:
                break
            counts = [len(e & vi) for e in live]
            max_beta = max(counts)
            if max_beta < 1:
                break
            phase_j = _stage_of(max_beta, eps)
            threshold = (1.0 + eps) ** (phase_j - 1)
            pij = [e for e, c in zip(live, counts) if c >= threshold]

            # ---- one selection step --------------------------------
            out.selection_steps += 1
            score_ij: Dict[int, int] = {}
            for e in pij:
                for v in e:
                    score_ij[v] = score_ij.get(v, 0) + 1
            heavy_cut = (delta**3 / (1.0 + eps)) * len(pij)
            best = max(score_ij, key=lambda v: (score_ij[v], -v))
            added: List[int]
            if not force_selection and score_ij[best] > heavy_cut:
                added = [best]
                out.picks.append(("greedy", (best,)))
            else:
                added = _good_set(
                    hg, vi, pij, stage_i, phase_j, eps, delta, n_ids,
                    derandomize, rng, max_tries,
                )
                if added is None:
                    added = [best]
                    out.picks.append(("fallback", (best,)))
                else:
                    out.picks.append(("good-set", tuple(added)))
            for v in added:
                if v not in out.cover:
                    out.cover.append(v)
                hg.cover(v)
            deg = hg.degrees()
            vi = {v for v, d in deg.items()
                  if d >= (1.0 + eps) ** (stage_i - 1)}
            if not vi:
                break
    return out


def _good_set(
    hg: Hypergraph,
    vi: Set[int],
    pij: Sequence[FrozenSet[int]],
    stage_i: int,
    phase_j: int,
    eps: float,
    delta: float,
    n_ids: int,
    derandomize: bool,
    rng: random.Random,
    max_tries: int,
) -> Optional[List[int]]:
    """Steps 11-14 / Algorithm 7, centralized."""
    p = delta / (1.0 + eps) ** phase_j
    space = AffineSampleSpace(n_ids, p)
    vi_sorted = sorted(vi)
    pi = [e for e in hg.live_edges() if e & vi]
    need_pij = (delta / 2.0) * len(pij)

    def try_point(mu: int) -> Optional[List[int]]:
        chosen = [v for v in vi_sorted if space.selects(mu, v)]
        if not chosen:
            return None
        cset = set(chosen)
        cov_pi = sum(1 for e in pi if e & cset)
        cov_pij = sum(1 for e in pij if e & cset)
        need_pi = len(chosen) * (1 + eps) ** stage_i * (1 - 3 * delta - eps)
        if cov_pi >= need_pi and cov_pij >= need_pij:
            return chosen
        return None

    if derandomize:
        for mu in range(min(space.size, max_tries)):
            got = try_point(mu)
            if got is not None:
                return got
        return None
    for _ in range(max_tries):
        got = try_point(rng.randrange(space.size))
        if got is not None:
            return got
    return None


def collection_hypergraph(coll) -> Hypergraph:
    """The hypergraph Section 3 derives from a CSSSP collection."""
    return Hypergraph(vertices for (_x, _leaf, vertices) in coll.hyperedges())


__all__ = [
    "CoverResult",
    "Hypergraph",
    "brs_cover",
    "collection_hypergraph",
    "greedy_cover",
]
