"""Named axes of the scenario space: graph families, weight models, algorithms.

This is the single registry the CLI, the sweep subsystem, and the
benchmarks share, so a scenario named ``("er", 32, "integer", "det-n43",
seed=7)`` means the same instance everywhere.  Everything here is fully
deterministic in ``seed``.

The registry also carries each algorithm family's *claimed* round bound
(:class:`ClaimedBound` / :data:`CLAIMED_BOUNDS`) — the exponent, the
polylog factor the ``O~`` hides, and the paper locus the bound comes from
— so the sweep-level analysis (:mod:`repro.analysis.sweep_report`) can
compare fitted growth exponents against the paper's claims without every
bench re-declaring them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.apsp import (
    baseline_n32_apsp,
    deterministic_apsp,
    five_thirds_apsp,
    naive_bf_apsp,
    randomized_apsp,
)
from repro.graphs import (
    barabasi_albert,
    complete_graph,
    erdos_renyi,
    grid2d,
    layered_digraph,
    path_graph,
    random_geometric,
    ring_graph,
    star_of_paths,
    watts_strogatz,
)
from repro.graphs.spec import Graph

#: End-to-end APSP contenders runnable as ``fn(net, graph)`` (Table 1 keys).
ALGORITHMS: Dict[str, Callable] = {
    "det-n43": deterministic_apsp,
    "det-n32": baseline_n32_apsp,
    "rand-n43": randomized_apsp,
    "det-n53": five_thirds_apsp,
    "naive-bf": naive_bf_apsp,
}

@dataclass(frozen=True)
class ClaimedBound:
    """One algorithm family's claimed CONGEST round bound.

    ``alpha`` is the polynomial exponent of the claimed bound
    (``rounds = O~(n^alpha)``) and ``polylog`` the power of ``log n``
    the ``O~`` hides; the sweep report divides measured series by
    ``n^alpha * (ln n)^polylog`` and checks the result for flatness.
    ``message_alpha`` is the trivial message-complexity ceiling that
    follows from the round bound (``<= 2m`` messages per round, and the
    sweep families keep ``m = Theta(n)``, so ``alpha + 1`` unless a
    tighter exponent is claimed).  ``source`` names the paper locus the
    bound is quoted from, so every verdict line in the report is
    traceable to a step/theorem.
    """

    algorithm: str
    bound: str  #: the paper-quoted bound, e.g. ``"O~(n^{4/3})"``
    alpha: float
    source: str
    polylog: int = 1
    message_alpha: Optional[float] = None

    @property
    def messages_alpha(self) -> float:
        """Claimed message exponent (defaults to ``alpha + 1``)."""
        return self.message_alpha if self.message_alpha is not None \
            else self.alpha + 1.0


#: Claimed round bounds per algorithm family (keys of :data:`ALGORITHMS`).
#: Single source of truth: Table 1's ``claimed_alpha`` column
#: (:data:`repro.analysis.tables.TABLE1_ROWS`) and the sweep report's
#: verdict lines both read from here.
CLAIMED_BOUNDS: Dict[str, ClaimedBound] = {
    "det-n43": ClaimedBound(
        "det-n43", "O~(n^{4/3})", 4.0 / 3.0,
        "Theorem 1.1 — Algorithm 1, Steps 1-7 (derandomized blocker, "
        "pipelined Step 6)",
    ),
    "rand-n43": ClaimedBound(
        "rand-n43", "O~(n^{4/3})", 4.0 / 3.0,
        "Agarwal-Ramachandran [1] — Algorithm 1 with the randomized "
        "Algorithm-2 blocker",
    ),
    "det-n32": ClaimedBound(
        "det-n32", "O~(n^{3/2})", 1.5,
        "Agarwal et al. [2] — baseline with h = n^{1/2} and the greedy "
        "blocker",
    ),
    "det-n53": ClaimedBound(
        "det-n53", "O~(n^{5/3})", 5.0 / 3.0,
        "Section 2 strawman — broadcast Step 6 dominates at n^{5/3}",
    ),
    "naive-bf": ClaimedBound(
        "naive-bf", "O(n * hop-diameter)", 2.0,
        "folklore — one n-hop Bellman-Ford per source, worst case D = "
        "Theta(n)",
        polylog=0,
    ),
}

#: Edge-weight models, as generator keyword overrides.  ``zero_frac``
#: models only exist for the Erdos-Renyi families (the other generators
#: have no zero-weight knob; :func:`make_graph` rejects the combination
#: by name).
WEIGHT_MODELS: Dict[str, Dict[str, object]] = {
    "uniform": {},  # each generator's default real-valued range
    "integer": {"wrange": (1.0, 16.0), "integer": True},
    "unit": {"wrange": (1.0, 1.0), "integer": True},
    "zero": {"zero_frac": 0.3},  # 30% zero-weight edges (er families only)
    # Heavy-tailed Pareto(alpha=1.2) weights: infinite variance, so a few
    # enormous edges dominate every instance.
    "pareto": {"dist": "pareto"},
    # Pareto tail plus 30% zero-weight edges (er families only).
    "pareto-zero": {"dist": "pareto", "zero_frac": 0.3},
    # Every weight within 1e-9 of 1: nearly all path comparisons tie, so
    # lexicographic tie-breaking decides the shortest-path trees.
    "near-tie": {"wrange": (1.0, 1.0 + 1e-9)},
}

GRAPH_FAMILIES = [
    "er", "er-directed", "grid", "ring", "path", "complete", "ba", "star",
    "layered", "rgg", "ws",
]

#: Named scenario-matrix presets for ``repro sweep --preset``.  Each value
#: is a set of :class:`~repro.experiments.spec.ScenarioMatrix` keyword
#: overrides; flags given explicitly on the command line still win.  The
#: ``large-n`` presets unlock the n-in-the-hundreds workloads that the
#: fitted-exponent analysis needs (they default to the engine fast path —
#: ``strict`` there would only re-validate protocols already exercised by
#: the strict tier-1 suite at small n).
SWEEP_PRESETS: Dict[str, Dict[str, object]] = {
    "quick": {
        "families": ["er", "path"],
        "sizes": [16, 24],
        "algorithms": ["det-n43", "naive-bf"],
    },
    "paper-small": {
        "families": ["er"],
        "sizes": [16, 24, 32, 48],
        "algorithms": sorted(ALGORITHMS),
    },
    "large-n": {
        "families": ["er", "ws"],
        "sizes": [128, 256],
        "algorithms": ["det-n43", "rand-n43"],
        "strict": False,
    },
    "large-n-smoke": {
        "families": ["er"],
        "sizes": [128],
        "algorithms": ["det-n43"],
        "strict": False,
    },
    # The same workloads with the fixed-schedule phases round-compressed
    # (bit-identical records, just faster — see repro.congest.compressed).
    "large-n-compressed": {
        "families": ["er", "ws"],
        "sizes": [128, 256],
        "algorithms": ["det-n43", "rand-n43"],
        "strict": False,
        "compress": True,
    },
    # The generating sweep behind `repro report` / docs/RESULTS.md: every
    # implemented Table-1 family across a topology spread (sparse random,
    # worst-case path, hub-heavy ba, small-world ws, geometric rgg) and a
    # size ladder wide enough for log-log fits, small enough for the CI
    # docs job.  Rounds and messages are pure functions of the spec, so
    # the report built from these records is byte-reproducible anywhere.
    "report": {
        "families": ["er", "path", "ba", "ws", "rgg"],
        "sizes": [16, 24, 32, 48, 64],
        "algorithms": sorted(ALGORITHMS),
        "strict": False,
    },
}


def make_graph(family: str, n: int, seed: int, weights: str = "uniform") -> Graph:
    """Instantiate one generator family at roughly ``n`` nodes.

    ``weights`` picks a :data:`WEIGHT_MODELS` entry; the ``zero_frac``
    models (``zero``, ``pareto-zero``) only exist for the Erdos-Renyi
    families — the other generators have no zero-weight knob, and asking
    for one raises a :class:`ValueError` naming both the model and the
    family.
    """
    if weights not in WEIGHT_MODELS:
        raise ValueError(f"unknown weight model {weights!r}")
    wkw = dict(WEIGHT_MODELS[weights])
    if "zero_frac" in wkw and family not in ("er", "er-directed"):
        # Named rejection instead of letting the generator choke on an
        # unexpected zero_frac kwarg: the message carries both the model
        # and the family so sweep errors are self-explanatory.
        raise ValueError(
            f"weight model {weights!r} sets zero_frac, which only the er "
            f"families support; family {family!r} has no zero-weight knob"
        )
    if family == "er":
        return erdos_renyi(n, p=max(0.1, 4.0 / n), seed=seed, **wkw)
    if family == "er-directed":
        return erdos_renyi(n, p=max(0.12, 5.0 / n), seed=seed, directed=True,
                           **wkw)
    if family == "grid":
        side = max(2, round(math.sqrt(n)))
        return grid2d(side, max(2, n // side), seed=seed, **wkw)
    if family == "ring":
        return ring_graph(n, seed=seed, **wkw)
    if family == "path":
        return path_graph(n, seed=seed, **wkw)
    if family == "complete":
        return complete_graph(n, seed=seed, **wkw)
    if family == "ba":
        return barabasi_albert(n, seed=seed, **wkw)
    if family == "star":
        return star_of_paths(max(2, n // 6), 6, seed=seed, **wkw)
    if family == "layered":
        return layered_digraph(max(2, n // 4), 4, seed=seed, **wkw)
    if family == "rgg":
        return random_geometric(n, seed=seed, **wkw)
    if family == "ws":
        return watts_strogatz(n, seed=seed, **wkw)
    raise ValueError(f"unknown graph family {family!r}")


__all__ = [
    "ALGORITHMS",
    "CLAIMED_BOUNDS",
    "ClaimedBound",
    "GRAPH_FAMILIES",
    "SWEEP_PRESETS",
    "WEIGHT_MODELS",
    "make_graph",
]
