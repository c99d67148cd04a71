"""repro — reproduction of Agarwal & Ramachandran, "Faster Deterministic
All Pairs Shortest Paths in Congest Model" (SPAA 2020, arXiv:2005.09588).

A from-scratch CONGEST-model simulator plus the paper's ``O~(n^{4/3})``
deterministic APSP algorithm and every baseline it compares against.

Quickstart::

    from repro.graphs import erdos_renyi
    from repro.congest import CongestNetwork
    from repro.apsp import deterministic_apsp

    g = erdos_renyi(27, p=0.15, seed=1)
    net = CongestNetwork(g)
    result = deterministic_apsp(net, g)
    result.verify(g)          # certify dist and pred (no second APSP)
    print(result.rounds)      # CONGEST rounds charged
    print(result.log.render())  # per-step budget (Theorem 1.1)

Scenario sweeps (many instances, many algorithms, many seeds, across
worker processes with result caching) go through
:mod:`repro.experiments`::

    from repro.experiments import ScenarioMatrix, SweepExecutor

    matrix = ScenarioMatrix(families=("er", "grid"), sizes=(16, 24, 32),
                            algorithms=("det-n43", "naive-bf"), seeds=(1, 2))
    records = SweepExecutor(cache_dir="results", workers=4).run(matrix.expand())

Subpackages: :mod:`repro.congest` (simulator), :mod:`repro.graphs`
(instances + references), :mod:`repro.primitives` (BFS / broadcast /
convergecast / Bellman-Ford), :mod:`repro.csssp` (consistent hop-limited
SSSP collections), :mod:`repro.blocker` (Section 3), :mod:`repro.pipeline`
(Section 4 + Step 7), :mod:`repro.apsp` (end-to-end algorithms),
:mod:`repro.experiments` (scenario-sweep subsystem, hash-sharded by
``repro report --shard i/N``), :mod:`repro.analysis` (exponent fits +
Table 1), :mod:`repro.serving` (memory-mapped distance-oracle artifacts
+ the async query server).
"""

__version__ = "1.2.0"

__all__ = [
    "analysis",
    "apsp",
    "blocker",
    "congest",
    "csssp",
    "experiments",
    "graphs",
    "pipeline",
    "primitives",
    "serving",
]
