#!/usr/bin/env python3
"""Quickstart: run the paper's deterministic APSP on a small network.

Builds a weighted Erdos-Renyi communication network, runs Algorithm 1
(``h = n^{1/3}``, derandomized blocker set, pipelined Step 6), certifies the
output (distances and last edges), and prints the per-step round ledger —
the empirical version of Theorem 1.1's proof.

Usage::

    python examples/quickstart.py [n] [seed]
"""

from __future__ import annotations

import sys

from repro.apsp import deterministic_apsp
from repro.congest import CongestNetwork
from repro.graphs import erdos_renyi


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 27
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    graph = erdos_renyi(n, p=max(0.1, 4.0 / n), seed=seed)
    print(f"graph: {graph}   (hop diameter {graph.und_diameter()})")

    net = CongestNetwork(graph)
    result = deterministic_apsp(net, graph)

    err = result.verify(graph)
    print(f"\nAPSP output verified exact by its shortest-path certificate "
          f"(max residual {err:.2e})")
    print(f"h = {result.meta['h']}, |Q| = {result.meta['q']}, "
          f"|Q'| = {result.meta.get('q_prime', 0)}, "
          f"|B| = {result.meta.get('bottlenecks', 0)}")
    print(f"total rounds: {result.rounds}\n")

    print("per-step round budget (Theorem 1.1):")
    for label, rounds in sorted(result.step_rounds().items()):
        share = 100.0 * rounds / result.rounds
        print(f"  {label:<28} {rounds:>8} rounds  ({share:4.1f}%)")

    sample = [(0, n - 1), (1, n // 2), (n // 3, 2 * n // 3)]
    print("\nsample distances:")
    for x, t in sample:
        print(f"  delta({x}, {t}) = {result.dist[x, t]:.3f}")


if __name__ == "__main__":
    main()
