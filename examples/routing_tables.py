#!/usr/bin/env python3
"""Scenario: routing tables for a staged build/deploy fleet.

A release pipeline is a layered digraph: artifacts flow from build hosts
(layer 0) through test and staging tiers to production (last layer), and
edge weights model transfer costs.  Operators need, at every node, the
cost *and the last hop* of the cheapest route from every origin — exactly
the APSP output of Section 1.1 (distance + last edge).  This script runs
the paper's algorithm, certifies distances and last hops, and
prints the routing table of a production node plus a few full paths.

Usage::

    python examples/routing_tables.py [layers] [width]
"""

from __future__ import annotations

import math
import sys

from repro.apsp import deterministic_apsp
from repro.congest import CongestNetwork
from repro.graphs import layered_digraph


def main() -> None:
    layers = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    width = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    graph = layered_digraph(layers, width, seed=11)
    net = CongestNetwork(graph)
    print(f"{graph}: {layers} tiers x {width} hosts")

    result = deterministic_apsp(net, graph)
    result.verify(graph)
    print(f"verified exact (distances + routes), {result.rounds} rounds, "
          f"h={result.meta['h']}, |Q|={result.meta['q']}\n")

    target = graph.n - 1  # one production host
    print(f"routing table at node {target} (origin -> cost, last hop):")
    for x in range(graph.n):
        d = result.dist[x, target]
        if x == target or math.isinf(d):
            continue
        print(f"  from {x:>3}: cost {d:8.3f}, last hop "
              f"{int(result.pred[x, target]):>3} -> {target}")

    print("\nsample cheapest routes:")
    for x in (0, 1, width):
        if math.isfinite(result.dist[x, target]):
            nodes = result.path(x, target)
            print(f"  {x} -> {target}: {' -> '.join(map(str, nodes))} "
                  f"(cost {result.dist[x, target]:.3f})")

    unreachable = sum(
        1 for x in range(graph.n) if math.isinf(result.dist[target, x])
    )
    print(f"\nbackward reachability from production: "
          f"{graph.n - unreachable}/{graph.n} nodes "
          "(edges only flow forward, as expected)")


if __name__ == "__main__":
    main()
