#!/usr/bin/env python3
"""Section 4 in action: the reversed q-sink problem on an adversarial net.

A hub-and-spoke network (star of paths) is the worst case for Step 6:
every cross-arm distance value must pass through the hub.  This script

1. computes the exact values ``delta(x, c)`` every source owes each sink,
2. runs Algorithm 13 to expose the hub as a *bottleneck node*,
3. relays the hub-crossing values through the bottleneck SSSPs,
4. pushes the rest up the pruned in-trees with the Steps 7-9 round-robin
   pipeline, and
5. compares the total rounds against the broadcast strawman.

Usage::

    python examples/step6_pipeline.py [arms] [arm_len]
"""

from __future__ import annotations

import math
import sys

from repro.congest import CongestNetwork
from repro.graphs import star_of_paths
from repro.graphs.reference import all_pairs_shortest_paths
from repro.pipeline import broadcast_delivery, reversed_qsink


def main() -> None:
    arms = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    arm_len = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    graph = star_of_paths(arms, arm_len, seed=9)
    net = CongestNetwork(graph)
    n = graph.n
    sinks = [arm_len * (a + 1) for a in range(arms)]  # the arm tips
    print(f"{graph}: hub=0, sinks at arm tips {sinks}")

    from repro.pipeline.values import reference_values

    ref = all_pairs_shortest_paths(graph)
    values = reference_values(graph, sinks)
    total_values = sum(len(v) for v in values)
    print(f"{total_values} distance values to deliver to {len(sinks)} sinks\n")

    result = reversed_qsink(
        net, graph, sinks, values, bottleneck_threshold=float(n)
    )
    print(f"bottleneck nodes extracted (Algorithm 13): "
          f"{result.bottleneck.bottlenecks}  "
          f"(threshold {result.bottleneck.threshold:.0f}, residual max "
          f"{result.bottleneck.max_residual:.0f})")
    print(f"second-level blockers Q' (Algorithm 8): {result.q_prime}")
    print(f"round-robin pipeline: {result.trace.messages} messages in "
          f"{result.trace.rounds} rounds "
          f"(max per-node load {result.trace.max_forwarded})")
    print(f"Step 6 total: {result.stats.rounds} rounds")

    missing = 0
    for c in sinks:
        for x in range(n):
            if x != c and math.isfinite(ref[x, c]):
                got = result.delivered[c].get(x)
                if got is None or abs(got[0] - ref[x, c]) > 1e-9:
                    missing += 1
    verdict = "all values exact" if missing == 0 else f"{missing} WRONG"
    print(f"delivery check: {verdict}")

    _, bstats = broadcast_delivery(net, sinks, values)
    print(f"\nbroadcast strawman: {bstats.rounds} rounds "
          f"(pipelined/broadcast = "
          f"{result.stats.rounds / bstats.rounds:.2f}; the ratio falls "
          f"below 1 as n and |Q| grow — see benchmark F4)")


if __name__ == "__main__":
    main()
