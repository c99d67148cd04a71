"""F5 — bottleneck machinery: Lemmas A.15-A.17.

On hub-heavy instances (stars of paths — every cross-arm value serializes
at the hub) with the threshold forced low enough to trigger picks:

* ``|B| <= sqrt(|Q|)``-style bound: each pick removes more than the
  threshold's worth of load, so ``|B| <= total_load / threshold``;
* residual ``total_count <= threshold`` everywhere (Lemma A.15);
* round cost near ``O(n sqrt(|Q|) + h |Q|)`` (Lemma A.17).
"""

from __future__ import annotations

import math

from repro.analysis import render_table
from repro.congest import CongestNetwork
from repro.csssp import build_csssp
from repro.graphs import star_of_paths
from repro.pipeline.bottleneck import compute_bottleneck, message_counts

from _common import emit, once


def test_bottleneck_invariants_sweep(benchmark):
    cases = [(3, 6), (4, 8), (6, 10), (8, 12)]  # (arms, arm_len)

    def run():
        rows = []
        for arms, arm_len in cases:
            g = star_of_paths(arms, arm_len, seed=5)
            net = CongestNetwork(g)
            sinks = [arm_len * (a + 1) for a in range(arms)]  # arm tips
            cq, _ = build_csssp(net, g, sinks, g.n, orientation="in")
            counts, _ = message_counts(net, cq)
            total_load = sum(
                counts[x][v]
                for x, t in cq.trees.items()
                for v in range(g.n)
                if t.live(v) and t.depth[v] >= 1
            )
            threshold = float(g.n)  # force hub extraction at bench scale
            res = compute_bottleneck(net, cq, threshold=threshold)
            bound_b = total_load / threshold
            paper_rounds = g.n * math.sqrt(len(sinks)) + g.n * len(sinks)
            rows.append(
                [g.name, g.n, len(sinks), int(total_load), int(threshold),
                 len(res.bottlenecks), f"{bound_b:.1f}",
                 int(res.max_residual), res.stats.rounds,
                 int(paper_rounds)]
            )
            assert res.max_residual <= threshold
            assert len(res.bottlenecks) <= bound_b
        return rows

    rows = once(benchmark, run)
    table = render_table(
        ["graph", "n", "|Q|", "total load", "threshold", "|B|",
         "|B| bound", "max residual", "rounds",
         "paper O(n sqrt q + h q)"],
        rows,
        title="F5: Algorithm 13 invariants (Lemmas A.15-A.17)",
    )
    emit("fig_bottleneck", table)
