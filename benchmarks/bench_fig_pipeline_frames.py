"""F8 — round-robin pipeline progress (Section 4.3's frame argument).

Lemma 4.6's engine: a node that still has traffic for sink ``c`` is never
starved for more than a frame, so the pipeline completes in about
``max load + depth`` rounds rather than ``load x depth``.  Adversarial
shapes (brooms: all values serialize through a handle; stars: a hub serves
many sinks) stress exactly this.  We report measured rounds against the
per-instance lower bound (max per-node load) and the frame-style upper
shape (load + depth), plus ``n sqrt(|Q|)`` for scale.
"""

from __future__ import annotations

import math

from repro.analysis import render_table
from repro.congest import CongestNetwork
from repro.csssp import build_csssp
from repro.graphs import broom, star_of_paths
from repro.pipeline.short_range import round_robin_pipeline

from _common import emit, once


def test_pipeline_frames(benchmark):
    cases = []
    for handle, brush in [(8, 16), (12, 24), (16, 48)]:
        g = broom(handle, brush, seed=3)
        cases.append((g, [0]))
    for arms, arm_len in [(4, 6), (6, 8)]:
        g = star_of_paths(arms, arm_len, seed=4)
        cases.append((g, [arm_len * (a + 1) for a in range(arms)]))

    def run():
        rows = []
        for g, sinks in cases:
            net = CongestNetwork(g)
            cq, _ = build_csssp(net, g, sinks, g.n, orientation="in")
            values = [
                {c: (float(v), 0, 0)
                 for c in sinks if cq.trees[c].live(v) and v != c}
                for v in range(g.n)
            ]
            delivered, stats, trace = round_robin_pipeline(net, cq, values)
            for c in sinks:  # completeness gate
                t = cq.trees[c]
                expect = sum(1 for x in range(g.n) if t.live(x) and x != c)
                assert len(delivered[c]) == expect
            max_load = trace.max_forwarded
            depth = max(max(t.depth) for t in cq.trees.values())
            rows.append(
                [g.name, g.n, len(sinks), trace.messages, max_load,
                 stats.rounds, max_load + depth + len(sinks),
                 int(g.n * math.sqrt(len(sinks)))]
            )
        return rows

    rows = once(benchmark, run)
    table = render_table(
        ["graph", "n", "|Q|", "messages", "max node load",
         "measured rounds", "load+depth+|Q| frame shape", "n sqrt(|Q|)"],
        rows,
        title="F8: round-robin pipeline progress "
              "(rounds ~ load + depth, not load x depth)",
    )
    for row in rows:
        assert row[5] <= row[6], row  # frame-style shape holds
    emit("fig_pipeline_frames", table)
