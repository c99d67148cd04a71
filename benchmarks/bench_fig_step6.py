"""F4 — Step 6: pipelined reversed q-sink vs the broadcast strawman.

The paper's headline component claim (Lemmas 4.1/4.5): delivery in
``O~(n^{4/3})`` rounds vs ``O~(n |Q|) = O~(n^{5/3})`` for broadcast.
Standalone Step 6 on identical inputs (``|Q| ~ n^{2/3}`` blockers, exact
values at the sources): measure both, fit exponents, find the crossover.
"""

from __future__ import annotations

import math

from repro.analysis import crossover, fit_exponent, render_series, render_table
from repro.congest import CongestNetwork
from repro.csssp import build_csssp
from repro.graphs import erdos_renyi
from repro.graphs.reference import all_pairs_shortest_paths
from repro.blocker import deterministic_blocker_set
from repro.pipeline import broadcast_delivery, reversed_qsink
from repro.apsp.driver import default_h

from _common import emit, once

SWEEP_NS = (16, 24, 32, 48, 64, 96)


def prepare(n):
    g = erdos_renyi(n, p=max(0.1, 4.0 / n), seed=17)
    net = CongestNetwork(g)
    ref = all_pairs_shortest_paths(g)
    h = default_h(n)
    coll, _ = build_csssp(net, g, range(n), h)
    q_nodes = sorted(deterministic_blocker_set(net, coll).blockers)
    from repro.pipeline.values import reference_values

    values = reference_values(g, q_nodes)
    return g, net, ref, q_nodes, values


def test_step6_pipelined_vs_broadcast(benchmark):
    def run():
        rows = []
        for n in SWEEP_NS:
            g, net, ref, q_nodes, values = prepare(n)
            qs = reversed_qsink(net, g, q_nodes, values)
            for c in q_nodes:  # exactness gate on every sweep point
                for x in range(n):
                    if x != c and math.isfinite(ref[x, c]):
                        assert abs(qs.delivered[c][x][0] - ref[x, c]) < 1e-6
            _, bstats = broadcast_delivery(net, q_nodes, values)
            rows.append((n, len(q_nodes), qs.stats.rounds, bstats.rounds))
        return rows

    rows = once(benchmark, run)
    ns = [r[0] for r in rows]
    pipe = [r[2] for r in rows]
    bcast = [r[3] for r in rows]
    fit_p = fit_exponent(ns, pipe)
    fit_b = fit_exponent(ns, bcast)
    table = render_table(
        ["n", "|Q|", "pipelined rounds (Algs 8+9)", "broadcast rounds"],
        [[n, q, p, b] for (n, q, p, b) in rows],
        title="F4: Step 6 delivery rounds (values verified exact at sinks)",
    )
    series = "\n".join(
        [
            render_series("pipelined", ns, pipe, note=f"alpha={fit_p.alpha:.2f}"),
            render_series("broadcast", ns, bcast, note=f"alpha={fit_b.alpha:.2f}"),
            render_series(
                "broadcast/pipelined", ns,
                [b / p for p, b in zip(pipe, bcast)],
                note="paper predicts growth ~ sqrt(|Q|)",
            ),
        ]
    )
    measured, extrapolated = crossover(ns, pipe, bcast)
    xover = (
        f"crossover: first measured win at n={measured}; fitted power laws "
        f"cross at n~{extrapolated:.0f}" if extrapolated else
        f"crossover: first measured win at n={measured}"
    )
    benchmark.extra_info["alpha_pipelined"] = fit_p.alpha
    benchmark.extra_info["alpha_broadcast"] = fit_b.alpha
    emit("fig_step6", table + "\n\n" + series + "\n" + xover)
