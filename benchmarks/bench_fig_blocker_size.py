"""F3 — blocker-set size: Lemma 3.10's ``|Q| = O(n log n / h)``.

Sweep ``n`` and ``h`` across generators; report ``|Q|`` and the ratio
``|Q| * h / (n ln n)`` — the lemma predicts a bounded ratio, and the
constructed sets must stay within a constant factor of the centralized
greedy reference.
"""

from __future__ import annotations

import math

from repro.analysis import render_table
from repro.congest import CongestNetwork
from repro.csssp import build_csssp
from repro.graphs import erdos_renyi, grid2d
from repro.blocker import deterministic_blocker_set
from repro.blocker.verify import greedy_reference_size

from _common import emit, once


def test_blocker_size_sweep(benchmark):
    cases = []
    for n in (24, 48, 96):
        cases.append((erdos_renyi(n, p=max(0.1, 4.0 / n), seed=13), None))
    cases.append((grid2d(6, 8, seed=3), None))

    def run():
        rows = []
        for g, _ in cases:
            for h in (2, 3, 5):
                net = CongestNetwork(g)
                coll, _ = build_csssp(net, g, range(g.n), h)
                res = deterministic_blocker_set(net, coll)
                ref = greedy_reference_size(coll)
                ratio = res.q * h / (g.n * math.log(max(g.n, 2)))
                rows.append(
                    [g.name, g.n, h, coll.path_count(), res.q, ref,
                     f"{ratio:.3f}",
                     f"{res.q / ref:.2f}" if ref else "n/a"]
                )
        return rows

    rows = once(benchmark, run)
    table = render_table(
        ["graph", "n", "h", "length-h paths", "|Q| (Alg 2')",
         "greedy reference", "|Q|h/(n ln n)", "|Q|/greedy"],
        rows,
        title="F3: blocker-set size vs Lemma 3.10 (ratio must stay bounded)",
    )
    emit("fig_blocker_size", table)
