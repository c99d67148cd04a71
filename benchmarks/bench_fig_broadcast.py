"""F7 — broadcast primitives: Lemmas A.1 and A.2.

``k`` values from one node in ``O(n + k)`` rounds; one value from every
node in ``O(n)``.  Measured rounds vs the additive bound across ``n`` and
``k`` — the series must track the bound linearly, not quadratically.
"""

from __future__ import annotations

from repro.analysis import render_table
from repro.congest import CongestNetwork
from repro.graphs import erdos_renyi, path_graph, ring_graph
from repro.primitives import broadcast_from_root, build_bfs_tree, gather_and_broadcast

from _common import emit, once



def test_broadcast_primitives(benchmark):
    def run():
        rows = []
        # Lemma A.1: k values from the root.
        for n in (16, 32, 64):
            for k in (1, n // 2, 2 * n):
                g = ring_graph(n, seed=1)  # worst-ish height ~ n/2
                net = CongestNetwork(g)
                tree, _ = build_bfs_tree(net)
                items = [(j,) for j in range(k)]
                _, stats = broadcast_from_root(net, tree, items)
                rows.append(
                    ["A.1 (root, ring)", n, k, stats.rounds,
                     2 * tree.height + 2 * k + 6]
                )
        # Lemma A.2: one value per node, across topologies.
        for make, label in [
            (lambda n: path_graph(n, seed=2), "A.2 (path)"),
            (lambda n: erdos_renyi(n, p=max(0.1, 4.0 / n), seed=2), "A.2 (er)"),
        ]:
            for n in (16, 32, 64, 128):
                g = make(n)
                net = CongestNetwork(g)
                tree, _ = build_bfs_tree(net)
                items = [[(v,)] for v in range(n)]
                _, stats = gather_and_broadcast(net, tree, items)
                rows.append([label, n, n, stats.rounds,
                             4 * tree.height + 2 * n + 6])
        return rows

    rows = once(benchmark, run)
    table = render_table(
        ["primitive", "n", "k (values)", "measured rounds",
         "2/4*height + 2k + 6 bound"],
        rows,
        title="F7: broadcast primitives vs Lemmas A.1/A.2 (rounds <= bound)",
    )
    for row in rows:
        assert row[3] <= row[4], row
    emit("fig_broadcast", table)
