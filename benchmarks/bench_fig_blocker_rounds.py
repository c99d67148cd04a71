"""F2 — blocker-set construction rounds: Corollary 3.13 vs the [2] greedy.

The paper's claim: Algorithm 2' runs in ``O~(|S| h)`` rounds while the
greedy baseline pays ``O~(|S| h + n |Q|)`` — an extra ``n |Q| =
Theta(n^2/h)`` term.

**Scale caveat (the main reproduction finding here, see "Departures from
the paper" in docs/REPRODUCTION.md).**
Algorithm 2's Step 9 takes the heavy-node branch whenever some node covers
more than a ``delta^3/(1+eps) = 1/1872`` *fraction* of ``P_ij``; with
``|P_ij| < 1872`` any node covering one path qualifies, so at laptop scale
every selection step is a single-node pick that still pays the full
``O(|S| h)`` recompute — ``Theta(q n h)`` total, *worse* than greedy.  The
asymptotic claim rests on the good-set branch adding many nodes per step;
we therefore also measure Algorithm 2' with the heavy-node branch disabled
(``force_selection``) to expose that mechanism: selection steps collapse
below ``|Q|`` because each good set adds several nodes at once.
"""

from __future__ import annotations

from repro.analysis import fit_exponent, render_series, render_table
from repro.congest import CongestNetwork
from repro.csssp import build_csssp
from repro.graphs import erdos_renyi
from repro.blocker import (
    deterministic_blocker_set,
    greedy_blocker_set,
    sampling_blocker_set,
)
from repro.apsp.driver import default_h

from _common import emit, once

SWEEP_NS = (16, 24, 32, 48, 64, 96)



def test_blocker_rounds_sweep(benchmark):
    def run():
        from repro.blocker import BlockerParams

        out = {
            "derandomized (Alg 2')": [],
            "Alg 2' good-set branch (force_selection)": [],
            "greedy [2]": [],
            "sampling": [],
        }
        sizes = {k: [] for k in out}
        steps = {k: [] for k in out}
        for n in SWEEP_NS:
            g = erdos_renyi(n, p=max(0.1, 4.0 / n), seed=11)
            net = CongestNetwork(g)
            h = default_h(n)
            coll, _ = build_csssp(net, g, range(n), h)
            for key, fn in [
                ("derandomized (Alg 2')",
                 lambda net, coll: deterministic_blocker_set(net, coll)),
                ("Alg 2' good-set branch (force_selection)",
                 lambda net, coll: deterministic_blocker_set(
                     net, coll, BlockerParams(force_selection=True))),
                ("greedy [2]", greedy_blocker_set),
                ("sampling", sampling_blocker_set),
            ]:
                res = fn(net, coll)
                out[key].append(res.stats.rounds)
                sizes[key].append(res.q)
                steps[key].append(len(res.picks))
        return out, sizes, steps

    data, sizes, steps = once(benchmark, run)
    ns = list(SWEEP_NS)
    rows = []
    for key, rounds in data.items():
        fit = fit_exponent(ns, rounds)
        rows.append(
            [key, " ".join(map(str, rounds)),
             " ".join(map(str, sizes[key])),
             " ".join(map(str, steps[key])), f"{fit.alpha:.2f}"]
        )
        benchmark.extra_info[key] = {"rounds": rounds, "alpha": fit.alpha}
    table = render_table(
        ["construction", f"rounds at n={ns}", "|Q| at each n",
         "selection steps", "fitted alpha"],
        rows,
        title="F2: blocker construction rounds (h = n^{1/3}, ER graphs)",
    )
    notes = "\n".join([
        render_series(
            "good-set steps / |Q| (force_selection)",
            ns,
            [s / max(q, 1) for s, q in zip(
                steps["Alg 2' good-set branch (force_selection)"],
                sizes["Alg 2' good-set branch (force_selection)"])],
            note="< 1 means good sets add several nodes per step — the "
                 "mechanism behind Corollary 3.13's q-free bound",
        ),
        render_series(
            "greedy/Alg-2' round ratio",
            ns,
            [g / d for g, d in zip(data["greedy [2]"], data["derandomized (Alg 2')"])],
            note="< 1 at reproduction scale: Step 9's absolute threshold "
                 "keeps Alg 2' in one-node-per-step mode (see module doc)",
        ),
    ])
    emit("fig_blocker_rounds", table + "\n\n" + notes)
