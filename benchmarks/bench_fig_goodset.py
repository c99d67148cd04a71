"""F6 — the good-set machinery: Lemmas 3.8, 3.9, 3.12.

Claims measured (with the heavy-node branch disabled so Steps 11-14
actually run — at reproduction scale a single node otherwise always clears
Step 9's absolute ``delta^3/(1+eps)`` threshold; see "Departures from the
paper" in docs/REPRODUCTION.md):

* Lemma 3.8 shape: the fraction of *good* sample points in the scanned
  batches; >= 1/8 is the paper's guarantee when the selection branch is
  entered under its precondition — we report the observed fraction per run;
* Lemma 3.9 shape: selection steps stay polylogarithmic (reported);
* Lemma 3.12 shape: rounds per derandomized selection (O(|S|h + n)).
"""

from __future__ import annotations

from repro.analysis import render_table
from repro.congest import CongestNetwork
from repro.csssp import build_csssp
from repro.graphs import erdos_renyi
from repro.blocker import BlockerParams, deterministic_blocker_set, is_blocker_set
from repro.blocker import randomized_blocker_set

from _common import emit, once


def test_goodset_machinery(benchmark):
    cases = [(20, 0.4, 2), (28, 0.35, 2), (36, 0.3, 2)]

    def run():
        rows = []
        for n, p, h in cases:
            g = erdos_renyi(n, p=p, seed=23)
            net = CongestNetwork(g)
            coll, _ = build_csssp(net, g, range(n), h)
            params = BlockerParams(force_selection=True)
            det = deterministic_blocker_set(net, coll, params)
            assert is_blocker_set(coll, det.blockers)
            rnd = randomized_blocker_set(net, coll, params)
            assert is_blocker_set(coll, rnd.blockers)
            good = [p_ for p_ in det.picks if p_.kind == "good-set"]
            fallbacks = sum(1 for p_ in det.picks if p_.kind == "fallback")
            fracs = [p_.good_fraction for p_ in good]
            batches = [p_.trials for p_ in good]
            attempts = [p_.trials for p_ in rnd.picks if p_.kind == "good-set"]
            rows.append(
                [
                    f"er(n={n},p={p})",
                    coll.path_count(),
                    len(det.picks),
                    len(good),
                    fallbacks,
                    f"{min(fracs):.3f}-{max(fracs):.3f}" if fracs else "n/a",
                    f"{sum(batches)/len(batches):.1f}" if batches else "n/a",
                    f"{sum(attempts)/len(attempts):.1f}" if attempts else "n/a",
                    det.stats.rounds,
                ]
            )
        return rows

    rows = once(benchmark, run)
    table = render_table(
        ["instance", "paths", "selection steps", "good-set picks",
         "fallbacks", "good fraction (obs)", "avg batches (det)",
         "avg attempts (rand)", "total rounds (det)"],
        rows,
        title=(
            "F6: good-set selection (force_selection; Lemma 3.8 predicts "
            "good fraction >= 1/8 under Step 9's failed-precondition regime)"
        ),
    )
    emit("fig_goodset", table)
