"""Larger end-to-end integration runs (the slowest tests in the suite).

One mid-size instance per interesting configuration, with the paper's
global invariants checked on the way out: exact distances and routing,
the Lemma 3.10 blocker-size shape, the Lemma A.15 residual-congestion
bound inside Step 6, and per-step budgets that sum to the total.
"""

from __future__ import annotations

import math

import pytest

from repro.congest import CongestNetwork
from repro.graphs import erdos_renyi, grid2d
from repro.apsp import deterministic_apsp, three_phase_apsp


@pytest.mark.parametrize("make", [
    lambda: erdos_renyi(48, p=0.1, seed=31),
    lambda: grid2d(6, 8, seed=31),
    lambda: erdos_renyi(40, p=0.15, seed=31, directed=True),
])
def test_full_run_midsize(make):
    g = make()
    net = CongestNetwork(g)
    result = deterministic_apsp(net, g)
    result.verify(g)

    n, h, q = g.n, result.meta["h"], result.meta["q"]
    # Lemma 3.10 shape: |Q| = O(n log n / h) with a small constant.
    assert q <= 2 * n * math.log(n) / h
    # Theorem 1.1 bookkeeping: the ledger is complete and consistent.
    assert result.rounds == sum(result.step_rounds().values())
    assert result.rounds > 0
    # Step 6 internals surfaced in meta.
    assert result.meta["bottlenecks"] >= 0
    assert result.meta["q_prime"] >= 0


def test_pipeline_congestion_within_lemma_a15_budget():
    """Lemma A.15: after bottleneck removal, no node forwards more than
    n*sqrt(|Q|) values in the Step 6 round-robin phase."""
    g = erdos_renyi(48, p=0.1, seed=33)
    net = CongestNetwork(g)
    result = deterministic_apsp(net, g)
    result.verify(g)
    q = max(result.meta["q"], 1)
    rr = [s for label, s in result.log if label.endswith("round-robin")]
    assert rr, "pipelined Step 6 must appear in the ledger"
    assert max(s.max_node_congestion for s in rr) <= g.n * math.sqrt(q)


def test_sweep_monotonicity():
    """Rounds grow with n for a fixed family — a sanity gate for the
    exponent fits the benches publish."""
    rounds = []
    for n in (16, 24, 36):
        g = erdos_renyi(n, p=max(0.12, 4.0 / n), seed=29)
        net = CongestNetwork(g)
        result = three_phase_apsp(net, g, h=max(1, round(n ** (1 / 3))))
        result.verify(g)
        rounds.append(result.rounds)
    assert rounds[0] < rounds[1] < rounds[2]
