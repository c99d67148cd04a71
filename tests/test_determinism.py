"""Determinism guarantees.

The paper's headline is a *deterministic* algorithm: identical inputs must
produce identical executions — same blocker sets, same picks, same round
counts, same outputs — across repeated runs and fresh engine instances.
Randomized components must be reproducible from their seeds and respond
to seed changes.
"""

from __future__ import annotations

import numpy as np

from repro.congest import CongestNetwork
from repro.graphs import erdos_renyi
from repro.blocker import (
    BlockerParams,
    deterministic_blocker_set,
    greedy_blocker_set,
    randomized_blocker_set,
    sampling_blocker_set,
)
from repro.apsp import deterministic_apsp, five_thirds_apsp

from conftest import collection_of, graph_of


def fresh_run(algo, kind="er-sparse"):
    g = graph_of(kind)
    net = CongestNetwork(g)  # fresh engine every time
    return algo(net, g)


def test_full_apsp_run_is_replayable():
    a = fresh_run(deterministic_apsp)
    b = fresh_run(deterministic_apsp)
    assert np.array_equal(a.dist, b.dist, equal_nan=True)
    assert np.array_equal(a.pred, b.pred)
    assert a.rounds == b.rounds
    assert a.step_rounds() == b.step_rounds()
    assert a.meta == b.meta


def test_phase_ledgers_identical_entry_for_entry():
    a = fresh_run(five_thirds_apsp)
    b = fresh_run(five_thirds_apsp)
    ea = [(label, s.rounds, s.messages) for label, s in a.log]
    eb = [(label, s.rounds, s.messages) for label, s in b.log]
    assert ea == eb


def test_blocker_constructions_replayable():
    coll = collection_of("er-dense", 2)
    g = graph_of("er-dense")
    for construct in (deterministic_blocker_set, greedy_blocker_set):
        r1 = construct(CongestNetwork(g), coll)
        r2 = construct(CongestNetwork(g), coll)
        assert r1.blockers == r2.blockers
        assert [(p.kind, p.added) for p in r1.picks] == [
            (p.kind, p.added) for p in r2.picks
        ]
        assert r1.stats.rounds == r2.stats.rounds
        assert r1.stats.messages == r2.stats.messages


def test_randomized_components_seeded():
    coll = collection_of("er-dense", 2)
    g = graph_of("er-dense")
    net = CongestNetwork(g)
    s1 = sampling_blocker_set(net, coll, seed=5)
    s2 = sampling_blocker_set(net, coll, seed=5)
    s3 = sampling_blocker_set(net, coll, seed=6)
    assert s1.blockers == s2.blockers
    assert s1.blockers != s3.blockers or s1.stats.rounds == s2.stats.rounds

    p5 = BlockerParams(force_selection=True, seed=5)
    r1 = randomized_blocker_set(net, coll, p5)
    r2 = randomized_blocker_set(net, coll, BlockerParams(
        force_selection=True, seed=5))
    assert r1.blockers == r2.blockers


def test_graph_generation_insensitive_to_dict_order():
    """Engine execution order is sorted, so topologically identical graphs
    with identical seeds give identical message traces."""
    g1 = erdos_renyi(20, p=0.3, seed=9)
    g2 = erdos_renyi(20, p=0.3, seed=9)
    r1 = deterministic_apsp(CongestNetwork(g1), g1)
    r2 = deterministic_apsp(CongestNetwork(g2), g2)
    assert np.array_equal(r1.dist, r2.dist, equal_nan=True)
    assert r1.rounds == r2.rounds


def test_derandomized_good_point_choice_stable():
    coll = collection_of("er-dense", 2)
    g = graph_of("er-dense")
    params = BlockerParams(force_selection=True)
    runs = [
        deterministic_blocker_set(CongestNetwork(g), coll, params)
        for _ in range(3)
    ]
    picks = [[(p.kind, p.added, p.trials) for p in r.picks] for r in runs]
    assert picks[0] == picks[1] == picks[2]
