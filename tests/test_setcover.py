"""The centralized Berger-Rompel-Shor set cover and its equivalence to the
distributed blocker construction."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.congest import CongestNetwork
from repro.blocker import deterministic_blocker_set, greedy_blocker_set
from repro.blocker.randomized import BlockerParams
from repro.blocker.setcover import (
    Hypergraph,
    brs_cover,
    collection_hypergraph,
    greedy_cover,
)

from conftest import collection_of, graph_of


def small_hypergraph():
    return Hypergraph([
        {0, 1, 2},
        {2, 3},
        {3, 4, 5},
        {0, 5},
        {1, 4},
    ])


def test_hypergraph_bookkeeping():
    hg = small_hypergraph()
    assert hg.live_count() == 5
    assert hg.degree(2) == 2 and hg.degree(0) == 2
    removed = hg.cover(2)
    assert removed == 2
    assert hg.live_count() == 3
    assert hg.degree(2) == 0
    hg.reset()
    assert hg.live_count() == 5


def test_hypergraph_rejects_empty_edge():
    with pytest.raises(ValueError):
        Hypergraph([{1, 2}, set()])


def test_greedy_cover_valid_and_minimal_on_small_case():
    hg = small_hypergraph()
    result = greedy_cover(hg)
    assert hg.is_covered_by(result.cover)
    # This instance has a 2-cover ({2, 4} e.g.); greedy finds size <= 3.
    assert result.size <= 3


@pytest.mark.parametrize("force", [False, True])
@pytest.mark.parametrize("derandomize", [False, True])
def test_brs_cover_always_covers(force, derandomize):
    hg = small_hypergraph()
    result = brs_cover(
        hg, force_selection=force, derandomize=derandomize, seed=7
    )
    assert hg.is_covered_by(result.cover)
    assert result.selection_steps >= 1


def test_brs_rejects_bad_constants():
    with pytest.raises(ValueError):
        brs_cover(small_hypergraph(), eps=0.5)


def test_collection_hypergraph_shape():
    coll = collection_of("er-sparse", 3)
    hg = collection_hypergraph(coll)
    assert len(hg.edges) == coll.path_count()
    assert all(len(e) == 3 for e in hg.edges)  # h vertices per edge


@pytest.mark.parametrize("kind", ["er-sparse", "er-dense", "grid", "star"])
def test_distributed_greedy_equals_centralized_greedy(kind):
    """The distributed greedy blocker and greedy set cover on the derived
    hypergraph are the same algorithm: identical picks, identical order."""
    coll = collection_of(kind, 3)
    g = graph_of(kind)
    net = CongestNetwork(g)
    distributed = greedy_blocker_set(net, coll)
    central = greedy_cover(collection_hypergraph(coll))
    assert distributed.blockers == central.cover


@pytest.mark.parametrize("kind", ["er-sparse", "er-dense"])
def test_distributed_alg2prime_equals_centralized_brs(kind):
    """Algorithm 2' is the distributed realization of [4]: same stage /
    phase structure, same sample space, same picks."""
    coll = collection_of(kind, 3)
    g = graph_of(kind)
    net = CongestNetwork(g)
    distributed = deterministic_blocker_set(net, coll)
    central = brs_cover(collection_hypergraph(coll))
    assert distributed.blockers == central.cover
    assert [k for (k, _a) in central.picks] == [
        p.kind for p in distributed.picks
    ]


def test_forced_selection_matches_too():
    coll = collection_of("er-dense", 2)
    g = graph_of("er-dense")
    net = CongestNetwork(g)
    distributed = deterministic_blocker_set(
        net, coll, BlockerParams(force_selection=True)
    )
    central = brs_cover(
        collection_hypergraph(coll), force_selection=True
    )
    assert distributed.blockers == central.cover


def random_hypergraph(n, m, k, seed):
    rng = random.Random(seed)
    edges = []
    for _ in range(m):
        size = rng.randint(1, k)
        edges.append(set(rng.sample(range(n), min(size, n))))
    return Hypergraph(edges)


@given(
    n=st.integers(4, 30),
    m=st.integers(1, 40),
    k=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=30, deadline=None)
def test_brs_cover_property(n, m, k, seed):
    hg = random_hypergraph(n, m, k, seed)
    result = brs_cover(hg, seed=seed)
    assert hg.is_covered_by(result.cover)
    # Lemma 3.10 shape: within a constant factor of greedy.
    ref = greedy_cover(hg)
    assert result.size <= max(3 * ref.size, ref.size + 3)


@given(
    n=st.integers(4, 25),
    m=st.integers(1, 30),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=20, deadline=None)
def test_greedy_cover_property(n, m, seed):
    hg = random_hypergraph(n, m, 4, seed)
    result = greedy_cover(hg)
    assert hg.is_covered_by(result.cover)
    # Each pick covers at least one edge.
    assert result.size <= m
