"""Blocker-set constructions: coverage, size, determinism, diagnostics."""

from __future__ import annotations

import pytest

from repro.congest import CongestNetwork
from repro.blocker import (
    BlockerParams,
    deterministic_blocker_set,
    greedy_blocker_set,
    is_blocker_set,
    randomized_blocker_set,
    sampling_blocker_set,
    uncovered_paths,
)
from repro.blocker.verify import greedy_reference_size

from conftest import collection_of, graph_of

ALL_CONSTRUCTIONS = [
    ("derandomized", lambda net, coll: deterministic_blocker_set(net, coll)),
    ("randomized", lambda net, coll: randomized_blocker_set(net, coll)),
    ("greedy", lambda net, coll: greedy_blocker_set(net, coll)),
    ("sampling", lambda net, coll: sampling_blocker_set(net, coll)),
]


@pytest.mark.parametrize("kind", ["er-sparse", "er-dense", "grid", "path",
                                  "star", "broom", "er-directed", "er-zero"])
@pytest.mark.parametrize("name,construct", ALL_CONSTRUCTIONS)
def test_coverage_on_every_family(kind, name, construct):
    g = graph_of(kind)
    coll = collection_of(kind, 3)
    net = CongestNetwork(g)
    result = construct(net, coll)
    assert is_blocker_set(coll, result.blockers), name
    assert uncovered_paths(coll, result.blockers) == []
    # The input collection must be untouched (algorithms copy).
    assert coll.path_count() == collection_of(kind, 3).path_count()


@pytest.mark.parametrize("kind", ["er-sparse", "er-dense", "grid"])
@pytest.mark.parametrize("name,construct", ALL_CONSTRUCTIONS[:3])
def test_size_within_factor_of_greedy_reference(kind, name, construct):
    """Lemma 3.10 shape: within a modest constant of the greedy optimum."""
    g = graph_of(kind)
    coll = collection_of(kind, 3)
    net = CongestNetwork(g)
    result = construct(net, coll)
    ref = greedy_reference_size(coll)
    assert result.q <= max(3 * ref, ref + 3), (name, result.q, ref)


@pytest.mark.parametrize("kind", ["er-sparse", "grid"])
def test_deterministic_is_deterministic(kind):
    g = graph_of(kind)
    coll = collection_of(kind, 3)
    net = CongestNetwork(g)
    a = deterministic_blocker_set(net, coll)
    b = deterministic_blocker_set(net, coll)
    assert a.blockers == b.blockers
    assert a.stats.rounds == b.stats.rounds
    assert [p.added for p in a.picks] == [p.added for p in b.picks]


def test_randomized_seed_controls_selection():
    coll = collection_of("er-dense", 2)
    g = graph_of("er-dense")
    net = CongestNetwork(g)
    p1 = BlockerParams(force_selection=True, seed=1)
    p2 = BlockerParams(force_selection=True, seed=1)
    a = randomized_blocker_set(net, coll, p1)
    b = randomized_blocker_set(net, coll, p2)
    assert a.blockers == b.blockers


def test_force_selection_exercises_good_sets():
    coll = collection_of("er-dense", 2)
    g = graph_of("er-dense")
    net = CongestNetwork(g)
    params = BlockerParams(force_selection=True)
    for construct in (deterministic_blocker_set, randomized_blocker_set):
        result = construct(net, coll, params)
        assert is_blocker_set(coll, result.blockers)
        kinds = {p.kind for p in result.picks}
        assert "good-set" in kinds, construct.__name__
        # Good sets satisfy Definition 3.1's P_ij coverage requirement.
        for p in result.picks:
            if p.kind == "good-set":
                assert p.covered_pij >= (params.delta / 2) * p.pij_size - 1e-9


def test_derandomized_good_fraction_reported():
    coll = collection_of("er-dense", 2)
    g = graph_of("er-dense")
    net = CongestNetwork(g)
    result = deterministic_blocker_set(net, coll, BlockerParams(force_selection=True))
    fracs = [p.good_fraction for p in result.picks if p.kind == "good-set"]
    assert fracs and all(0 < f <= 1 for f in fracs)


def test_greedy_picks_are_max_score_and_monotone():
    coll = collection_of("er-sparse", 3)
    g = graph_of("er-sparse")
    net = CongestNetwork(g)
    result = greedy_blocker_set(net, coll)
    covered = [p.covered_pij for p in result.picks]
    # Greedy coverage is non-increasing (scores only shrink).
    assert all(covered[i] >= covered[i + 1] for i in range(len(covered) - 1))
    assert all(c >= 1 for c in covered)


def test_greedy_max_picks_cap():
    coll = collection_of("er-sparse", 3)
    g = graph_of("er-sparse")
    net = CongestNetwork(g)
    result = greedy_blocker_set(net, coll, max_picks=2)
    assert result.q <= 2


def test_sampling_size_scales_with_density():
    coll = collection_of("er-dense", 2)
    g = graph_of("er-dense")
    net = CongestNetwork(g)
    small = sampling_blocker_set(net, coll, seed=3, density=1.0)
    large = sampling_blocker_set(net, coll, seed=3, density=2.5)
    assert is_blocker_set(coll, small.blockers)
    assert is_blocker_set(coll, large.blockers)
    assert large.q >= small.q


def test_blocker_params_validated():
    with pytest.raises(ValueError):
        BlockerParams(eps=0.2)
    with pytest.raises(ValueError):
        BlockerParams(delta=0.0)


def test_empty_collection_yields_empty_blocker():
    """h beyond the hop diameter -> no length-h paths -> Q is empty."""
    g = graph_of("er-dense")
    coll = collection_of("er-dense", g.n)
    net = CongestNetwork(g)
    for construct in (deterministic_blocker_set, greedy_blocker_set):
        result = construct(net, coll)
        assert result.blockers == []


def test_blocker_rounds_structure():
    """Alg 2' round ledger contains the expected phase labels."""
    coll = collection_of("er-sparse", 3)
    g = graph_of("er-sparse")
    net = CongestNetwork(g)
    result = deterministic_blocker_set(net, coll)
    labels = set(result.log.rounds_by_label())
    assert {"initial-scores", "compute-pi", "score-ij"} <= labels
    assert result.stats.rounds == result.log.total().rounds


def test_blocker_with_partial_source_set():
    """Section 3 is parametrized by an arbitrary source set S (used with
    S = Q in Algorithm 8); the machinery must work on partial collections."""
    from repro.csssp import build_csssp

    g = graph_of("er-sparse")
    net = CongestNetwork(g)
    sources = [0, 3, 7, 11, 19]
    coll, _ = build_csssp(net, g, sources, h=3)
    for construct in (deterministic_blocker_set, greedy_blocker_set):
        result = construct(net, coll)
        assert is_blocker_set(coll, result.blockers)
        # Round cost scales with |S|, not n (the Cor. 3.13 point).
        assert result.stats.rounds < g.n * g.n


def test_distributed_coverage_check_agrees_with_centralized():
    from repro.blocker.verify import distributed_coverage_check

    g = graph_of("er-sparse")
    coll = collection_of("er-sparse", 3)
    net = CongestNetwork(g)
    q = deterministic_blocker_set(net, coll).blockers
    covered, stats = distributed_coverage_check(net, coll, q)
    assert covered and stats.rounds > 0
    # Removing one blocker usually uncovers something; if not, the empty
    # set certainly fails (the collection has paths).
    covered_empty, _ = distributed_coverage_check(net, coll, [])
    assert covered_empty == is_blocker_set(coll, [])
    if len(q) > 1:
        partial = q[:-1]
        covered_partial, _ = distributed_coverage_check(net, coll, partial)
        assert covered_partial == is_blocker_set(coll, partial)


@pytest.mark.parametrize("eps", [1 / 24, 1 / 12])
@pytest.mark.parametrize("delta", [1 / 24, 1 / 12])
def test_blocker_constant_grid(eps, delta):
    """Exactness across the (eps, delta) parameter space the analysis
    allows — band geometry changes, coverage must not."""
    coll = collection_of("er-dense", 2)
    g = graph_of("er-dense")
    net = CongestNetwork(g)
    params = BlockerParams(eps=eps, delta=delta)
    result = deterministic_blocker_set(net, coll, params)
    assert is_blocker_set(coll, result.blockers)
    forced = deterministic_blocker_set(
        net, coll, BlockerParams(eps=eps, delta=delta, force_selection=True)
    )
    assert is_blocker_set(coll, forced.blockers)
